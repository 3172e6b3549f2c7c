"""End-to-end tests of the command-line front end.

Everything drives kahlerkit.cli.main(argv) in process; stdout and stderr
are captured through pytest's capsys fixture and reports are parsed back
from the printed JSON.
"""

import json
import os
import sys

import numpy as np
import pytest

import kahlerkit.cli
import kahlerkit.scenarios
from kahlerkit.cli import main
from kahlerkit.jets import Jet2, jconst
from kahlerkit.fields import Field
from kahlerkit.calabi import disk_base
from kahlerkit.twist import make_sfield
from kahlerkit.scenarios import (BUILDER_MAP, BUILDERS, Case, build_case,
                                 bundled_names, load_scenario,
                                 render_json, run_scenario_obj)

BUNDLED = ["ak_disk", "ak_disk_chain2", "ak_flat", "calabi_chain_twisted",
           "calabi_chain_untwisted", "calabi_flat", "calabi_twist_zeta",
           "flat", "sphere"]

# Reports of every bundled scenario at its bundled seed and count, and in
# golden/seed<N>/ at seeds 12345 and 4 with 6 samples, without
# timings_seconds, with the exit code of `kahlerkit verify`.  They are the
# reference for refactors: never regenerate them to make a test pass.
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
GOLDEN_RUNS = ([pytest.param(name, "", [], id=name) for name in BUNDLED]
               + [pytest.param(name, "seed%d" % seed,
                               ["--seed", str(seed), "--samples", "6"],
                               id="%s-seed%d" % (name, seed))
                  for seed in (12345, 4) for name in BUNDLED])


def run_cli(capsys, argv):
    rc = main(argv)
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def report_from(out):
    lines = out.splitlines()
    start = next(i for i, ln in enumerate(lines) if ln.strip() == "{")
    return json.loads("\n".join(lines[start:]))


def status_lines(out):
    return [ln for ln in out.splitlines() if ln.startswith(("PASS", "FAIL"))]


def test_bundled_scenario_names():
    assert bundled_names() == BUNDLED


def test_verify_flat_passes(capsys):
    rc, out, err = run_cli(capsys, ["verify", "flat", "--samples", "8"])
    assert rc == 0
    assert err == ""
    lines = status_lines(out)
    assert len(lines) == 2
    assert all(ln.startswith("PASS") for ln in lines)
    names = [ln.split()[1] for ln in lines]
    assert names == ["curvature_zero", "ricci_zero"]
    rep = report_from(out)
    assert rep["scenario"] == "flat"
    assert rep["builder"] == "flat"
    assert rep["all_pass"] is True
    assert rep["samples"] == 8
    assert set(rep) == {"scenario", "builder", "case", "seed", "samples",
                        "params", "checks", "all_pass", "timings_seconds"}
    for rec in rep["checks"]:
        assert rec["pass"] is True
        assert rec["max_residual"] <= rec["tolerance"]


def test_verify_report_deterministic(tmp_path, capsys):
    f1 = tmp_path / "a.json"
    f2 = tmp_path / "b.json"
    for path in (f1, f2):
        rc, out, err = run_cli(capsys, ["verify", "sphere", "--samples", "9",
                                        "--seed", "11", "--out", str(path)])
        assert rc == 0
        assert ("report written to %s" % path) in out
        assert "{" not in out.split("report written")[0].split("points=9")[-1]
    r1 = json.loads(f1.read_text())
    r2 = json.loads(f2.read_text())
    t1 = r1.pop("timings_seconds")
    t2 = r2.pop("timings_seconds")
    assert set(t1) == set(t2) == {c["name"] for c in r1["checks"]}
    assert render_json(r1) == render_json(r2)
    assert r1["seed"] == 11


def test_verify_seed_changes_report(capsys):
    rc1, out1, _ = run_cli(capsys, ["verify", "sphere", "--samples", "6"])
    rc2, out2, _ = run_cli(capsys, ["verify", "sphere", "--samples", "6",
                                    "--seed", "99"])
    assert rc1 == rc2 == 0
    r1, r2 = report_from(out1), report_from(out2)
    assert r2["seed"] == 99
    assert r1["seed"] != 99
    m1 = [c["max_residual"] for c in r1["checks"]]
    m2 = [c["max_residual"] for c in r2["checks"]]
    assert m1 != m2


def test_verify_failing_scenario_exits_one(capsys):
    rc, out, err = run_cli(capsys, ["verify", "ak_disk_chain2",
                                    "--samples", "3"])
    assert rc == 1
    lines = {ln.split()[1]: ln for ln in status_lines(out)}
    assert lines["ricci_flat"].startswith("FAIL")
    assert lines["einstein_fit"].startswith("FAIL")
    assert lines["ricci_form_fiber_log"].startswith("PASS")
    assert lines["ak3_identity"].startswith("PASS")
    rep = report_from(out)
    assert rep["all_pass"] is False
    bad = {c["name"] for c in rep["checks"] if not c["pass"]}
    assert bad == {"einstein_fit", "ricci_flat"}
    worst = max(c["max_residual"] for c in rep["checks"] if not c["pass"])
    assert worst > 0.5


def test_tol_override_tightens(capsys):
    rc, out, _ = run_cli(capsys, ["verify", "ak_disk", "--samples", "4",
                                  "--tol", "1e-16"])
    assert rc == 1
    rep = report_from(out)
    assert all(c["tolerance"] == 1e-16 for c in rep["checks"])
    by_name = {c["name"]: c for c in rep["checks"]}
    assert by_name["structure_forms"]["pass"] is False
    assert by_name["killing_plane"]["pass"] is True
    assert by_name["killing_plane"]["max_residual"] == 0.0


def test_tol_override_loosens(capsys):
    rc, out, _ = run_cli(capsys, ["verify", "ak_disk_chain2", "--samples", "3",
                                  "--tol", "10"])
    assert rc == 0
    rep = report_from(out)
    assert rep["all_pass"] is True
    assert all(c["tolerance"] == 10.0 for c in rep["checks"])


def test_excluded_points_in_line_and_report(capsys):
    rc, out, _ = run_cli(capsys, ["verify", "ak_flat", "--samples", "4"])
    assert rc == 0
    lines = {ln.split()[1]: ln for ln in status_lines(out)}
    assert "excluded=4" in lines["torsion_rank"]
    assert "excluded=4" in lines["torsion_kernel"]
    assert "excluded" not in lines["ricci_flat"]
    rep = report_from(out)
    by_name = {c["name"]: c for c in rep["checks"]}
    assert by_name["torsion_rank"]["points_excluded"] == 4
    assert by_name["torsion_rank"]["points_used"] == 0
    assert by_name["ricci_flat"]["points_used"] == 4


def test_unknown_scenario_exits_two(capsys):
    rc, out, err = run_cli(capsys, ["verify", "no_such_scenario"])
    assert rc == 2
    assert err.startswith("error:")
    assert "no_such_scenario" in err
    assert "ak_disk" in err


def test_malformed_scenario_file(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{ not json at all")
    rc, out, err = run_cli(capsys, ["verify", str(bad)])
    assert rc == 2
    assert err.startswith("error:")
    assert "line 1" in err


def test_scenario_field_validation(tmp_path, capsys):
    cases = [
        ({"name": "x", "builder": "flat", "bogus": 1},
         "unknown scenario fields"),
        ({"name": "x", "builder": "not_a_builder"}, "unknown builder"),
        ({"name": "x", "builder": "flat", "plan": {"seed": 0, "reps": 2}},
         "plan takes only"),
        ({"name": "x", "builder": "flat",
          "tolerances": {"curvature_zero": "tight"}}, "must be a number"),
        ({"name": "x", "builder": "flat", "params": {"dim": 3, "warp": 2}},
         "warp"),
    ]
    for idx, (obj, needle) in enumerate(cases):
        path = tmp_path / ("scn%d.json" % idx)
        path.write_text(json.dumps(obj))
        rc, out, err = run_cli(capsys, ["verify", str(path)])
        assert rc == 2
        assert err.startswith("error:")
        assert needle in err


def test_custom_scenario_file_runs(tmp_path, capsys):
    obj = {"name": "mini_flat", "builder": "flat", "params": {"dim": 2},
           "plan": {"seed": 3, "count": 5},
           "tolerances": {"curvature_zero": 1e-14}}
    path = tmp_path / "mini.json"
    path.write_text(json.dumps(obj))
    rc, out, err = run_cli(capsys, ["verify", str(path)])
    assert rc == 0
    rep = report_from(out)
    assert rep["scenario"] == "mini_flat"
    assert rep["seed"] == 3
    assert rep["samples"] == 5
    assert rep["params"] == {"dim": 2}
    by_name = {c["name"]: c for c in rep["checks"]}
    assert by_name["curvature_zero"]["tolerance"] == 1e-14
    assert by_name["ricci_zero"]["tolerance"] > 1e-14


def test_samples_must_be_positive(capsys):
    rc, out, err = run_cli(capsys, ["verify", "flat", "--samples", "0"])
    assert rc == 2
    assert "--samples" in err


def test_curvature_sphere_closed_form(capsys):
    u = 1.0471975511965976
    rc, out, err = run_cli(capsys, ["curvature", "sphere",
                                    "--point", "%r, 0.0" % u])
    assert rc == 0
    assert "scenario: sphere (unit 2-sphere)" in out
    scal_line = next(ln for ln in out.splitlines()
                     if ln.startswith("scalar curvature:"))
    scal = float(scal_line.split(":")[1])
    assert abs(scal - 2.0) < 1e-9
    assert " 7.5000000000e-01" in out
    riem = next(ln for ln in out.splitlines()
                if ln.startswith("max |Riemann|:"))
    assert abs(float(riem.split(":")[1]) - 0.75) < 1e-9


def test_curvature_point_errors(capsys):
    rc, _, err = run_cli(capsys, ["curvature", "sphere", "--point", "1.0"])
    assert rc == 2
    assert "needs 2" in err
    rc, _, err = run_cli(capsys, ["curvature", "sphere", "--point", "0.1,0.0"])
    assert rc == 2
    assert "outside the chart domain" in err
    rc, _, err = run_cli(capsys, ["curvature", "sphere", "--point", "1.0,zero"])
    assert rc == 2
    assert "comma-separated" in err


def test_curvature_domain_error_names_the_point(tmp_path, capsys):
    obj = {"name": "out_of_disc", "builder": "calabi_twist",
           "params": {"twist": {"id": "const", "c": [1.3, 0.0]}},
           "plan": {"seed": 1, "count": 3}}
    path = tmp_path / "out_of_disc.json"
    path.write_text(json.dumps(obj))
    rc, out, err = run_cli(capsys, ["curvature", str(path), "--point=0,1.0,0.1,0.1"])
    assert rc == 1
    assert out == ""
    assert err.startswith("error: JetDomainError at point [0.0, 1.0, 0.1, 0.1]: ")
    assert "twist leaves the disc" in err
    assert len(err.splitlines()) == 1


def test_curvature_singular_metric_names_the_point(monkeypatch, capsys):
    case = build_case(load_scenario("sphere"))
    degenerate = Field(lambda pt: [[jconst(0.0, 2)] * 2] * 2, case.chart)
    monkeypatch.setattr(kahlerkit.cli, "build_case",
                        lambda scn: Case(case.label, case.chart, degenerate, []))
    rc, _, err = run_cli(capsys, ["curvature", "sphere", "--point", "1.0,0.5"])
    assert rc == 1
    assert err.startswith("error: DegenerateMetricError at point [1.0, 0.5]: ")
    assert "None" not in err


def test_negative_seed_is_a_usage_error(tmp_path, capsys):
    rc, _, err = run_cli(capsys, ["verify", "flat", "--seed", "-1"])
    assert rc == 2
    assert err.startswith("error:") and "seed must be non-negative" in err
    path = tmp_path / "neg.json"
    path.write_text(json.dumps({"name": "neg", "builder": "flat", "plan": {"seed": -1}}))
    with pytest.raises(kahlerkit.scenarios.ScenarioError, match="seed must be non-negative"):
        load_scenario(str(path))
    rc, _, err = run_cli(capsys, ["verify", str(path)])
    assert rc == 2
    assert err.startswith("error:") and "seed must be non-negative" in err


def test_list_builders_output(capsys):
    rc, out, err = run_cli(capsys, ["list-builders"])
    assert rc == 0
    for bid in ("flat", "sphere", "calabi", "calabi_twist",
                "calabi_chain", "ak_product"):
        assert ("%s\n  summary:" % bid) in out
    assert "bundled scenarios: %s" % ", ".join(BUNDLED) in out
    rc2, out2, _ = run_cli(capsys, ["list-builders"])
    assert out2 == out


def test_list_builders_shows_defaults_and_checks(capsys):
    rc, out, _ = run_cli(capsys, ["list-builders"])
    assert rc == 0
    assert "dim=3" in out
    assert "chain_level=1" in out
    assert "ricci_form_fiber_log" in out
    assert "holomorphic_foliation" in out or "verdict" in out


@pytest.mark.parametrize("name", BUNDLED)
def test_every_bundled_scenario_loads(name, capsys):
    rc, out, err = run_cli(capsys, ["verify", name, "--samples", "2",
                                    "--tol", "1e6"])
    assert rc == 0
    rep = report_from(out)
    assert rep["scenario"] == name
    assert rep["samples"] == 2
    assert len(rep["checks"]) >= 2


def _residuals_agree(got, want):
    if isinstance(want, str) or isinstance(got, str):
        return got == want
    return abs(got - want) <= 1e-12 + 1e-9 * abs(want)


@pytest.mark.parametrize("name, subdir, plan_args", GOLDEN_RUNS)
def test_report_matches_golden(name, subdir, plan_args, tmp_path, capsys):
    with open(os.path.join(GOLDEN, subdir, name + ".json"), encoding="utf-8") as fh:
        golden = json.load(fh)
    out = tmp_path / "report.json"
    rc, _, _ = run_cli(capsys, ["verify", name, "--out", str(out)] + plan_args)
    rep = json.loads(out.read_text())
    rep.pop("timings_seconds")
    want = golden["report"]
    assert rc == golden["exit_code"]
    assert {k: v for k, v in rep.items() if k != "checks"} == \
        {k: v for k, v in want.items() if k != "checks"}
    assert [c["name"] for c in rep["checks"]] == [c["name"] for c in want["checks"]]
    for got, exp in zip(rep["checks"], want["checks"]):
        assert set(got) == set(exp), got["name"]
        for key, val in exp.items():
            if key in ("max_residual", "mean_residual"):
                assert _residuals_agree(got[key], val), (got["name"], key, got[key], val)
            else:
                assert got[key] == val, (got["name"], key, got[key], val)


@pytest.mark.parametrize("name", BUNDLED)
def test_each_point_is_seeded_at_most_twice(name, monkeypatch):
    scn = load_scenario(name)
    scn.count = 3
    case = build_case(scn)
    seeds = []
    seed = Jet2.seed

    def counting_seed(p):
        seeds.append(np.asarray(p, float).tobytes())
        return seed(p)
    monkeypatch.setattr(Jet2, "seed", staticmethod(counting_seed))
    run_scenario_obj(scn, case=case)
    assert len(seeds) <= 2 * len(set(seeds))


def test_twisted_chart_runs_s_and_alpha_once_per_point():
    # the twisted fields read S, and the chart's g, J, P+ read the base's
    # alpha, through the point's memo: one run of each per sample point
    scn = load_scenario("calabi_twist_zeta")
    scn.count = 3
    case = build_case(scn)
    counts = {disk_base(0)[1].fn.__code__: 0,
              make_sfield(None, None, None, None).fn.__code__: 0}

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in counts:
            counts[frame.f_code] += 1
    sys.setprofile(profile)
    try:
        run_scenario_obj(scn, case=case)
    finally:
        sys.setprofile(None)
    assert list(counts.values()) == [3, 3]


def test_factor_point_runs_the_base_fields_once_per_point():
    # ricci_identity_check and volume_checks read the base at pe.sub(2), the
    # factor's point; its fields come from the lifted slice pt[2:], where the
    # chart's own fields already ran them: one base-metric run per point
    scn = load_scenario("calabi_twist_zeta")
    scn.count = 3
    case = build_case(scn)
    code = disk_base(0)[0].g.fn.__code__
    runs = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            runs.append(1)
    sys.setprofile(profile)
    try:
        run_scenario_obj(scn, case=case)
    finally:
        sys.setprofile(None)
    assert len(runs) == 3


@pytest.fixture(scope="module")
def bundled_checks():
    """Names of the checks the bundled scenarios run, by builder."""
    ran = {}
    for name in BUNDLED:
        scn = load_scenario(name)
        ran.setdefault(scn.builder, set()).update(c.name for c in build_case(scn).checks)
    return ran


def test_every_bundled_check_is_listed_by_its_builder(bundled_checks):
    for builder, names in bundled_checks.items():
        assert names <= set(BUILDER_MAP[builder].check_names), builder


def test_every_listed_check_runs_in_a_bundled_scenario(bundled_checks):
    for entry in BUILDERS:
        assert set(entry.check_names) <= bundled_checks.get(entry.id, set()), entry.id


def test_nonfinite_residual_fails_the_record(monkeypatch, capsys):
    # a NaN at the second of five points must not hide behind max()
    calls = []

    def nan_at_second_point(cal, pe):
        calls.append(pe)
        return float("nan") if len(calls) == 2 else 1e-14
    monkeypatch.setattr(kahlerkit.scenarios, "moment_map_point", nan_at_second_point)
    rc, out, _ = run_cli(capsys, ["verify", "calabi_flat", "--samples", "5"])
    assert rc == 1
    rec = {c["name"]: c for c in report_from(out)["checks"]}["moment_map"]
    assert rec["pass"] is False
    assert rec["error"].startswith("non-finite residual at point [")
    assert rec["points_used"] == 2
    assert len(calls) == 2
    assert [ln.split()[0] for ln in status_lines(out)
            if ln.split()[1] == "moment_map"] == ["FAIL"]


def test_curvature_point_with_negative_first_coordinate(capsys):
    rc, out, err = run_cli(capsys, ["curvature", "flat", "--point", "-0.3,0.2,0.1"])
    assert rc == 0, err
    assert "point:    [-3.0000000000e-01,  2.0000000000e-01,  1.0000000000e-01]" in out
    rc, out2, _ = run_cli(capsys, ["curvature", "flat", "--point=-0.3,0.2,0.1"])
    assert rc == 0 and out2 == out


def test_domain_error_ends_each_check_at_its_point(tmp_path, capsys):
    # a twist scaled out of the unit disc: every twisted field raises at the
    # second sample, so every check that needs g_w or J_w keeps the first point
    # and names the second; the classifier check records it too instead of
    # aborting the run
    obj = {"name": "big_twist", "builder": "calabi_twist",
           "params": {"twist": {"id": "coord_z", "scale": 3.0}},
           "plan": {"seed": 4, "count": 5}}
    path = tmp_path / "big_twist.json"
    path.write_text(json.dumps(obj))
    rc, out, _ = run_cli(capsys, ["verify", str(path)])
    assert rc == 1
    by_name = {c["name"]: c for c in report_from(out)["checks"]}
    for name in ("form_invariance", "norm_factor", "nijenhuis_twisted",
                 "homothetic_foliation", "ricci_fiber_log", "zeta_duality",
                 "classify_verdict"):
        rec = by_name[name]
        assert rec["pass"] is False and rec["points_used"] == 1
        assert rec["error"].startswith("JetDomainError at point [")
        assert "twist leaves the disc" in rec["error"]
    # the untwisted fields stay in their domain
    assert by_name["transverse_holomorphy"]["pass"] is True
    assert by_name["transverse_holomorphy"]["points_used"] == 5


def test_bench_writes_the_medians_of_each_scenario(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(kahlerkit.cli, "bundled_names", lambda: ["flat", "sphere"])
    monkeypatch.setattr(kahlerkit.cli, "BENCH_REPEAT", 1)
    rc, out, _ = run_cli(capsys, ["bench", "--label", "t"])
    assert rc == 0
    with open(tmp_path / "BENCH_t.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["label"] == "t" and doc["repeat"] == 1
    assert set(doc["scenarios"]) == {"flat", "sphere"}
    for name, row in doc["scenarios"].items():
        checks = [c.name for c in build_case(load_scenario(name)).checks]
        assert list(row["checks_s"]) == checks
        assert row["run_s"] > 0 and row["build_s"] >= 0
        assert row["fields_s"] >= 0 and row["aggregate_s"] >= 0
        assert sum(row["checks_s"].values()) <= row["run_s"] + 1e-5


@pytest.mark.parametrize("label", ["pr4", "pr5"])
def test_committed_bench_lists_every_bundled_scenario_and_check(label):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCH_%s.json" % label), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert sorted(doc["scenarios"]) == BUNDLED
    for name in BUNDLED:
        checks = [c.name for c in build_case(load_scenario(name)).checks]
        assert list(doc["scenarios"][name]["checks_s"]) == checks, name
