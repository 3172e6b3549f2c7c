"""End-to-end tests of the command-line front end.

Everything drives kahlerkit.cli.main(argv) in process, but for the runs
under another BLAS kernel, which need fresh processes; stdout and stderr
are captured through pytest's capsys fixture and reports are parsed back
from the printed JSON.
"""

import contextlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import kahlerkit.cli
import kahlerkit.scenarios
from kahlerkit.cli import main
from kahlerkit.jets import Jet2
from kahlerkit.fields import Field, PointEval, curvature_from_jets, metric_jets
from kahlerkit.calabi import disk_base
from kahlerkit.twist import make_sfield
from kahlerkit.scenarios import (BUILDERS, Case, build_case, bundled_dir,
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


def test_render_json_text_is_pinned():
    # the renderer's text for every type it takes, recorded before it was
    # rewritten as one pass: quoted non-finite floats, -0.0 at .17g, empty
    # containers inline, numpy scalars as Python numbers, a tuple as a list,
    # a non-string key by its str, and non-ASCII text escaped as json.dumps
    # escapes it
    obj = {"nan": float("nan"), "inf": float("inf"), "ninf": -float("inf"),
           "nzero": -0.0, "empty_dict": {}, "empty_list": [],
           "f64": np.float64(1.5), "i64": np.int64(3), "f32": np.float32(0.1),
           "params": {"twist": {"id": "coord_z", "scale": [1e-155, 2, (True, None)]}},
           "\u00e9": "na\u00efve \u2014 \u2202 \"q\"\n", 7: False}
    assert render_json(obj) == (
        '{\n  "nan": "nan",\n  "inf": "inf",\n  "ninf": "-inf",\n  "nzero": -0,\n'
        '  "empty_dict": {},\n  "empty_list": [],\n  "f64": 1.5,\n  "i64": 3,\n'
        '  "f32": 0.10000000149011612,\n  "params": {\n    "twist": {\n'
        '      "id": "coord_z",\n      "scale": [\n        1e-155,\n'
        '        2,\n        [\n          true,\n          null\n        ]\n      ]\n'
        '    }\n  },\n  "\\u00e9": "na\\u00efve \\u2014 \\u2202 \\"q\\"\\n",\n'
        '  "7": false\n}')
    assert render_json([]) == "[]" and render_json({}) == "{}"
    assert render_json(np.float64("nan")) == '"nan"'
    with pytest.raises(TypeError, match="cannot render"):
        render_json({"x": object()})


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


@pytest.mark.parametrize("content", [
    b'{"name": "x", "builder": "flat", "params": {"dim": 1%s}}' % (b"0" * 5000),
    b'{"name": "\xff"}',
], ids=["integer-of-5001-digits", "not-utf-8"])
def test_files_json_cannot_read_exit_two(content, tmp_path, capsys):
    # json.load raised a bare ValueError on an integer of more than 4300
    # digits, and a UnicodeDecodeError on bytes that are not UTF-8
    bad = tmp_path / "unreadable.json"
    bad.write_bytes(content)
    rc, out, err = run_cli(capsys, ["verify", str(bad)])
    assert rc == 2 and out == ""
    assert err.startswith("error: %s: " % bad) and len(err.splitlines()) == 1


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
        # a title of any type was accepted, where name and builder are strings
        ({"name": "x", "builder": "flat", "title": 5}, "non-string 'title'"),
    ]
    for idx, (obj, needle) in enumerate(cases):
        path = tmp_path / ("scn%d.json" % idx)
        path.write_text(json.dumps(obj))
        rc, out, err = run_cli(capsys, ["verify", str(path)])
        assert rc == 2
        assert err.startswith("error: %s: " % path) and len(err.splitlines()) == 1
        assert needle in err


@pytest.mark.parametrize("builder, params", [
    ("calabi", {"A": 1.0}),
    ("calabi_chain", {"m": 5}),
    ("flat", {"dim": "x"}),
    ("ak_product", {"z": "chain", "chain_level": 7}),
], ids=["calabi-A", "calabi_chain-m", "flat-dim", "ak_product-chain_level"])
def test_params_the_builder_rejects_exit_two(builder, params, tmp_path, capsys):
    # a bad value in params is a scenario-file problem, raised at build time
    path = tmp_path / "bad_params.json"
    path.write_text(json.dumps({"name": "x", "builder": builder, "params": params}))
    for argv in (["verify", str(path)], ["curvature", str(path), "--point", "0,0"]):
        rc, out, err = run_cli(capsys, argv)
        assert rc == 2 and out == ""
        assert err.startswith("error: %s: builder %r" % (path, builder))
        assert len(err.splitlines()) == 1


@pytest.mark.parametrize("builder, params, needle", [
    ("flat", {"dim": 13}, "dim in 2..12, got 13"),
    ("flat", {"dim": 1}, "dim in 2..12, got 1"),
    ("calabi", {"base": "disk", "k": 33}, "k must lie in 0..32, got 33"),
    ("calabi", {"base": "disk", "k": 2000}, "k must lie in 0..32, got 2000"),
    ("ak_product", {"z": "disk", "k": 2000}, "k must lie in 0..32, got 2000"),
], ids=["flat-dim-13", "flat-dim-1", "calabi-k-33", "calabi-k-2000", "ak_product-k-2000"])
def test_sizes_out_of_range_exit_two(builder, params, needle, tmp_path, capsys):
    # a dim or disk exponent k out of range used to end in a MemoryError or
    # an OverflowError traceback with exit code 1
    path = tmp_path / "too_big.json"
    path.write_text(json.dumps({"name": "x", "builder": builder, "params": params}))
    rc, out, err = run_cli(capsys, ["verify", str(path)])
    assert rc == 2 and out == ""
    assert err.startswith("error: %s: builder %r cannot build from its params: " % (path, builder))
    assert needle in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("builder, params, needle", [
    ("calabi", {"base": "disk", "k": 1, "radius": 1.5}, "got radius=1.5"),
    ("calabi", {"base": "disk", "k": 1, "radius": 0.8}, "got radius=0.8"),
    ("ak_product", {"z": "disk", "radius": 0.8}, "got radius=0.8"),
    ("calabi_chain", {"radius": 0.75}, "got radius=0.75"),
], ids=["calabi-disk-1.5", "calabi-disk-0.8", "ak_product-disk-0.8", "calabi_chain-0.75"])
def test_disk_charts_that_leave_the_unit_disk_exit_two(builder, params, needle, tmp_path,
                                                       capsys):
    # the box |x|, |y| <= radius of a disk base with k >= 1 must lie inside
    # the open unit disk (radius * sqrt(2) < 1): beyond it (1 - rho^2)^k
    # vanishes or turns negative, and calabi with k = 1 and radius 1.5 used to
    # pass all nine checks
    path = tmp_path / "big_disk.json"
    path.write_text(json.dumps({"name": "x", "builder": builder, "params": params}))
    rc, out, err = run_cli(capsys, ["verify", str(path)])
    assert rc == 2 and out == ""
    assert err.startswith("error: %s: builder %r cannot build from its params: " % (path, builder))
    assert "unit disk" in err and needle in err
    assert len(err.splitlines()) == 1


def test_a_flat_base_takes_any_radius(tmp_path, capsys):
    path = tmp_path / "big_flat.json"
    path.write_text(json.dumps({"name": "x", "builder": "calabi",
                                "params": {"base": "flat", "radius": 1.5},
                                "plan": {"seed": 3, "count": 4}}))
    rc, out, err = run_cli(capsys, ["verify", str(path)])
    assert rc == 0 and err == ""


def test_a_bad_chain_m_is_reported_before_a_bad_chain_level(tmp_path, capsys):
    # chain_level is range-checked before the chain is built, after chain_m
    path = tmp_path / "bad_chain.json"
    path.write_text(json.dumps({"name": "x", "builder": "ak_product",
                                "params": {"z": "chain", "chain_m": 5, "chain_level": 7}}))
    rc, out, err = run_cli(capsys, ["verify", str(path)])
    assert rc == 2 and out == ""
    assert err == ("error: %s: builder 'ak_product' cannot build from its params: "
                   "chain height m must be 1..3 (dimension cap)\n" % path)


BIG = 10 ** 400   # an integer that no float holds


@pytest.mark.parametrize("obj, needle", [
    ({"builder": "calabi", "params": {"s_range": [-0.8, BIG]}},
     "builder 'calabi' cannot build from its params: s_range must be a number a float holds"),
    ({"builder": "ak_product", "params": {"radius": BIG}},
     "builder 'ak_product' cannot build from its params: radius must be a number a float holds"),
    ({"builder": "calabi_twist", "params": {"twist": {"id": "const", "c": [BIG, 0.0]}}},
     "const twist c = [re, im] must be a number a float holds"),
    ({"builder": "calabi_twist", "params": {"twist": {"id": "const", "c": [float("nan"), 0.0]}}},
     "twist c and scale must be finite"),
    ({"builder": "ak_product", "params": {"twist": {"id": "coord_z", "scale": float("inf")}}},
     "twist c and scale must be finite"),
    ({"builder": "ak_product", "params": {"twist": {"id": "coord_z", "c": [0.9, 0.9]}}},
     "twist 'coord_z' takes only scale besides its id, got c"),
    ({"builder": "calabi_twist", "params": {"twist": {"id": "const", "c": [0.1, 0.0],
                                                      "scale": 1e300}}},
     "twist 'const' takes only c besides its id, got scale"),
    ({"builder": "calabi_chain", "params": {"A": float("-inf")}},
     "profile needs a finite A < 0, got A=-inf"),
    ({"builder": "calabi_chain", "params": {"volume_floor": float("nan")}},
     "volume_floor must be finite and >= 0, got nan"),
    ({"builder": "calabi", "params": {"radius": "0.5"}}, "radius must be a number, got '0.5'"),
    ({"builder": "calabi_twist", "params": {"verdict": "holomorphic"}},
     "builder 'calabi_twist' has no parameter 'verdict' (known: "),
    ({"builder": "calabi", "params": {"alpha": "homotopy"}},
     "builder 'calabi' has no parameter 'alpha' (known: "),
    ({"builder": "flat", "tolerances": {"curvature_zero": BIG}},
     "tolerance 'curvature_zero' must be a number a float holds"),
    ({"builder": "flat", "plan": {"margin": BIG}},
     "bad plan: margin must be a number a float holds"),
    ({"builder": "ak_product", "params": {"k": "2"}}, "k must be an integer, got '2'"),
    ({"builder": "ak_product", "params": {"chain_m": "x"}},
     "chain_m must be an integer, got 'x'"),
    ({"builder": "calabi", "params": {"k": 1.5}}, "k must be an integer, got 1.5"),
    ({"builder": "calabi", "params": {"k": "one"}}, "k must be an integer, got 'one'"),
    ({"builder": "calabi_chain", "params": {"z_range": [-0.5, 1.0]}},
     "builder 'calabi_chain' cannot build from its params: z_range must be positive and "
     "increasing"),
    ({"builder": "ak_product", "params": {"z": "chain", "chain_level": 0, "A": 1.0}},
     "builder 'ak_product' cannot build from its params: profile needs a finite A < 0, "
     "got A=1.0"),
], ids=["range-big-int", "radius-big-int", "twist-c-big-int", "twist-c-nan", "twist-scale-inf",
        "twist-coord_z-c", "twist-const-scale", "A-minus-inf", "volume_floor-nan", "radius-string", "verdict-unknown",
        "alpha-unknown",
        "tolerance-big-int", "margin-big-int", "ak_plane-k-string", "ak_plane-chain_m-string",
        "calabi_flat-k-float", "calabi_flat-k-string", "chain-z_range-negative",
        "chain-level0-A-positive"])
def test_values_the_builders_cannot_use_exit_two(obj, needle, tmp_path, capsys):
    # an integer beyond the float range ended in an OverflowError traceback,
    # and A = -inf in a ZeroDivisionError one, both with exit code 1; a NaN
    # twist failed every twisted check at a sample point, and passed
    # transverse_holomorphy; an unknown key (verdict, alpha) named no file; a
    # twist field that its id never reads was ignored; a malformed parameter
    # that the case does not read (k on the plane or a flat base, chain_m
    # off a chain) exited 0; a chain's profile was checked level by level,
    # so a bad A passed at chain_level 0 (exit 1) and a negative z_range
    # read "step 1: z interval must stay positive"
    path = tmp_path / "big.json"
    path.write_text(json.dumps(dict(obj, name="x")))
    rc, out, err = run_cli(capsys, ["verify", str(path)])
    assert rc == 2 and out == ""
    assert err.startswith("error: %s: " % path) and needle in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("level", [7, -1])
def test_chain_level_out_of_range_names_the_parameter(level, tmp_path, capsys):
    # the chain of chain_m=2 has levels 0..2; -1 is not the last level
    path = tmp_path / "bad_level.json"
    path.write_text(json.dumps({"name": "x", "builder": "ak_product",
                                "params": {"z": "chain", "chain_level": level}}))
    for argv in (["verify", str(path)], ["curvature", str(path), "--point", "0,0"]):
        rc, out, err = run_cli(capsys, argv)
        assert rc == 2 and out == ""
        assert err.startswith("error: %s: builder 'ak_product'" % path)
        assert "chain_level %d is out of range" % level in err and "levels 0..2" in err
        assert len(err.splitlines()) == 1


@pytest.mark.parametrize("builder, key, val", [
    (builder, "s_range", rng) for builder in ("calabi", "calabi_twist", "calabi_chain")
    for rng in ([0.8, -0.8], [0.8, 0.8])
] + [("ak_product", "radius", r) for r in (0.0, -0.5, float("nan"))],
    ids=["%s-s_range-%s" % (b, k) for b in ("calabi", "calabi_twist", "calabi_chain")
         for k in ("reversed", "empty")] + ["ak_product-radius-%s" % k
                                            for k in ("zero", "negative", "nan")])
def test_chart_intervals_that_are_not_a_box_exit_two(builder, key, val, tmp_path, capsys):
    # a reversed or empty s_range, or a disk radius <= 0 or NaN, makes a chart
    # interval that is not finite with a < b; the chart rejects it while the
    # case is built, not the sampler with a traceback and exit code 1
    path = tmp_path / "bad_box.json"
    path.write_text(json.dumps({"name": "x", "builder": builder, "params": {key: val}}))
    rc, out, err = run_cli(capsys, ["verify", str(path)])
    assert rc == 2 and out == ""
    assert err.startswith("error: %s: builder %r cannot build from its params: " % (path, builder))
    assert "must be finite with a < b" in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize("builder, params, key, val", [
    ("ak_product", {"z": "chain"}, "chain_level", 1.7),
    ("ak_product", {"z": "chain"}, "chain_m", 2.5),
    ("ak_product", {"z": "disk"}, "k", True),
    ("calabi_chain", {}, "m", True),
    ("calabi_chain", {}, "m", 2.5),
    ("calabi", {"base": "disk"}, "k", 1.5),
    ("flat", {}, "dim", 3.5),
    ("flat", {}, "dim", "3"),
], ids=["chain_level-float", "chain_m-float", "k-bool", "m-bool", "m-float", "calabi-k-float",
        "dim-float", "dim-string"])
def test_integer_params_are_not_truncated(builder, params, key, val, tmp_path, capsys):
    # int() would build chain level 1 from 1.7 and an m = 1 chain from true
    path = tmp_path / "bad_int.json"
    path.write_text(json.dumps({"name": "x", "builder": builder, "params": dict(params, **{key: val})}))
    for argv in (["verify", str(path)], ["curvature", str(path), "--point", "0,0"]):
        rc, out, err = run_cli(capsys, argv)
        assert rc == 2 and out == ""
        assert err == "error: %s: builder %r cannot build from its params: %s must be an " \
                      "integer, got %r\n" % (path, builder, key, val)


@pytest.mark.parametrize("key, val", [("count", 2.9), ("seed", 1.5), ("count", True),
                                      ("seed", "1")])
def test_integer_plan_fields_are_not_truncated(key, val, tmp_path, capsys):
    path = tmp_path / "bad_plan.json"
    path.write_text(json.dumps({"name": "x", "builder": "flat", "plan": {key: val}}))
    for argv in (["verify", str(path)], ["curvature", str(path), "--point", "0,0,0"]):
        rc, out, err = run_cli(capsys, argv)
        assert rc == 2 and out == ""
        assert err == "error: %s: bad plan: %s must be an integer, got %r\n" % (path, key, val)


def test_integral_floats_are_integers(tmp_path, capsys):
    path = tmp_path / "float_int.json"
    path.write_text(json.dumps({"name": "x", "builder": "flat", "params": {"dim": 2.0},
                                "plan": {"seed": 3.0, "count": 2.0}}))
    rc, out, err = run_cli(capsys, ["verify", str(path)])
    rep = report_from(out)
    assert rc == 0 and err == ""
    assert (rep["seed"], rep["samples"], rep["case"]) == (3, 2, "Euclidean R^2")


@pytest.mark.parametrize("tol, needle", [
    (True, "must be a number, got True"),
    (float("nan"), "must be finite and >= 0, got nan"),
    (-1.0, "must be finite and >= 0, got -1.0"),
], ids=["bool", "nan", "negative"])
def test_bad_tolerance_in_a_file_exits_two(tol, needle, tmp_path, capsys):
    path = tmp_path / "bad_tol.json"
    path.write_text(json.dumps({"name": "x", "builder": "flat",
                                "tolerances": {"ricci_zero": tol}}))
    rc, out, err = run_cli(capsys, ["verify", str(path)])
    assert rc == 2 and out == ""
    assert err == "error: %s: tolerance 'ricci_zero' %s\n" % (path, needle)


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_bad_tol_option_exits_two(tol, capsys):
    rc, out, err = run_cli(capsys, ["verify", "flat", "--tol", tol])
    assert rc == 2 and out == ""
    assert err == "error: --tol must be finite and >= 0, got %r\n" % float(tol)


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


def test_a_plan_too_large_to_allocate_is_a_usage_error(tmp_path, capsys):
    # 10**15 points of R^3 are 24 PB of samples: the allocation is refused at
    # once, and it ended in a MemoryError traceback with exit code 1
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"name": "huge", "builder": "flat",
                                "plan": {"count": 1e15}}))
    for argv, source in ((["verify", str(path)], str(path)),
                         (["verify", "flat", "--samples", str(10 ** 15)],
                          os.path.join(bundled_dir(), "flat.json"))):
        rc, out, err = run_cli(capsys, argv)
        assert rc == 2 and out == ""
        assert err.startswith("error: %s: plan count 1000000000000000: cannot allocate "
                              "the sample points" % source), err
        assert len(err.splitlines()) == 1


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


@pytest.mark.parametrize("name", BUNDLED)
def test_curvature_command_entry_matches_point_eval_bit_for_bit(name):
    # `kahlerkit curvature` reads the metric's raw jets through metric_jets,
    # the one function taking raw coordinates; the checks read the memoised
    # PointEval.curvature.  Both must give the same bits
    case = build_case(load_scenario(name))
    c = case.chart.center()
    raw = curvature_from_jets(*metric_jets(case.metric.fn, c), c)
    memo = PointEval(c).curvature(case.metric)
    assert len(raw) == len(memo) == 4
    for a, b in zip(raw, memo):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# each bad --point, and what its one error line says: an empty coordinate,
# or a space inside one, is malformed, not dropped or joined
POINT_ERRORS = (("1.0", "needs 2"), ("0.1,0.0", "outside the chart domain"),
                ("1.0,zero", "comma-separated"), ("1.0,,0.5", "comma-separated"),
                ("0.5,0 1", "comma-separated"))


def test_curvature_point_errors(capsys):
    for point, needle in POINT_ERRORS:
        rc, out, err = run_cli(capsys, ["curvature", "sphere", "--point", point])
        assert rc == 2 and out == "", point
        assert err.startswith("error:") and needle in err and len(err.splitlines()) == 1


def test_curvature_domain_error_names_the_point(tmp_path, capsys):
    # |w|^2 = 9 (0.3^2 + 0.3^2) = 1.62 at the point: off the disc there (a
    # const twist off the disc is a usage error when its spec is read)
    obj = {"name": "out_of_disc", "builder": "calabi_twist",
           "params": {"twist": {"id": "coord_z", "scale": 3.0}},
           "plan": {"seed": 1, "count": 3}}
    path = tmp_path / "out_of_disc.json"
    path.write_text(json.dumps(obj))
    rc, out, err = run_cli(capsys, ["curvature", str(path), "--point=0,1.0,0.3,0.3"])
    assert rc == 1
    assert out == ""
    assert err.startswith("error: JetDomainError at point [0.0, 1.0, 0.3, 0.3]: ")
    assert "twist leaves the disc" in err
    assert len(err.splitlines()) == 1


def test_curvature_float_overflow_names_the_point(tmp_path, capsys):
    # a coordinate twist inside its scale bound on a tiny chart box: the
    # twisted metric's Hessian overflows, which is one error line naming the
    # point, not a RuntimeWarning
    obj = {"name": "tiny_box", "builder": "calabi_twist",
           "params": {"radius": 1e-155, "twist": {"id": "coord_z", "scale": 9e153}}}
    path = tmp_path / "tiny_box.json"
    path.write_text(json.dumps(obj))
    rc, out, err = run_cli(capsys, ["curvature", str(path), "--point=-0.5,0.85,5e-156,-5e-156"])
    assert rc == 1 and out == ""
    assert err == ("error: JetDomainError at point [-0.5, 0.85, 5e-156, -5e-156]: "
                   "overflow encountered in add\n")


def test_curvature_singular_metric_names_the_point(monkeypatch, capsys):
    case = build_case(load_scenario("sphere"))
    degenerate = Field(lambda pt: np.zeros((2, 2)))
    monkeypatch.setattr(kahlerkit.cli, "build_case",
                        lambda scn: Case(case.label, case.chart, degenerate, ()))
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


def test_one_parser_serves_every_call_in_a_process(tmp_path, capsys):
    # main builds its parser once; a run of calls across subcommands prints
    # what each call prints with a parser of its own
    out_file = str(tmp_path / "report.json")
    calls = [["verify", "flat", "--samples", "2", "--out", out_file],
             ["curvature", "sphere", "--point", "1.0,-0.3"],
             ["list-builders"],
             ["verify", "sphere", "--seed", "3", "--samples", "2", "--tol", "1e-20",
              "--out", out_file],
             ["curvature", "flat", "--point", "-0.3,0.2,0.1"],
             ["verify", "no_such_scenario"]]

    def run(argv):
        rc, out, err = run_cli(capsys, argv)
        report = None
        if argv[0] == "verify" and rc != 2:
            with open(out_file, encoding="utf-8") as fh:
                report = json.load(fh)
            report.pop("timings_seconds")
        return rc, out, err, report

    fresh = []
    for argv in calls:
        kahlerkit.cli._parser.cache_clear()
        fresh.append(run(argv))
    kahlerkit.cli._parser.cache_clear()
    for _ in range(2):
        assert [run(argv) for argv in calls] == fresh
    assert kahlerkit.cli._parser.cache_info().misses == 1
    assert [r[0] for r in fresh] == [0, 0, 0, 1, 0, 2]
    with pytest.raises(SystemExit):
        main(["verify"])
    assert "required: scenario" in capsys.readouterr().err
    assert run(calls[1]) == fresh[1]


def test_bench_is_no_subcommand(tmp_path, monkeypatch, capsys):
    # the timing harness lives in tools/ab.py: bench is a usage error and
    # writes nothing
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--label", "x"])
    assert exc.value.code == 2 and "invalid choice" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


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
    assert "dim=3 (integer)" in out
    assert "z='plane' (plane|disk|chain)" in out
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


def _golden(subdir, name):
    with open(os.path.join(GOLDEN, subdir, name + ".json"), encoding="utf-8") as fh:
        return json.load(fh)


def assert_matches_golden(rc, out, golden):
    """The exit code rc and the report written to out equal the golden run
    but for timings_seconds, each residual within the golden gate."""
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


@pytest.mark.parametrize("name, subdir, plan_args", GOLDEN_RUNS)
def test_report_matches_golden(name, subdir, plan_args, tmp_path, capsys):
    out = tmp_path / "report.json"
    rc, _, _ = run_cli(capsys, ["verify", name, "--out", str(out)] + plan_args)
    assert_matches_golden(rc, out, _golden(subdir, name))


def _why_the_blas_kernel_is_fixed():
    """Why OPENBLAS_CORETYPE cannot choose numpy's BLAS kernel here, or ""
    when numpy's BLAS is OpenBLAS built with DYNAMIC_ARCH, which picks its
    kernel by CPU at load time unless that variable names one."""
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    if "openblas" not in str(blas.get("name", "")).lower():
        return "numpy's BLAS is %r, not OpenBLAS" % blas.get("name")
    if "DYNAMIC_ARCH" not in str(blas.get("openblas configuration", "")).split():
        return "numpy's OpenBLAS is built without DYNAMIC_ARCH: its kernel is fixed"
    return ""


def test_reports_hold_to_the_golden_gate_on_another_blas_kernel(tmp_path):
    # the report bytes are reproducible on one host and one BLAS kernel:
    # contract is a batched matmul, whose summation order the kernel picks.
    # OpenBLAS's SSE kernel (Prescott), forced in fresh processes, moves
    # residual digits only, within the golden gate, and every other field
    # byte for byte; the variable is set in the children alone
    reason = _why_the_blas_kernel_is_fixed()
    if reason:
        pytest.skip(reason)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, OPENBLAS_CORETYPE="Prescott", PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    for name in ("calabi_twist_zeta", "ak_disk_chain2"):
        out = tmp_path / (name + ".json")
        proc = subprocess.run([sys.executable, "-m", "kahlerkit.cli", "verify", name,
                               "--out", str(out)], env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.stderr == "", proc.stderr
        assert_matches_golden(proc.returncode, out, _golden("", name))


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
    # alpha, through the point's memo: one run of each for the batch of the
    # three sample points
    scn = load_scenario("calabi_twist_zeta")
    scn.count = 3
    case = build_case(scn)
    counts = {disk_base(0)[1].fn.__code__: 0,
              make_sfield(None, np.eye(2), None).fn.__code__: 0}

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in counts:
            counts[frame.f_code] += 1
    sys.setprofile(profile)
    try:
        run_scenario_obj(scn, case=case)
    finally:
        sys.setprofile(None)
    assert list(counts.values()) == [1, 1]


def test_factor_point_runs_the_base_fields_once_per_point():
    # ricci_identity_check and volume_checks read the base at the lifted
    # slice pe[2:], the factor's point, where the chart's own fields already
    # ran them: one base-metric run for the batch of the three sample points
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
    assert len(runs) == 1


def _memoised_jets(pe):
    """(callable, jet) of every field in the memo of the point pe and of its
    lifted slices."""
    for key, val in pe.memo.items():
        if isinstance(val, PointEval):
            yield from _memoised_jets(val)
        elif key[0] == "raw":
            yield key[1], val


@pytest.mark.parametrize("name", BUNDLED)
def test_the_memo_holds_a_hessian_only_where_one_is_read(name, monkeypatch):
    # after a bundled verify, every field a builder marks first order (the J
    # family, theta, U+) is a first-order jet in a point's memo, a constant
    # one (ak_flat's) included, and every other field holds its Hessian (a
    # known zero included): each metric, and each P+ the classifier frames,
    # with a Hessian array
    scn = load_scenario(name)
    scn.count = 3
    case = build_case(scn)
    points, fields = [], {}
    raw = PointEval.raw

    def recording(pe, f):
        if isinstance(f, Field):
            fields[f.fn] = f
        return raw(pe, f)

    def sample_point(p):
        points.append(PointEval(p))
        return points[-1]
    monkeypatch.setattr(PointEval, "raw", recording)
    monkeypatch.setattr(kahlerkit.scenarios, "PointEval", sample_point)
    run_scenario_obj(scn, case=case)
    first = 0
    for pe in points:
        for fn, jet in _memoised_jets(pe):
            if getattr(fields.get(fn), "order", 2) == 1:
                assert jet._hess is None, fn
                first += 1
            else:
                assert jet._hess is not None, fn
        for key in pe.memo:
            if key[0] == "frame":
                assert isinstance(pe.memo["raw", key[1]]._hess, np.ndarray)
    metric = points[-1].memo["raw", case.metric.fn]
    assert metric.hess.shape == (3,) + metric.shape + metric.shape[-1:] * 2
    assert (first > 0) == (name not in ("flat", "sphere"))
    assert isinstance(metric._hess, np.ndarray) == (name != "flat")


@pytest.fixture(scope="module")
def bundled_checks():
    """Names of the checks in the bundled scenarios' reports, by builder."""
    ran = {}
    for name in BUNDLED:
        scn = load_scenario(name)
        ran.setdefault(scn.builder, set()).update(
            rec["name"] for rec in run_scenario_obj(scn)["checks"])
    return ran


@pytest.fixture(scope="module")
def listed_checks():
    """The check names `kahlerkit list-builders` prints, by builder, in its
    order: what each builder declares at its default params."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["list-builders"]) == 0
    listed, builder = {}, None
    for line in out.getvalue().splitlines():
        if not line.startswith(" "):
            builder = line
        elif line.startswith("  checks:  "):
            listed[builder] = line[len("  checks:  "):].split(", ")
    return listed


def test_every_bundled_check_is_listed_by_its_builder(bundled_checks, listed_checks):
    for builder, names in bundled_checks.items():
        assert names <= set(listed_checks[builder]), builder


def test_every_listed_check_runs_in_a_bundled_scenario(bundled_checks, listed_checks):
    # the listing names every builder, and each builder's listing is the
    # union of its bundled reports' checks, a check that its default params
    # do not run (ak_product's ricci_form_fiber_log) included
    assert list(listed_checks) == [entry.id for entry in BUILDERS]
    for builder, names in listed_checks.items():
        assert set(names) == bundled_checks.get(builder, set()), builder
    assert "ricci_form_fiber_log" in listed_checks["ak_product"]


def test_a_declared_check_these_params_do_not_run_takes_no_tolerance(tmp_path, capsys):
    # an untwisted chain of height 1 tops out at the disk, so its case has no
    # ker_dw_geodesic, though the builder declares it
    path = tmp_path / "chain1.json"
    path.write_text(json.dumps({"name": "chain1", "builder": "calabi_chain",
                                "params": {"m": 1},
                                "tolerances": {"ker_dw_geodesic": 1e-6}}))
    rc, out, err = run_cli(capsys, ["verify", str(path), "--samples", "2"])
    assert (rc, out) == (2, "")
    assert err == ("error: %s: tolerance for unknown check 'ker_dw_geodesic' (this case "
                   "runs: alpha_primitive, kahler_levels, ricci_coefficient)\n" % path)


def test_nonfinite_residual_fails_the_record(monkeypatch, capsys):
    # a NaN at the second of five points must not hide behind max(); the
    # batch of five is replayed point by point, and calls counts the points
    # evaluated one at a time
    calls = []

    def nan_at_second_point(cal, pe):
        if pe.batch > 1:
            return np.where(np.arange(pe.batch) == 1, np.nan, 1e-14)
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
    # aborting the run, and transverse_holomorphy, which reads w and the
    # untwisted fields only, checks the disc itself
    obj = {"name": "big_twist", "builder": "calabi_twist",
           "params": {"twist": {"id": "coord_z", "scale": 3.0}},
           "plan": {"seed": 4, "count": 5}}
    path = tmp_path / "big_twist.json"
    path.write_text(json.dumps(obj))
    rc, out, _ = run_cli(capsys, ["verify", str(path)])
    assert rc == 1
    by_name = {c["name"]: c for c in report_from(out)["checks"]}
    for name in ("form_invariance", "norm_factor", "transverse_holomorphy",
                 "nijenhuis_twisted", "homothetic_foliation", "ricci_fiber_log",
                 "zeta_duality", "classify_verdict"):
        rec = by_name[name]
        assert rec["pass"] is False and rec["points_used"] == 1
        assert rec["error"].startswith("JetDomainError at point [")
        assert "twist leaves the disc" in rec["error"]


@pytest.mark.parametrize("argv, path", [
    (["verify", "flat", "--samples", "2", "--out", "missing/report.json"], "missing/report.json"),
    (["verify", "flat", "--samples", "2", "--out", "."], ".")])
def test_an_output_path_that_cannot_be_written_is_a_usage_error(argv, path, tmp_path,
                                                                 monkeypatch, capsys):
    # a missing directory or a directory: exit 2 with one error line naming
    # the path, no traceback
    monkeypatch.chdir(tmp_path)
    rc, out, err = run_cli(capsys, argv)
    assert rc == 2 and "written" not in out and os.listdir(tmp_path) == []
    assert err.startswith("error: cannot write %s: " % path) and len(err.splitlines()) == 1


@pytest.mark.parametrize("label", ["pr4", "pr5", "pr7", "pr8", "pr9", "pr10"])
def test_committed_bench_lists_every_bundled_scenario_and_check(label):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCH_%s.json" % label), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert sorted(doc["scenarios"]) == BUNDLED
    for name in BUNDLED:
        checks = [c.name for c in build_case(load_scenario(name)).checks]
        assert list(doc["scenarios"][name]["checks_s"]) == checks, name
