"""Tests of the benchmark itself: the tracer and the correctness gate.

    python3 -m pytest -q perfbench

They take about a minute: the traced runs use single scenarios of each
workload at their bundled sample counts.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import kahlerkit.cli  # noqa: E402
import kahlerkit.fields  # noqa: E402
import kahlerkit.jets  # noqa: E402
import kahlerkit.scenarios  # noqa: E402

import run  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer, find_wrappers  # noqa: E402

SEED = 1


def _bindings():
    mods = [m for n, m in sorted(sys.modules.items())
            if n == "kahlerkit" or n.startswith("kahlerkit.")]
    snap = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    snap.update({("Jet2", k): v for k, v in vars(kahlerkit.jets.Jet2).items()})
    return snap


def _counts(tracer, tally):
    calls = {name: s[0] for name, s in tracer.spans.items()}
    return dict(tracer.counts, points=len(tracer.points),
                scenario_points=tally.points, **calls)


def test_wrappers_patch_every_binding_and_are_removed(tmp_path):
    before = _bindings()
    with Tracer():
        wrapped = kahlerkit.fields.metric_jets
        assert hasattr(wrapped, "__wrapped__")
        assert kahlerkit.scenarios.metric_jets is wrapped
        assert kahlerkit.cli.metric_jets is wrapped
        assert hasattr(kahlerkit.cli.run_scenario_obj, "__wrapped__")
        assert hasattr(kahlerkit.jets.Jet2.__mul__, "__wrapped__")
        assert find_wrappers()
    assert find_wrappers() == []
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_counts_repeat_exactly_and_untraced_run_sees_no_wrappers(tmp_path):
    names = ("calabi_chain_untwisted", "ak_flat")
    runner = worker.Runner(names, SEED, str(tmp_path), query=False)
    seen = []
    for _ in range(2):
        plain, traced, tracer = runner.run_traced()
        assert plain.failed == traced.failed == 0
        seen.append(_counts(tracer, traced))
    assert seen[0] == seen[1]
    assert seen[0]["jets.ops"] > 0 and seen[0]["jets.seeds"] > 0
    assert seen[0]["foliation.theta_jets"] > 0
    # an untraced pass afterwards runs on the original functions
    assert find_wrappers() == []
    tally = worker.Tally(names)
    runner.step(tally, 0)
    assert tally.failed == 0 and tally.attempted == plain.attempted


def test_theta_jets_runs_on_calabi_verify_only(tmp_path):
    calabi = worker.Runner(("calabi_chain_untwisted",), SEED, str(tmp_path), query=False)
    ak = worker.Runner(worker.WORKLOADS["ak_verify"], SEED, str(tmp_path), query=False)
    assert set(calabi.names) <= set(worker.WORKLOADS["calabi_verify"])
    _, _, tr_calabi = calabi.run_traced()
    _, traced, tr_ak = ak.run_traced()
    assert tr_calabi.spans["foliation.theta_jets"][0] > 0
    assert tr_ak.spans["foliation.theta_jets"][0] == 0
    assert traced.failed == 0 and traced.attempted == 36


def test_query_rounds_repeat_exactly(tmp_path):
    names = ("sphere", "flat", "ak_disk", "calabi_twist_zeta")
    runner = worker.Runner(names, SEED, str(tmp_path), query=True)
    seen = []
    for _ in range(2):
        _, traced, tracer = runner.run_traced()
        assert traced.failed == 0 and traced.attempted == len(names) * worker.TRACE_ROUNDS
        seen.append(_counts(tracer, traced))
    assert seen[0] == seen[1]
    assert seen[0]["fields.curvature_from_jets"] == len(names) * worker.TRACE_ROUNDS


def test_span_self_time_excludes_children_and_reentry():
    tracer = Tracer()

    def leaf():
        return sum(range(20000))

    def rec(k):
        return leaf_w() if k == 0 else rec_w(k - 1)

    leaf_w = tracer._span("t.leaf", leaf)
    rec_w = tracer._span("t.rec", rec)
    rec_w(3)
    calls, self_s, incl_s = tracer.spans["t.rec"]
    lcalls, lself, lincl = tracer.spans["t.leaf"]
    assert (calls, lcalls) == (4, 1)
    assert lself == lincl > 0
    assert 0 <= self_s < incl_s
    assert abs(self_s + lself - incl_s) < 1e-9 * max(1.0, incl_s) + 1e-12


def test_gate_counts_nan_flipped_flag_error_and_missing_record():
    good = {"checks": [{"name": c, "pass": True, "max_residual": 1e-12,
                        "mean_residual": 1e-13, "points_used": 1,
                        "points_excluded": 0} for c in worker.CHECKS["flat"]]}
    assert worker.grade_report("flat", 0, good) == (2, 0)
    nan = {"checks": [dict(good["checks"][0], mean_residual="nan"),
                      good["checks"][1]]}
    assert worker.grade_report("flat", 0, nan) == (2, 1)
    flipped = {"checks": [dict(good["checks"][0], **{"pass": False}),
                          good["checks"][1]]}
    assert worker.grade_report("flat", 1, flipped)[1] == 2
    errored = {"checks": [dict(good["checks"][0], error="boom"), good["checks"][1]]}
    assert worker.grade_report("flat", 0, errored) == (2, 1)
    assert worker.grade_report("flat", 0, {"checks": good["checks"][:1]}) == (2, 1)


def test_expected_failures_count_as_correct(tmp_path):
    dt, attempted, failed, points = worker.verify_op("ak_disk_chain2", 2, str(tmp_path))
    assert (attempted, failed) == (11, 0) and dt > 0 and points > 0


def test_query_accepts_negative_first_coordinate_and_checks_oracles():
    dt, ok = worker.query_op("ak_flat", [-0.3, 0.2, 0.1, -0.1])
    assert ok and dt > 0
    assert worker.query_op("sphere", [1.0, -2.0])[1]
    assert not worker.query_op("sphere", [5.0, 0.0])[1]   # outside the chart


def test_benchmark_json_lists_the_emitted_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == run.per_layer_metrics()
    fake = {"cmd_ms": {"a": [1.0, 3.0], "b": [5.0, 5.0], "c": [150.0, 50.0]},
            "pass_s": [1.0, 3.0], "peak_rss_mb": 40.0}
    emitted = run._end_to_end_metrics(fake, [0.5, 0.7, 0.6], {})
    assert [(k, m["unit"]) for k, m in emitted.items()] == [
        (m["name"], m["unit"]) for m in bench["end_to_end"]]
    assert emitted["pass_s"]["value"] == 2.0 and emitted["setup_s"]["value"] == 0.6
    assert abs(emitted["scenario_gmean_ms"]["value"] - 10.0) < 1e-12
    assert emitted["scenario_max_ms"]["value"] == 100.0
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert set(run.SCENARIOS) == set(worker.CHECKS)
    assert run.tail(list(range(100))) == (89, 90.0)
    assert run.tail([3.0, 1.0]) == (3.0, 100.0)
