"""The paired A/B tool: a tree timed against itself in two warm workers
reports every workload's blocks, pairs and operation counts, the paired
statistics count the pairs won and compare the medians with the parent's
interquartile range, an unwritable output stops it before any timing, and
the field clock charges a field run once."""

import importlib.util
import os
import time

import numpy as np
import pytest

from kahlerkit.fields import ChartManifold, Field, PointEval
from kahlerkit.scenarios import Case, Check, load_scenario, run_scenario_obj

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("ab", os.path.join(ROOT, "tools", "ab.py"))
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


def test_a_tree_timed_against_itself_in_lockstep():
    # two warm workers, each driving kahlerkit.cli.main through perfbench's
    # worker; two pairs of one-pass blocks of the verify workload
    blocks, ready = ab.run([ROOT, ROOT], ["ak_verify"], pairs=2, block=1)
    assert sorted(blocks) == ["ak_verify"] and "numpy" in ready
    parent, change = blocks["ak_verify"]
    assert len(parent) == len(change) == 2
    out = ab.report(blocks, 1, {})
    entry = out["workloads"]["ak_verify"]
    assert entry["failed"] == {"parent": 0, "change": 0}
    assert entry["attempted"]["parent"] == entry["attempted"]["change"] > 0
    names = {"flat", "sphere", "ak_flat", "ak_disk", "ak_disk_chain2"}
    assert set(entry) == ({"pass_s", "fields_s", "peak_rss_mb", "scenario_gmean_ms",
                           "scenario_max_ms", "attempted", "failed"}
                          | {"scenario_ms." + n for n in names})
    # a unit's field evaluation runs inside its commands
    for side in (parent, change):
        for b in side:
            assert len(b["fields_s"]) == len(b["pass_s"]) == 1
            assert all(0.0 < f <= p for f, p in zip(b["fields_s"], b["pass_s"]))
        # a worker's peak resident set, read after each block, never falls
        rss = [b["peak_rss_mb"] for b in side]
        assert 0.0 < rss[0] and rss == sorted(rss)
    for key in ("pass_s", "peak_rss_mb", "scenario_gmean_ms", "scenario_max_ms"):
        s = entry[key]
        assert s["pairs"] == 2 and 0 <= s["pairs_lower"] <= 2
        for side in ("parent", "change"):
            assert 0.0 < s[side]["q1"] <= s[side]["median"] <= s[side]["q3"]
    assert out["block"] == 1


def test_the_paired_statistics():
    s = ab.summary([10.0, 12.0, 11.0, 13.0], [9.0, 12.5, 8.0, 9.5])
    assert s["parent"] == {"median": 11.5, "q1": 10.75, "q3": 12.25}
    assert s["change"]["median"] == 9.25
    assert s["pairs"] == 4 and s["pairs_lower"] == 3
    assert s["change_pct"] == pytest.approx(100.0 * (9.25 / 11.5 - 1.0))
    # 2.25 apart, against a parent IQR of 1.5
    assert s["beyond_parent_iqr"]
    # the change within each pair: -10%, +4.17%, -27.27%, -26.92%
    assert s["paired_pct"]["median"] == pytest.approx(-18.4615, abs=1e-3)
    # the paired quartiles, about -27.0% to -6.5%, exclude 0
    assert s["paired_iqr_excludes_0"]
    mixed = ab.summary([10.0, 14.0], [11.0, 12.0])
    assert not mixed["beyond_parent_iqr"]
    # +10% and -14.3%: the paired quartiles straddle 0
    assert not mixed["paired_iqr_excludes_0"]
    # a host that drifts 4x over the run, the change 5% lower in every pair:
    # the parent's quartiles span the drift, the paired ones read -5% alone
    drift = ab.summary([10.0, 20.0, 30.0, 40.0], [9.5, 19.0, 28.5, 38.0])
    assert drift["pairs_lower"] == 4 and not drift["beyond_parent_iqr"]
    assert drift["paired_pct"]["q3"] == pytest.approx(-5.0)
    assert drift["paired_iqr_excludes_0"]
    # and 5% higher in every pair
    assert ab.summary([10.0, 20.0, 30.0, 40.0],
                      [10.5, 21.0, 31.5, 42.0])["paired_iqr_excludes_0"]
    # one pair: its values are the median and both quartiles
    assert ab.summary([2.0], [1.0])["parent"] == {"median": 2.0, "q1": 2.0, "q3": 2.0}
    # a block's scenario_max_ms is its largest scenario mean, and its
    # scenario_gmean_ms their geometric mean
    blocks = [{"pass_s": [1.0, 3.0], "fields_s": [0.5, 1.5], "peak_rss_mb": 35.25,
               "cmd_ms": {"a": [2.0, 4.0], "b": [9.0]}},
              {"pass_s": [2.0], "fields_s": [0.25], "peak_rss_mb": 35.5,
               "cmd_ms": {"a": [8.0], "b": [2.0, 2.0]}}]
    values = ab.block_values(blocks)
    assert values["pass_s"] == [2.0, 2.0]
    assert values["fields_s"] == [1.0, 0.25]
    # one peak per block, as the worker read it
    assert values["peak_rss_mb"] == [35.25, 35.5]
    assert values["scenario_max_ms"] == [9.0, 8.0]
    assert values["scenario_gmean_ms"] == pytest.approx([27.0 ** 0.5, 4.0])
    assert values["scenario_ms.a"] == [3.0, 8.0]
    # a scenario missing from a block leaves out both block-wide means
    blocks[1]["cmd_ms"]["b"] = []
    assert set(ab.block_values(blocks)) == {"pass_s", "fields_s", "peak_rss_mb",
                                            "scenario_ms.a"}


@pytest.mark.parametrize("out", ["missing/ab.json", "."])
def test_an_output_that_cannot_be_written_is_a_usage_error(out, tmp_path, monkeypatch, capsys):
    # a missing directory or a directory: exit 2 naming the path, before any
    # worker starts and with nothing written
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(ab, "run", lambda *a: pytest.fail("timed an unwritable run"))
    with pytest.raises(SystemExit) as exc:
        ab.main([ROOT, ROOT, "--pairs", "1", "--out", out])
    err = capsys.readouterr().err
    assert exc.value.code == 2 and "cannot write %s: " % out in err
    assert os.listdir(tmp_path) == []


def test_field_clock_charges_a_batch_field_run_to_fields():
    # a batched case runs each field once for the whole plan; the clock must
    # charge that run to fields_s, inside the check time that read it.  The
    # case is flat's two checks around a slow metric Field of its own: a
    # built Field cannot be rewritten
    scn = load_scenario("flat")
    chart = ChartManifold(3, [(-1.0, 1.0)] * 3, label="R^3")
    runs = []

    def slow_metric(pt):
        runs.append(pt.value.shape)
        time.sleep(0.05)
        return np.eye(3)
    metric = Field(slow_metric)
    checks = tuple(Check(name, "", 1e-11,
                         ((chart, lambda pe, k=k: pe.absmax(pe.curvature(metric)[k])),))
                   for k, name in enumerate(("curvature_zero", "ricci_zero")))
    case = Case("Euclidean R^3", chart, metric, checks)
    raw = PointEval.raw
    with ab.FieldClock() as clock:
        report = run_scenario_obj(scn, case=case)
    assert PointEval.raw is raw
    assert runs == [(scn.count, 3)]
    checks = report["timings_seconds"]
    assert 0.05 <= clock.seconds <= sum(checks.values())
    # the first check to read the metric runs it; the second reads the memo
    assert checks["curvature_zero"] >= 0.05 > checks["ricci_zero"]
