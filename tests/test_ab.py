"""The paired A/B tool: a tree timed against itself in two warm workers
reports every workload's blocks, pairs and operation counts, and the paired
statistics count the pairs won and compare the medians with the parent's
interquartile range."""

import importlib.util
import os

import pytest

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
    assert set(entry) == ({"pass_s", "scenario_gmean_ms", "attempted", "failed"}
                          | {"scenario_ms." + n for n in names})
    for key in ("pass_s", "scenario_gmean_ms"):
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
    assert not ab.summary([10.0, 14.0], [11.0, 12.0])["beyond_parent_iqr"]
    # one pair: its values are the median and both quartiles
    assert ab.summary([2.0], [1.0])["parent"] == {"median": 2.0, "q1": 2.0, "q3": 2.0}
