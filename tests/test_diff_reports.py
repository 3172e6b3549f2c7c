"""The report-diff tool: a tree diffed against itself reports nothing, and a
single moved bit, a changed exit code, a changed curvature line or a changed
list-builders line is listed where it moved, and the last line says which
kinds of bits moved."""

import copy
import importlib.util
import os

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "diff_reports", os.path.join(ROOT, "tools", "diff_reports.py"))
diff_reports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(diff_reports)


def test_a_tree_diffed_against_itself_reports_nothing():
    # the flat scenario at its bundled plan, its curvature query and the
    # builder listing, each tree in its own interpreter as the full diff
    # runs them
    old, new = diff_reports.collect_trees(ROOT, ROOT, names=["flat"],
                                          plans=diff_reports.PLANS[:1])
    assert sorted(old) == ["curvature flat", "list-builders", "verify flat bundled"]
    assert old["list-builders"]["exit"] == 0 and old["list-builders"]["lines"][0] == "flat"
    assert diff_reports.diff(old, new) == []
    assert diff_reports.render([], len(old)) == "0 of 3 outputs move"


def test_every_moved_bit_is_listed_with_its_check():
    old = diff_reports.collect(["sphere"], diff_reports.PLANS[:1])
    new = copy.deepcopy(old)
    rec = new["verify sphere bundled"]["report"]["checks"][0]
    rec["max_residual"] = float(np.nextafter(rec["max_residual"], 1.0))
    new["curvature sphere"]["exit"] = 1
    line = new["curvature sphere"]["lines"][2]
    new["curvature sphere"]["lines"][2] = line[:-1] + ("1" if line[-1] != "1" else "2")
    moved = dict(diff_reports.diff(old, new))
    assert sorted(moved) == ["curvature sphere", "verify sphere bundled"]
    (where, text, size), = moved["verify sphere bundled"]
    assert where == rec["name"] and text.startswith("max_residual ")
    assert 0.0 < size <= 1e-15
    rows = moved["curvature sphere"]
    assert [r[0] for r in rows] == ["exit code", "line 3"] and rows[1][2] > 0.0
    # the last line names the field that moved, and the exit code as the one
    # move beyond residual digits (line 3 moved in its digits alone)
    text = diff_reports.render(list(moved.items()), 2, diff_reports.what_moved(old, new))
    assert text.splitlines()[-1] == ("2 of 2 outputs move; report fields that move: "
                                     "max_residual; beyond residual digits, these move: exit code")


def test_a_changed_listing_line_is_a_moved_output():
    old = diff_reports.collect(["sphere"], diff_reports.PLANS[:1])
    new = copy.deepcopy(old)
    lines = new["list-builders"]["lines"]
    i = next(i for i, ln in enumerate(lines) if ln.startswith("  checks:"))
    lines[i] += ", extra_check"
    moved = diff_reports.diff(old, new)
    assert [key for key, _ in moved] == ["list-builders"]
    (where, text, size), = moved[0][1]
    assert where == "line %d" % (i + 1) and text.endswith(", extra_check'") and size is None
    text = diff_reports.render(moved, len(old), diff_reports.what_moved(old, new))
    assert text.splitlines()[-1] == ("1 of 3 outputs move; report fields that move: none; "
                                     "beyond residual digits, these move: list-builders line")


def test_the_help_says_where_bits_are_reproducible(capsys):
    # bit-level identity holds on one host and one BLAS kernel: the help
    # says so, and so does the usage line of a wrong call
    assert diff_reports.main(["--help"]) == 0
    assert "one host and one BLAS kernel" in " ".join(capsys.readouterr().out.split())
    assert diff_reports.main([]) == 2
    assert "one host and one BLAS kernel" in capsys.readouterr().err
