"""The claim map (tools/claim_map.py) recomputed against its committed
table, tests/claim_map.json: every cell and check in table order, with its
verdict, point counts, error and reason exactly, and its max residual by
decade, so that a refactor that moves residual digits does not trip it and
one that moves a verdict, a count or a residual's size does."""

import importlib.util
import json
import math
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "claim_map", os.path.join(ROOT, "tools", "claim_map.py"))
claim_map = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(claim_map)


def decade(x):
    """The decade of a table residual: floor(log10 x) for x > 0, else x
    itself (0, or the str of a NaN or an infinity)."""
    return math.floor(math.log10(x)) if isinstance(x, float) and x > 0 else x


def test_the_claim_map_matches_its_committed_table():
    with open(claim_map.TABLE, encoding="utf-8") as fh:
        text = fh.read()
    want = json.loads(text)
    got = claim_map.rows()
    assert [(r["cell"], r["check"]) for r in got] == [(r["cell"], r["check"]) for r in want]
    for g, w in zip(got, want):
        assert {k: v for k, v in g.items() if k != "max"} == \
               {k: v for k, v in w.items() if k != "max"}, (g["cell"], g["check"])
        assert decade(g["max"]) == decade(w["max"]), (g["cell"], g["check"], g["max"], w["max"])
    # the committed file is the tool's own rendering of its rows
    assert claim_map.render(want) == text


def test_every_fail_row_has_a_reason_and_every_pass_row_none():
    with open(claim_map.TABLE, encoding="utf-8") as fh:
        table = json.load(fh)
    for r in table:
        assert (r["reason"] != "") == (r["verdict"] == "FAIL"), (r["cell"], r["check"])
    # each cited reason is one of the tool's, on a row that FAILs
    fails = {(r["cell"], r["check"]) for r in table if r["verdict"] == "FAIL"}
    assert set(claim_map.REASONS) <= fails
    # the fuzz's real FAIL is a row of the table
    assert ("ak_product z=chain chain_m=1 chain_level=1 twist=coord_z mode=A",
            "ricci_form_fiber_log") in fails


def test_the_tool_takes_no_options(capsys):
    assert claim_map.main(["--out", "x"]) == 2
    assert "takes no options" in capsys.readouterr().err
