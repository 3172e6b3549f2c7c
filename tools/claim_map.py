"""The claim map: every builder's check verdicts over its discrete parameters.

    python tools/claim_map.py

Runs each cell of grid() (a builder and the discrete parameters it sets, every
continuous parameter at its default) at one fixed plan, SEED and COUNT, in
the kahlerkit this interpreter imports, and writes tests/claim_map.json: one
row per cell and check with its verdict (PASS or FAIL), the points used and
excluded, the max residual to 3 significant digits, the error a check ended
at, and a reason.  A FAIL row's reason cites the test or paper statement that
predicts it (REASONS), or reads "unexplained"; a PASS row's is empty.  The
map records the FAILs; it does not rule on them.

The grid reads its choices from the registry: calabi's base, calabi_twist's
base and twist id, calabi_chain's kind and m in {2, 3}, and ak_product's z
and twist id.  Mode A is mode B of -w (kahlerkit.twist), so every cell runs
in mode B; a const twist runs at C and at -C instead, as those are the two
cells the mode axis would give.  One cell off the defaults, ak_product on a
chain of height 1 at level 1 with a coord_z twist in mode A, carries a real
FAIL of ricci_form_fiber_log that a parameter fuzz found.

tests/test_claim_map.py recomputes the map and compares verdicts, counts and
errors exactly and residuals by their decade.
"""

import json
import math
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TABLE = os.path.join(ROOT, "tests", "claim_map.json")
SEED, COUNT = 1, 6
C = [0.2, -0.3]    # the const twist's c, inside the disc


def grid():
    """The cells, in table order: (name, builder, params)."""
    from kahlerkit.scenarios import BUILDER_MAP

    def choices(builder, key):
        return BUILDER_MAP[builder].params[key][1].choices

    def twists():
        yield "const", {"id": "const", "c": C}
        yield "const_neg", {"id": "const", "c": [-v for v in C]}
        for tid in ("coord_z", "conj_z"):
            yield tid, {"id": tid}

    cells = [("calabi base=%s" % base, "calabi", {"base": base})
             for base in choices("calabi", "base")]
    cells += [("calabi_twist base=%s twist=%s" % (base, tname), "calabi_twist",
               {"base": base, "twist": spec})
              for base in choices("calabi_twist", "base") for tname, spec in twists()]
    cells += [("calabi_chain kind=%s m=%d" % (kind, m), "calabi_chain", {"kind": kind, "m": m})
              for kind in choices("calabi_chain", "kind") for m in (2, 3)]
    cells += [("ak_product z=%s twist=%s" % (z, tname), "ak_product", {"z": z, "twist": spec})
              for z in choices("ak_product", "z") for tname, spec in twists()]
    cells.append(("ak_product z=chain chain_m=1 chain_level=1 twist=coord_z mode=A",
                  "ak_product", {"z": "chain", "chain_m": 1, "chain_level": 1,
                                 "twist": {"id": "coord_z"}, "mode": "A"}))
    return cells


NOT_INTEGRABLE = ("a conj_z twist is not transversally holomorphic, so the twisted J "
                  "is not integrable (test_twist.py::"
                  "test_integrability_iff_transverse_holomorphy)")
NOT_KAHLER = ("the identity is one of Ricci forms, and Ric(J., .) is the Ricci form only "
              "where (g, J) is Kähler (hermitian.ricci_form); " + NOT_INTEGRABLE)

# (cell name, check) -> the test or paper statement that predicts the FAIL
REASONS = {("calabi_twist base=%s twist=conj_z" % base, check): reason
           for base in ("flat", "disk")
           for check, reason in (("transverse_holomorphy", NOT_INTEGRABLE),
                                 ("nijenhuis_twisted", NOT_INTEGRABLE),
                                 ("ricci_fiber_log", NOT_KAHLER))}


def _digits(x):
    """x to 3 significant digits, as the table writes it (a NaN or an
    infinity as its str)."""
    return float("%.3g" % x) if math.isfinite(x) else str(x)


def rows():
    """The table's rows, cell by cell of grid() and check by check."""
    from kahlerkit.scenarios import parse_scenario, run_scenario_obj
    out = []
    for name, builder, params in grid():
        scn = parse_scenario({"name": name, "builder": builder, "params": params,
                              "plan": {"seed": SEED, "count": COUNT}})
        for rec in run_scenario_obj(scn)["checks"]:
            verdict = "PASS" if rec["pass"] else "FAIL"
            out.append({"cell": name, "builder": builder, "params": params,
                        "check": rec["name"], "verdict": verdict,
                        "used": rec["points_used"], "excluded": rec["points_excluded"],
                        "max": _digits(rec["max_residual"]), "error": rec.get("error", ""),
                        "reason": "" if rec["pass"]
                        else REASONS.get((name, rec["name"]), "unexplained")})
    return out


def render(table):
    """The table as the committed file holds it: one row per line."""
    return "[\n" + ",\n".join(json.dumps(r, sort_keys=True) for r in table) + "\n]\n"


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    if argv:
        print("usage: python tools/claim_map.py  (takes no options; writes %s)"
              % os.path.relpath(TABLE, ROOT), file=sys.stderr)
        return 2
    table = rows()
    with open(TABLE, "w", encoding="utf-8") as fh:
        fh.write(render(table))
    fails = [r for r in table if r["verdict"] == "FAIL"]
    print("%d rows, %d FAIL, %d unexplained; wrote %s"
          % (len(table), len(fails), sum(r["reason"] == "unexplained" for r in fails),
             os.path.relpath(TABLE, ROOT)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
