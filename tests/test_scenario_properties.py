"""Properties of every scenario a builder accepts: generated calabi_twist and
ak_product params, drawn inside each parameter reader's domain, either build
or raise ScenarioError, and a built scenario runs to a report that passes no
check on a non-finite residual or an error, accounts for every sample point,
and renders to the same bytes on a second run.

A check that FAILs on a drawn scenario is a finding about the mathematics or
the conditioning there, not a defect of the runner, so no verdict is
asserted.  The examples come from the derandomised profile of conftest.py,
at its fixed budget, so every run draws the same scenarios."""

import math

from hypothesis import given, strategies as st

from kahlerkit.scenarios import (ScenarioError, build_case, parse_scenario, render_json,
                                 run_scenario_obj)
from kahlerkit.twist import DISC

# A log-uniform in [-1e3, -1e-2]
profile_A = st.floats(-2.0, 3.0).map(lambda u: -(10.0 ** u))
# a const twist's c inside the disc |c|^2 <= DISC, and the two coordinate twists
const_twist = st.builds(lambda r, t: {"id": "const", "c": [r * math.cos(t), r * math.sin(t)]},
                        st.floats(0.0, math.sqrt(DISC)), st.floats(0.0, 2.0 * math.pi))
twist = st.one_of(const_twist, st.sampled_from(["coord_z", "conj_z"]).map(lambda t: {"id": t}))
common = {"A": profile_A, "twist": twist, "mode": st.sampled_from(["A", "B"])}
params = st.one_of(
    st.fixed_dictionaries({"base": st.sampled_from(["flat", "disk"]), **common})
    .map(lambda p: ("calabi_twist", p)),
    st.fixed_dictionaries({"z": st.sampled_from(["plane", "disk", "chain"]), **common})
    .map(lambda p: ("ak_product", p)))


def _without_timings(report):
    return render_json({k: v for k, v in report.items() if k != "timings_seconds"})


@given(params, st.integers(0, 2 ** 16), st.integers(1, 4))
def test_a_generated_scenario_builds_or_is_a_usage_error_and_runs_cleanly(drawn, seed, count):
    builder, p = drawn
    scn = parse_scenario({"name": "generated", "builder": builder, "params": p,
                          "plan": {"seed": seed, "count": count}})
    try:
        build_case(scn)
    except ScenarioError:
        return
    report = run_scenario_obj(scn)
    for rec in report["checks"]:
        where = (builder, p, seed, count, rec["name"])
        if rec["pass"]:
            assert math.isfinite(rec["max_residual"]) and "error" not in rec, where
        if "error" not in rec:
            assert rec["points_used"] + rec["points_excluded"] == count, where
    assert _without_timings(run_scenario_obj(scn)) == _without_timings(report)
