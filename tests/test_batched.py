"""Point-batched evaluation: a chart's whole plan in one PointEval gives the
per-point residuals of batches of one point, and a failing batch is replayed
point by point."""

import numpy as np
import pytest

from kahlerkit.calabi import alpha_primitive_point, disk_base
from kahlerkit.fields import ChartManifold, Field, Fold, PointEval, excluded
from kahlerkit.almost_kahler import iterate_chain
from kahlerkit.jets import Jet2, JetDomainError, SamplePlan, jeinsum, jinv, jlog, jsin, pack
from kahlerkit.scenarios import (Case, Check, build_case, load_scenario, parse_scenario,
                                 run_scenario_obj)

BUNDLED = ["flat", "sphere", "calabi_flat", "calabi_twist_zeta", "calabi_chain_untwisted",
           "calabi_chain_twisted", "ak_flat", "ak_disk", "ak_disk_chain2"]


def _expressions(x):
    """Jets built from the coordinate jets x by every rule, mixing scalars,
    vectors, matrices, constants and constant jets (lifted at x's batch)."""
    n = len(x)
    s = x[0] * x[1] + 2.0
    M = pack([[x[i] * x[j] + (3.0 if i == j else 0.0) for j in range(n)] for i in range(n)])
    C = pack(np.arange(n * n, dtype=float).reshape(n, n) / n, x)
    yield s * M                                 # scalar times matrix
    yield M * s + C - s
    yield np.eye(n) - s                          # constant minus scalar
    yield (1.0 / s) * np.ones((n, n)) + M.T
    yield s ** 3 / (x[2] + 1.5) + s ** 0
    yield jlog(s) + jlog(x[1] + 1.0) * jsin(x[2]) - jsin(s) ** 2
    yield jeinsum("ij,jk->ik", M, C) + M @ x + x @ M @ x
    yield jinv(M) @ (x * s)
    yield pack([x[2:], s * x[:2]])[:, 1]
    yield pack([[x[0], s], [s, x[1] ** 2]])[1]
    yield sum(x) * sum(M)


def test_every_rule_on_a_batch_equals_the_rule_at_each_point():
    pts = np.random.default_rng(3).uniform(0.2, 0.9, (5, 4))
    batch = list(_expressions(Jet2.seed(pts)))
    for i, p in enumerate(pts):
        for got, want in zip(batch, _expressions(Jet2.seed(p))):
            assert len(got.value) == 5 and len(want.value) == 1 and got.shape == want.shape
            # jinv is first order, and so is what it enters
            assert (got._hess is None) == (want._hess is None)
            parts = ("value", "grad") + (("hess",) if want._hess is not None else ())
            for part in parts:
                np.testing.assert_allclose(getattr(got, part)[i], getattr(want, part)[0],
                                           rtol=1e-14, atol=1e-14)
PLANS = [None, (4, 6)]      # the bundled plan, and seed 4 with 6 samples


def _agree(got, want):
    # the golden reports' residual tolerance
    return abs(got - want) <= 1e-12 + 1e-9 * abs(want)


def _folds(chart, plan, fn):
    """The fold of fn over the chart's samples of plan as one batch, and as
    batches of one point."""
    samples = chart.samples(plan)
    whole = Fold()
    whole.add(PointEval(samples), fn)
    single = Fold()
    for p in samples:
        single.add(PointEval(p[None]), fn)
    return whole, single


def _same_residuals(whole, single):
    assert whole.error == single.error == ""
    assert whole.points == single.points
    assert whole.excluded == single.excluded
    assert whole.values.keys() == single.values.keys()
    for key, vals in single.values.items():
        assert len(whole.values[key]) == len(vals)
        assert all(_agree(a, b) for a, b in zip(whole.values[key], vals)), key


@pytest.mark.parametrize("plan", PLANS)
@pytest.mark.parametrize("name", BUNDLED)
def test_one_batch_gives_the_residuals_of_single_points(name, plan):
    scn = load_scenario(name)
    if plan is not None:
        scn.seed, scn.count = plan
    case = build_case(scn)
    for ck in case.checks:
        for chart, at in ck.parts:
            whole, single = _folds(chart, SamplePlan(scn.seed, scn.count, scn.margin), at)
            _same_residuals(whole, single)


def _guards():
    for k in (0, 1, 2):
        base, alpha = disk_base(k)
        yield "disk_base(%d)" % k, base, alpha
    for lv in iterate_chain("twisted", 2)[1:]:
        yield "twisted level %d" % lv.index, lv.triple, lv.alpha


@pytest.mark.parametrize("label, base, alpha", list(_guards()),
                         ids=[g[0] for g in _guards()])
def test_alpha_guard_batch_gives_the_residuals_of_single_points(label, base, alpha):
    # build_calabi's guard: 10 base points at seed 0, one batch
    whole, single = _folds(base.chart, SamplePlan(seed=0, count=10),
                           lambda pe: alpha_primitive_point(alpha, base, pe))
    _same_residuals(whole, single)
    assert whole.used() == 10 and whole.max() < 1e-7


def _single_point_fold(chart, plan, fn):
    acc = Fold()
    for p in chart.samples(plan):
        acc.add(PointEval(p), fn)
    return acc


def _disc_replay(obj):
    """Run the scenario obj, whose twist leaves the disc at some of its
    samples only: every check raises in the batch, and the replay keeps
    exactly the points before the first one outside.  Each record equals the
    fold of its check over batches of one point."""
    scn = parse_scenario(obj)
    case = build_case(scn)
    plan = SamplePlan(scn.seed, scn.count, scn.margin)
    w2 = 9.0 * (case.chart.samples(plan)[:, 2:] ** 2).sum(axis=1)
    first_out = int(np.argmax(w2 > 1.0 - 1e-6))
    assert 0 < first_out and (w2 <= 1.0 - 1e-6).any() and (w2 > 1.0 - 1e-6).any()
    report = {rec["name"]: rec for rec in run_scenario_obj(scn, case=case)["checks"]}
    for ck in case.checks:
        (chart, at), = ck.parts
        single = Fold()
        for p in chart.samples(plan):
            single.add(PointEval(p[None]), at)
        rec = report[ck.name]
        assert single.error.startswith("JetDomainError at point [")
        assert "twist leaves the disc" in single.error
        assert rec["error"] == single.error
        assert rec["points_used"] == first_out
        assert (rec["points_used"], rec["points_excluded"], rec["max_residual"],
                rec["mean_residual"], rec["error"]) == ck.record(single)
        # a fold over unbatched points names the same point the same way
        assert _single_point_fold(chart, plan, at).error == single.error


def test_twist_leaving_the_disc_at_some_points_replays_the_batch():
    # scale 3 takes the disk coordinate past the unit circle at some samples
    _disc_replay({"name": "ak_big_twist", "builder": "ak_product",
                  "params": {"z": "disk", "k": 1,
                             "twist": {"id": "coord_z", "scale": 3.0}},
                  "plan": {"seed": 7, "count": 12}})


def test_calabi_twist_leaving_the_disc_at_some_points_replays_the_batch():
    # transverse_holomorphy reads w and the untwisted J and P+ only, and
    # checks the disc itself
    _disc_replay({"name": "calabi_big_twist", "builder": "calabi_twist",
                  "params": {"twist": {"id": "coord_z", "scale": 3.0}},
                  "plan": {"seed": 5, "count": 12}})


def test_nonfinite_residual_at_one_point_replays_the_batch():
    case = build_case(load_scenario("flat"))
    plan = SamplePlan(3, 9)
    samples = case.chart.samples(plan)
    bad = samples[5]

    def fn(pe):
        x = pe.p[..., 0]
        r = np.where(np.all(pe.p == bad, axis=-1), np.nan, x * x)
        return {"r": r, "kept": excluded(x > 0.0, x * 0.5)}

    whole = Fold()
    whole.add(PointEval(samples), fn)
    single = Fold()
    for p in samples:
        single.add(PointEval(p[None]), fn)
    unbatched = _single_point_fold(case.chart, plan, fn)
    for acc in (single, unbatched):
        assert whole.error == acc.error
        assert whole.error == "non-finite residual at point %s" % bad.round(8).tolist()
        assert (whole.points, whole.excluded, whole.values.keys()) == \
            (acc.points, acc.excluded, acc.values.keys())
        for key in whole.values:
            assert whole.used(key) == acc.used(key)
            assert np.isnan(whole.max(key)) == np.isnan(acc.max(key))
            assert whole.mean(key) == acc.mean(key) or np.isnan(whole.mean(key))
    assert whole.points == 6 and np.isnan(whole.max("r"))
    assert whole.values["r"][:5].tolist() == [float(x * x) for x in samples[:5, 0]]



def test_a_chain_check_folds_its_levels_in_order_into_one_fold():
    # three levels on three charts, as a chain check has them; level 1 meets
    # a domain error at its fourth sample: the check keeps level 0's points
    # and level 1's first three, in one mean, names the level and the point,
    # and never runs level 2
    scn = parse_scenario({"name": "levels", "builder": "flat", "plan": {"seed": 3, "count": 6}})
    plan = SamplePlan(scn.seed, scn.count, scn.margin)
    charts = [ChartManifold(dim, [(-1.0, 1.0)] * dim, label="level %d" % k)
              for k, dim in enumerate((2, 3, 4))]
    bad = charts[1].samples(plan)[3]
    calls = []

    def level(k):
        def residual(pe):
            calls.append((k, pe.batch))
            if k == 1 and (pe.p == bad).all(axis=1).any():
                raise JetDomainError("outside level 1")
            return pe.p[:, 0] ** 2 + k
        return residual
    check = Check("levels", "three levels", 10.0,
                  tuple((c, level(k)) for k, c in enumerate(charts)))
    case = Case("levels", charts[-1], Field(lambda pt: np.eye(4)), (check,))
    rec, = run_scenario_obj(scn, case=case)["checks"]
    assert rec["error"] == "level 1: JetDomainError at point %s: outside level 1" \
        % bad.round(8).tolist()
    assert rec["points_used"] == 6 + 3 and rec["points_excluded"] == 0
    kept = ([float(x * x) for x in charts[0].samples(plan)[:, 0]]
            + [float(x * x) + 1 for x in charts[1].samples(plan)[:3, 0]])
    assert rec["max_residual"] == max(kept) and rec["mean_residual"] == sum(kept) / 9
    assert rec["pass"] is False
    # level 1's batch, then its replay up to the failing point; no level 2
    assert calls == [(0, 6), (1, 6), (1, 1), (1, 1), (1, 1), (1, 1)]
