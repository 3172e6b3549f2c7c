"""Lee-form extraction, homothetic residuals, O'Neill tensors and the
pointwise classifier, including one input per verdict, and the structure
equations of the holomorphic verdict (paper_claims.structure_point)."""

import numpy as np

from kahlerkit.jets import SamplePlan, jsin, pack
from kahlerkit.fields import ChartManifold, Field, PointEval, worst
from kahlerkit.hermitian import HermitianTriple
from kahlerkit.foliation import (VERDICT_FAILED, VERDICT_GEODESIC,
                                 VERDICT_HOLOMORPHIC, VERDICT_PRODUCT,
                                 classify_point, extract_theta,
                                 foliation_report, homothetic_point, theta_jets)
from kahlerkit.calabi import CalabiProfile, build_calabi, disk_base
from kahlerkit.twist import build_twist, coordinate_twist
from helpers import J4, fold_plan, product_triple
from paper_claims import structure_point


def classify(t, Pp, plan):
    """The classifier's fold over the plan's samples of t's chart, then its
    verdict, points used and points excluded."""
    res = fold_plan(t.chart, plan, lambda pe: classify_point(t, Pp, pe))
    return (res,) + foliation_report(res)


def make_calabi(k=0):
    base, alpha = disk_base(k)
    prof = CalabiProfile(A=-1.0, z_range=(0.5, 2.0), s_range=(-1.0, 1.0))
    return build_calabi(base, prof, alpha=alpha)


def test_lee_form_matches_log_moment_coordinate():
    cal = make_calabi(0)
    s = cal.proj_plus
    for p in cal.chart.samples(SamplePlan(3, 15)):
        pe = PointEval(p)
        theta = extract_theta(cal, s, pe)
        want = np.zeros(4)
        want[1] = 1.0 / p[1]
        assert np.abs(theta - want).max() < 1e-10
        _, resid, thetaV, cols = theta_jets(cal, s, pe)
        assert resid < 1e-12
        assert cols == (0, 1)


def test_homothetic_residual_report():
    cal = make_calabi(1)
    rep = fold_plan(cal.chart, SamplePlan(4, 12),
                    lambda pe: homothetic_point(cal, cal.proj_plus, pe))
    assert rep.max("homothetic") < 1e-12
    assert rep.max("dtheta") < 1e-12
    assert rep.points == 12


def structure(t, Pp, plan):
    """The fold of paper_claims.structure_point over the plan's samples."""
    return fold_plan(t.chart, plan, lambda pe: structure_point(t, Pp, pe))


def test_classify_calabi_is_holomorphic():
    cal = make_calabi(1)
    plan = SamplePlan(5, 12)
    res, verdict, used, skipped = classify(cal, cal.proj_plus, plan)
    assert verdict == VERDICT_HOLOMORPHIC
    assert res.max("homothetic") < 1e-10
    assert res.max("ring") < 1e-9
    assert res.max("geodesic") < 1e-9
    st = structure(cal, cal.proj_plus, plan)
    assert st.max("holomorphy") < 1e-9
    assert worst(st.max("chi1"), st.max("lie_fit")) < 1e-8
    assert st.used("holomorphy") == st.used("chi1") == st.used("lie_fit") == 12
    hom = fold_plan(cal.chart, plan, lambda pe: homothetic_point(cal, cal.proj_plus, pe))
    assert hom.max("dtheta") < 1e-10
    assert hom.used("dtheta") == 12
    # theta is genuinely nonzero and the foliation is not a product
    assert res.max("theta_max") > 0.4
    assert res.max("xi") > 1e-3
    assert used == 12
    assert skipped == 0


def test_classify_twisted_calabi_stays_holomorphic():
    cal = make_calabi(1)
    tt = build_twist(cal, coordinate_twist(2, 3))
    res, verdict, _, _ = classify(tt, cal.proj_plus, SamplePlan(6, 10))
    assert verdict == VERDICT_HOLOMORPHIC
    assert res.max("homothetic") < 1e-7
    assert res.max("ring") < 1e-7
    st = structure(tt, cal.proj_plus, SamplePlan(6, 10))
    assert worst(st.max("chi1"), st.max("lie_fit")) < 1e-5
    assert st.used("chi1") == st.used("lie_fit") == 10


def test_classify_product_metric():
    t, s = product_triple()
    res, verdict, _, skipped = classify(t, s, SamplePlan(7, 10))
    assert verdict == VERDICT_PRODUCT
    assert res.max("theta_max") < 1e-12
    assert res.max("xi") < 1e-12
    # every point sits below the theta floor, so the chi_1 stage skips all
    assert skipped == 10


def heisenberg_triple():
    # circle bundle times a line: eta = dt - x1 dx2, g = eta^2 + flat rest,
    # vertical D+ = span(d/dt, d/dx3); a Riemannian non-product foliation
    # with totally geodesic leaves and vanishing Lee form
    chart = ChartManifold(4, [(-1.0, 1.0)] * 4)

    def g(pt):
        x1 = pt[1]
        return [[1.0, 0.0, x1 * (-1.0), 0.0],
                [0.0, 1.0, 0.0, 0.0],
                [x1 * (-1.0), 0.0, 1.0 + x1 * x1, 0.0],
                [0.0, 0.0, 0.0, 1.0]]

    return HermitianTriple(g, lambda pt: J4, chart), Field(lambda pt: np.diag([1.0, 0.0, 0.0, 1.0]))


def test_classify_geodesic_riemannian_foliation():
    t, s = heisenberg_triple()
    res, verdict, _, _ = classify(t, s, SamplePlan(8, 10))
    assert verdict == VERDICT_GEODESIC
    assert res.max("theta_max") < 1e-12
    assert res.max("geodesic") < 1e-10
    assert res.max("xi") > 0.1


def test_classify_flags_broken_homothety():
    cal = make_calabi(1)
    gfn = cal.g.fn
    bump = np.zeros((4, 4))
    bump[2, 2] = 0.3

    def broken(pt):
        return pack(gfn(pt)) + jsin(pt[1]) * bump
    t = HermitianTriple(broken, cal.J.fn, cal.chart)
    res, verdict, _, _ = classify(t, cal.proj_plus, SamplePlan(9, 10))
    assert verdict == VERDICT_FAILED
    assert res.max("homothetic") > 1e-3


def test_verdicts_stable_under_resampling():
    cal = make_calabi(1)
    s = cal.proj_plus
    a = classify(cal, s, SamplePlan(21, 10))[1]
    b = classify(cal, s, SamplePlan(22, 30))[1]
    assert a == b == VERDICT_HOLOMORPHIC


def test_structure_equation_checks_report_shape():
    cal = make_calabi(0)
    st = structure(cal, cal.proj_plus, SamplePlan(10, 8))
    assert st.max("wedge_minus") < 1e-9
    assert st.max("holomorphy") < 1e-9
    assert st.max("chi1") < 1e-8
    assert st.max("lie_fit") < 1e-8
    assert st.used("wedge_minus") == 8
    assert st.excluded.get("wedge_minus", 0) == 0


def test_classify_fails_on_nonfinite_gate_residual(monkeypatch):
    import kahlerkit.foliation as foliation
    t, s = product_triple()
    assert classify(t, s, SamplePlan(7, 5))[1] == VERDICT_PRODUCT
    calls = []
    real = foliation.dplus_geodesic_residual

    def nan_at_second_point(xi, Ppv):
        # NaN at the second point, in the batch and in its point-by-point replay
        r = real(xi, Ppv)
        if len(r) > 1:
            return np.where(np.arange(len(r)) == 1, np.nan, r)
        calls.append(1)
        return float("nan") if len(calls) == 2 else r
    monkeypatch.setattr(foliation, "dplus_geodesic_residual", nan_at_second_point)
    assert classify(t, s, SamplePlan(7, 5))[1] == VERDICT_FAILED
