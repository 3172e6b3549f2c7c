"""Twist deformations: unchanged fundamental forms, Lee-norm factors,
integrability against transverse holomorphy, parameter recovery, and the
twisted Ricci-form identity."""

import numpy as np
import pytest

from kahlerkit.jets import Jet2, JetDomainError, SamplePlan
from kahlerkit.fields import Field, Fold, PointEval, metric_jets, worst
from kahlerkit.foliation import classify_point, homothetic_point
from kahlerkit.hermitian import kahler_point
from kahlerkit.calabi import CalabiProfile, build_calabi, disk_base
from kahlerkit.twist import (build_twist, build_twist_fields,
                             constant_twist, form_invariance_point, coordinate_twist, mobius,
                             mobius_inv, norm_factor_expected,
                             norm_factor_measured, ricci_identity_check,
                             solve_single_twist,
                             transverse_holomorphy_point,
                             zeta_duality_residual)
from helpers import fold_plan, nijenhuis_at


def make_cal(k=1):
    base, alpha = disk_base(k)
    prof = CalabiProfile(A=-1.0, z_range=(0.5, 2.0), s_range=(-1.0, 1.0))
    return build_calabi(base, prof, alpha=alpha)


def values(fn, p):
    x = Jet2.seed(np.asarray(p, float))
    out = fn(x)
    return np.array([[e.value for e in row] for row in out])


def test_zero_twist_is_exact_identity():
    cal = make_cal()
    tt = build_twist(cal, constant_twist(0.0))
    for p in cal.chart.samples(SamplePlan(1, 5)):
        g1, _, _ = metric_jets(cal.g.fn, p)
        g2, _, _ = metric_jets(tt.g_w.fn, p)
        J1, _, _ = metric_jets(cal.J.fn, p)
        J2, _, _ = metric_jets(tt.J_w.fn, p)
        assert np.abs(g1 - g2).max() == 0.0
        assert np.abs(J1 - J2).max() == 0.0


def test_fundamental_forms_unchanged():
    # both structures keep their fundamental two-forms under the deformation
    cal = make_cal()
    for tw in (constant_twist(0.3, 0.4), coordinate_twist(2, 3)):
        tt = build_twist(cal, tw)
        for p in cal.chart.samples(SamplePlan(2, 8)):
            g = values(cal.g.fn, p)
            gw = values(tt.g_w.fn, p)
            J = values(cal.J.fn, p)
            Jw = values(tt.J_w.fn, p)
            I0 = values(cal.I0.fn, p)
            Iw = values(tt.I_w.fn, p)
            assert np.abs(Jw.T @ gw - J.T @ g).max() < 1e-9
            assert np.abs(Iw.T @ gw - I0.T @ g).max() < 1e-9


def test_mode_a_also_preserves_forms():
    cal = make_cal()
    tt = build_twist(cal, constant_twist(0.2, -0.3), mode="A")
    for p in cal.chart.samples(SamplePlan(3, 5)):
        g = values(cal.g.fn, p)
        gw = values(tt.g_w.fn, p)
        J = values(cal.J.fn, p)
        Jw = values(tt.J_w.fn, p)
        assert np.abs(Jw.T @ gw - J.T @ g).max() < 1e-9


def test_bad_mode_rejected():
    cal = make_cal()
    with pytest.raises(ValueError):
        build_twist_fields(cal.g, [cal.J], cal.proj_plus, constant_twist(0.1),
                           cal.theta, cal.chart, mode="C")


def test_norm_factor_closed_forms():
    assert abs(norm_factor_expected(0.0, 0.0) - 1.0) < 1e-15
    assert abs(norm_factor_expected(0.5, 0.0) - 3.0) < 1e-15
    assert abs(norm_factor_expected(0.3, 0.4) - 37.0 / 15.0) < 1e-15
    assert abs(norm_factor_expected(0.5, 0.0, mode="A") - 1.0 / 3.0) < 1e-15


def test_norm_factor_measured_matches_expected():
    cal = make_cal()
    cases = [(0.0, 0.0), (0.5, 0.0), (0.3, 0.4)]
    for w1, w2 in cases:
        tt = build_twist(cal, constant_twist(w1, w2))
        for p in cal.chart.samples(SamplePlan(4, 6)):
            got = norm_factor_measured(cal.g.fn, tt.g_w.fn, cal.theta.fn, PointEval(p))
            assert abs(got - norm_factor_expected(w1, w2)) < 1e-9
    # position-dependent twist: compare pointwise
    tw = coordinate_twist(2, 3)
    tt = build_twist(cal, tw)
    for p in cal.chart.samples(SamplePlan(5, 6)):
        x = Jet2.seed(np.asarray(p, float))
        w1, w2 = tw.fn(x)
        got = norm_factor_measured(cal.g.fn, tt.g_w.fn, cal.theta.fn, PointEval(p))
        assert abs(got - norm_factor_expected(w1.value, w2.value)) < 1e-9


def test_integrability_iff_transverse_holomorphy():
    cal = make_cal()
    plan = SamplePlan(6, 6)
    # holomorphic dependence on the base coordinate: both residuals vanish
    tw = coordinate_twist(2, 3)
    tr = fold_plan(cal.chart, plan, lambda pe: transverse_holomorphy_point(
        cal.J.fn, cal.proj_plus.fn, tw.fn, pe))
    assert tr.max() < 1e-12
    tt = build_twist(cal, tw)
    nij = 0.0
    for p in cal.chart.samples(plan):
        nij = max(nij, np.abs(nijenhuis_at(PointEval(p), tt.J_w.fn)).max())
    assert nij < 1e-7
    t = tt.triple()
    v = fold_plan(cal.chart, SamplePlan(7, 6), lambda pe: worst(*kahler_point(t, pe).values()))
    assert v.max() <= 1e-7

    # conjugated dependence: both residuals blow up together
    twc = coordinate_twist(2, 3, conj=True)
    trc = fold_plan(cal.chart, plan, lambda pe: transverse_holomorphy_point(
        cal.J.fn, cal.proj_plus.fn, twc.fn, pe))
    assert trc.max() > 1.0
    ttc = build_twist(cal, twc)
    worstc = 0.0
    for p in cal.chart.samples(plan):
        worstc = max(worstc, np.abs(nijenhuis_at(PointEval(p), ttc.J_w.fn)).max())
    assert worstc > 1.0
    tc = ttc.triple()
    vc = fold_plan(cal.chart, SamplePlan(7, 6), lambda pe: kahler_point(tc, pe))
    assert not worst(*(vc.max(k) for k in vc.values)) <= 1e-7
    assert vc.max("compatible") < 1e-12
    assert vc.max("closed") < 1e-12
    assert vc.max("integrable") > 1.0


def test_zeta_duality():
    cal = make_cal()
    for tw in (constant_twist(0.3, 0.4), coordinate_twist(2, 3)):
        tt = build_twist(cal, tw)
        for p in cal.chart.samples(SamplePlan(8, 6)):
            r = zeta_duality_residual(cal.g.fn, cal.J.fn, tt.g_w.fn,
                                      tt.J_w.fn, cal.theta.fn, PointEval(p))
            assert r < 1e-8


def test_single_twist_parameter_recovery():
    cal = make_cal()
    p = [0.2, 1.1, 0.1, -0.15]
    for w1, w2 in [(0.25, -0.35), (0.0, 0.5), (-0.3, 0.1)]:
        tt = build_twist(cal, constant_twist(w1, w2))
        got1, got2 = (w[0] for w in solve_single_twist(cal.g.fn, tt.g_w.fn, cal.J.fn,
                                                       cal.proj_plus.fn, cal.theta.fn, PointEval(p)))
        assert abs(got1 - w1) < 1e-10
        assert abs(got2 - w2) < 1e-10
    # position-dependent case recovers the pointwise value
    tw = coordinate_twist(2, 3)
    tt = build_twist(cal, tw)
    got1, got2 = (w[0] for w in solve_single_twist(cal.g.fn, tt.g_w.fn, cal.J.fn,
                                                   cal.proj_plus.fn, cal.theta.fn, PointEval(p)))
    assert abs(got1 - p[2]) < 1e-10
    assert abs(got2 - p[3]) < 1e-10


def test_mobius_family():
    rng = np.random.default_rng(17)
    for _ in range(100):
        w = complex(*rng.uniform(-0.28, 0.28, size=2))
        wt = mobius(w)
        assert abs(mobius(wt) - w) < 1e-14
        assert abs(mobius_inv(wt) - w) < 1e-14
    with pytest.raises(ValueError):
        mobius(1.2)
    with pytest.raises(ValueError):
        mobius_inv(-0.6)


def _fold_s(S, p):
    """A fold of max |S| over the points p, as one batch."""
    acc = Fold()
    acc.add(PointEval(p), lambda pe: pe.absmax(pe.raw(S).value))
    return acc


def test_the_s_field_guards_the_disc_and_the_frame():
    # a twist beyond DISC, or a vanishing theta (which leaves no D+ frame),
    # stops a fold of S at the first point, with a domain error naming it
    cal = make_cal()
    p = cal.chart.samples(SamplePlan(9, 5))

    def flat_theta(pt):
        return np.zeros(4)
    for tw, theta, why in (
            (constant_twist(0.9999999), cal.theta, "twist leaves the disc: |w|^2 = 0.99999980"),
            (constant_twist(0.1), flat_theta, "degenerate twist frame (|det E| = 0.00e+00)")):
        S = build_twist_fields(cal.g, [cal.J], cal.proj_plus, tw, theta, cal.chart)[2]
        acc = _fold_s(S, p)
        assert acc.points == 0 and acc.values == {}
        assert isinstance(acc.exc, JetDomainError)
        assert acc.error == "JetDomainError at point %s: %s" % (p[0].round(8).tolist(), why)


def test_a_nan_twist_passes_no_twisted_check():
    # NaN > DISC is false, so a NaN |w|^2 used to pass the disc guards: the
    # twisted checks failed on a non-finite residual and transverse
    # holomorphy, which reads w's gradient only, passed.  Now every twisted
    # check stops at the first point with a domain error that names it
    cal = make_cal()
    tw = constant_twist(float("nan"))
    tt = build_twist(cal, tw)
    twt, Pp = tt.triple(), cal.proj_plus
    checks = [
        lambda pe: form_invariance_point(cal, tt, pe),
        lambda pe: norm_factor_measured(cal.g, tt.g_w, cal.theta, pe),
        lambda pe: transverse_holomorphy_point(cal.J, Pp, tw, pe),
        lambda pe: nijenhuis_at(pe, tt.J_w),
        lambda pe: homothetic_point(twt, Pp, pe)["homothetic"],
        lambda pe: ricci_identity_check(cal, tw, tt, pe)["corrected"],
        lambda pe: zeta_duality_residual(cal.g, cal.J, tt.g_w, tt.J_w, cal.theta, pe),
        lambda pe: classify_point(twt, Pp, pe),
        lambda pe: pe.absmax(pe.raw(tt.S).value),
    ]
    p = cal.chart.samples(SamplePlan(3, 4))
    for fn in checks:
        acc = Fold()
        acc.add(PointEval(p), fn)
        assert acc.points == 0 and acc.values == {}
        assert acc.error.startswith("JetDomainError at point %s: twist leaves the disc"
                                    % p[0].round(8).tolist())


def test_plan_check_and_s_guard_share_the_disc():
    # |w|^2 = 1 - 1.5e-6 lies inside the disc for a fold of S over the plan
    # and for the S field at one point; 1 - 0.5e-6 lies outside for both
    cal = make_cal()
    p = cal.chart.samples(SamplePlan(9, 3))
    x = Jet2.seed(np.array([0.0, 1.0, 0.1, 0.1]))
    inside = build_twist(cal, constant_twist(np.sqrt(1.0 - 1.5e-6))).S
    acc = _fold_s(inside, p)
    assert acc.error == "" and acc.points == 3 and np.isfinite(acc.max())
    assert np.isfinite(inside.fn(x).value).all()
    outside = build_twist(cal, constant_twist(np.sqrt(1.0 - 0.5e-6))).S
    assert _fold_s(outside, p).error.startswith(
        "JetDomainError at point %s: twist leaves the disc" % p[0].round(8).tolist())
    with pytest.raises(JetDomainError, match="twist leaves the disc"):
        outside.fn(x)


def test_twist_leaving_disc_raises_at_evaluation():
    cal = make_cal()
    tt = build_twist(cal, coordinate_twist(2, 3, scale=5.0))
    with pytest.raises(JetDomainError):
        tt.g_w.fn(Jet2.seed(np.array([0.0, 1.0, 0.4, 0.3])))


def test_every_twisted_field_guards_the_disc():
    # the guard sits in the shared S field, so J_w, I_w and S raise on their
    # own, not only g_w; on the unit circle too, where 1/(1 - |w|^2) would
    # divide by zero if it were formed before the guard ran
    cal = make_cal()
    x = Jet2.seed(np.array([0.0, 1.0, 0.1, 0.1]))
    for c in (1.3, 1.0):
        tt = build_twist(cal, constant_twist(c))
        for field in (tt.g_w, tt.J_w, tt.I_w, tt.S):
            with pytest.raises(JetDomainError, match="twist leaves the disc"):
                field.fn(x)
    inside = build_twist(cal, constant_twist(0.3))
    assert np.isfinite(values(inside.J_w.fn, x.value)).all()


def test_ricci_identity_corrected_form_holds():
    cal = make_cal()
    pts = list(cal.chart.samples(SamplePlan(10, 5)))
    for tw in (constant_twist(0.0), constant_twist(0.3, 0.4),
               coordinate_twist(2, 3)):
        tt = build_twist(cal, tw)
        for p in pts:
            res = ricci_identity_check(cal, tw, tt, PointEval(p))
            assert res["corrected"] < 1e-6
            # the fiber correction this identity needs is genuinely large
            assert res["correction_size"] > 0.05


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="two-term form of the twisted Ricci "
                   "identity omits the fiber term; measured residual is "
                   "order one at every sampled point")
def test_ricci_identity_two_term_form():
    cal = make_cal()
    tt = build_twist(cal, coordinate_twist(2, 3))
    worst = 0.0
    for p in cal.chart.samples(SamplePlan(11, 5)):
        res = ricci_identity_check(cal, coordinate_twist(2, 3), tt, PointEval(p))
        worst = max(worst, res["printed"])
    assert worst < 1e-6


def test_ricci_identity_two_term_gap_is_pinned():
    # companion to the expected failure above: the residual of the two-term
    # form stays bounded away from zero, for the zero twist as well
    cal = make_cal()
    for tw in (constant_twist(0.0), coordinate_twist(2, 3)):
        tt = build_twist(cal, tw)
        p = [0.2, 1.1, 0.1, -0.15]
        res = ricci_identity_check(cal, tw, tt, PointEval(p))
        assert res["printed"] > 1e-2


def test_twist_map_labels():
    assert constant_twist(0.3, 0.4).label == "const(0.3,0.4)"
    assert coordinate_twist(2, 3).label == "zeta[2,3]"
    assert coordinate_twist(2, 3, conj=True).label == "conj_zeta[2,3]"
    tm = Field(lambda pt: (pt[0], pt[1]), label="custom")
    assert tm.label == "custom"
