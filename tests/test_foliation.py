"""Lee-form extraction, homothetic residuals, O'Neill tensors and the
pointwise classifier, including one input per verdict."""

import numpy as np
import pytest

from kahlerkit.jets import SamplePlan, jconst, jsin, jsize, pack
from kahlerkit.fields import ChartManifold, Field
from kahlerkit.hermitian import HermitianTriple
from kahlerkit.foliation import (VERDICT_FAILED, VERDICT_GEODESIC,
                                 VERDICT_HOLOMORPHIC, VERDICT_PRODUCT,
                                 classify, extract_theta,
                                 homothetic_residual,
                                 structure_equation_checks, theta_jets)
from kahlerkit.calabi import CalabiProfile, build_calabi, disk_base, flat_base
from kahlerkit.twist import build_twist, coordinate_twist


def make_calabi(k=0):
    base, alpha = (flat_base() if k == 0 else disk_base(k))
    prof = CalabiProfile(A=-1.0, z_range=(0.5, 2.0), s_range=(-1.0, 1.0))
    return build_calabi(base, prof, alpha=alpha)


def test_lee_form_matches_log_moment_coordinate():
    cal = make_calabi(0)
    t = cal.triple()
    s = cal.proj_plus
    for p in cal.chart.samples(SamplePlan(3, 15)):
        theta = extract_theta(t, s, p)
        want = np.zeros(4)
        want[1] = 1.0 / p[1]
        assert np.abs(theta - want).max() < 1e-10
        _, resid, thetaV, cols = theta_jets(t, s, p)
        assert resid < 1e-12
        assert cols == (0, 1)


def test_homothetic_residual_report():
    cal = make_calabi(1)
    rep = homothetic_residual(cal.triple(), cal.proj_plus, SamplePlan(4, 12))
    assert rep["homothetic"] < 1e-12
    assert rep["dtheta"] < 1e-12
    assert rep["points"] == 12


def test_classify_calabi_is_holomorphic():
    cal = make_calabi(1)
    rep = classify(cal.triple(), cal.proj_plus, SamplePlan(5, 12))
    assert rep.verdict == VERDICT_HOLOMORPHIC
    assert rep.homothetic_residual < 1e-10
    assert rep.oneill_ring_residual < 1e-9
    assert rep.dplus_totally_geodesic_residual < 1e-9
    assert rep.holomorphy_residual < 1e-9
    assert rep.chi1_consistency_residual < 1e-8
    assert rep.theta_closed_residual < 1e-10
    # theta is genuinely nonzero and the foliation is not a product
    assert rep.diagnostics["theta_max"] > 0.4
    assert rep.diagnostics["xi_total"] > 1e-3
    assert rep.points_used == 12
    assert rep.points_excluded == 0


def test_classify_twisted_calabi_stays_holomorphic():
    cal = make_calabi(1)
    tt = build_twist(cal, coordinate_twist(2, 3))
    rep = classify(tt.triple(), cal.proj_plus, SamplePlan(6, 10))
    assert rep.verdict == VERDICT_HOLOMORPHIC
    assert rep.homothetic_residual < 1e-7
    assert rep.oneill_ring_residual < 1e-7
    assert rep.chi1_consistency_residual < 1e-5


def product_triple():
    disk, _ = disk_base(1)
    chart = ChartManifold(4, [(-1.0, 1.0), (-1.0, 1.0)] + list(disk.chart.domain))

    def g(pt):
        n = jsize(pt)
        zero = jconst(0.0, n)
        gb = disk.g(pt[2:])
        return [[jconst(1.0, n), zero, zero, zero],
                [zero, jconst(1.0, n), zero, zero],
                [zero, zero, gb[0][0], gb[0][1]],
                [zero, zero, gb[1][0], gb[1][1]]]

    def J(pt):
        n = jsize(pt)
        zero = jconst(0.0, n)
        one = jconst(1.0, n)
        return [[zero, one * (-1.0), zero, zero],
                [one, zero, zero, zero],
                [zero, zero, zero, one * (-1.0)],
                [zero, zero, one, zero]]

    def Pp(pt):
        n = jsize(pt)
        zero = jconst(0.0, n)
        one = jconst(1.0, n)
        return [[one, zero, zero, zero],
                [zero, one, zero, zero],
                [zero, zero, zero, zero],
                [zero, zero, zero, zero]]
    return HermitianTriple(g, J, chart), Field(Pp)


def test_classify_product_metric():
    t, s = product_triple()
    rep = classify(t, s, SamplePlan(7, 10))
    assert rep.verdict == VERDICT_PRODUCT
    assert rep.diagnostics["theta_max"] < 1e-12
    assert rep.diagnostics["xi_total"] < 1e-12
    # every point sits below the theta floor, so the chi_1 stage skips all
    assert rep.points_excluded == 10


def heisenberg_triple():
    # circle bundle times a line: eta = dt - x1 dx2, g = eta^2 + flat rest,
    # vertical D+ = span(d/dt, d/dx3); a Riemannian non-product foliation
    # with totally geodesic leaves and vanishing Lee form
    chart = ChartManifold(4, [(-1.0, 1.0)] * 4)

    def g(pt):
        n = jsize(pt)
        x1 = pt[1]
        zero = jconst(0.0, n)
        one = jconst(1.0, n)
        return [[one, zero, x1 * (-1.0), zero],
                [zero, one, zero, zero],
                [x1 * (-1.0), zero, one + x1 * x1, zero],
                [zero, zero, zero, one]]

    def J(pt):
        n = jsize(pt)
        zero = jconst(0.0, n)
        one = jconst(1.0, n)
        return [[zero, one * (-1.0), zero, zero],
                [one, zero, zero, zero],
                [zero, zero, zero, one * (-1.0)],
                [zero, zero, one, zero]]

    def Pp(pt):
        n = jsize(pt)
        zero = jconst(0.0, n)
        one = jconst(1.0, n)
        return [[one, zero, zero, zero],
                [zero, zero, zero, zero],
                [zero, zero, zero, zero],
                [zero, zero, zero, one]]
    return HermitianTriple(g, J, chart), Field(Pp)


def test_classify_geodesic_riemannian_foliation():
    t, s = heisenberg_triple()
    rep = classify(t, s, SamplePlan(8, 10))
    assert rep.verdict == VERDICT_GEODESIC
    assert rep.diagnostics["theta_max"] < 1e-12
    assert rep.dplus_totally_geodesic_residual < 1e-10
    assert rep.diagnostics["xi_total"] > 0.1


def test_classify_flags_broken_homothety():
    cal = make_calabi(1)
    gfn = cal.g.fn
    bump = np.zeros((4, 4))
    bump[2, 2] = 0.3

    def broken(pt):
        return pack(gfn(pt)) + jsin(pt[1]) * bump
    t = HermitianTriple(broken, cal.J.fn, cal.chart)
    rep = classify(t, cal.proj_plus, SamplePlan(9, 10))
    assert rep.verdict == VERDICT_FAILED
    assert rep.homothetic_residual > 1e-3


def test_verdicts_stable_under_resampling():
    cal = make_calabi(1)
    t = cal.triple()
    s = cal.proj_plus
    a = classify(t, s, SamplePlan(21, 10))
    b = classify(t, s, SamplePlan(22, 30))
    assert a.verdict == b.verdict == VERDICT_HOLOMORPHIC


def test_structure_equation_checks_report_shape():
    cal = make_calabi(0)
    st = structure_equation_checks(cal.triple(), cal.proj_plus, SamplePlan(10, 8))
    assert st["wedge_minus"] < 1e-9
    assert st["holomorphy"] < 1e-9
    assert st["chi1"] < 1e-8
    assert st["lie_fit"] < 1e-8
    assert st["points_used"] == 8
    assert st["points_excluded"] == 0


def test_classify_fails_on_nonfinite_gate_residual(monkeypatch):
    import kahlerkit.foliation as foliation
    t, s = product_triple()
    assert classify(t, s, SamplePlan(7, 5)).verdict == VERDICT_PRODUCT
    calls = []
    real = foliation.dplus_geodesic_residual

    def nan_at_second_point(xi, Ppv):
        calls.append(1)
        return float("nan") if len(calls) == 2 else real(xi, Ppv)
    monkeypatch.setattr(foliation, "dplus_geodesic_residual", nan_at_second_point)
    assert classify(t, s, SamplePlan(7, 5)).verdict == VERDICT_FAILED
