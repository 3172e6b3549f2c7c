"""Fibered charts over disk bases: profile formulas, moment map, volume
identities, Lee forms of both complex structures, and biaxial rescaling."""

import numpy as np
import pytest

from kahlerkit.jets import Jet2, SamplePlan, jconst, jexp, jsize
from kahlerkit.fields import NotClosedError, metric_jets
from kahlerkit.hermitian import kahler_verdict
from kahlerkit.foliation import extract_theta
from kahlerkit.calabi import (CalabiProfile, build_calabi, disk_base,
                              disk_u_coefficients, flat_base, lee_form_of_I0,
                              moment_map_residual, rescale_biaxial,
                              volume_checks)


def make_cal(k=1, z_range=(0.5, 2.0), use_alpha=True):
    base, alpha = (flat_base() if k == 0 else disk_base(k))
    prof = CalabiProfile(A=-1.0, z_range=z_range, s_range=(-1.0, 1.0))
    return build_calabi(base, prof, alpha=alpha if use_alpha else None)


def test_profile_validation():
    with pytest.raises(ValueError):
        CalabiProfile(A=0.5)
    with pytest.raises(ValueError):
        CalabiProfile(A=-1.0, z_range=(-0.1, 1.0))
    with pytest.raises(ValueError):
        CalabiProfile(A=-1.0, z_range=(2.0, 1.0))
    prof = CalabiProfile(A=-2.0)
    assert abs(prof.q - 0.5) < 1e-15
    r = 0.7
    assert abs(prof.r_of_z(prof.moment_map_G(r)) - r) < 1e-12


def test_disk_u_coefficients_closed_forms():
    assert np.allclose(disk_u_coefficients(0), [0.5])
    assert np.allclose(disk_u_coefficients(1), [0.5, -0.25])
    assert np.allclose(disk_u_coefficients(2), [0.5, -0.5, 1.0 / 6.0])
    assert np.allclose(disk_u_coefficients(3), [0.5, -0.75, 0.5, -0.125])


def test_disk_alpha_is_primitive_of_base_form():
    # d[u_k (x dy - y dx)] = (1 - x^2 - y^2)^k dx^dy, checked through jets
    for k in range(4):
        base, alpha = disk_base(k)
        for p in base.chart.samples(SamplePlan(k + 1, 10)):
            jets = Jet2.seed(np.asarray(p, float))
            a = alpha.fn(jets)
            ag = np.array([c.grad for c in a])
            d01 = ag[1][0] - ag[0][1]
            want = (1.0 - p[0] ** 2 - p[1] ** 2) ** k
            assert abs(d01 - want) < 1e-12


def test_chart_shape_and_verdicts():
    for k in (0, 1, 2):
        cal = make_cal(k)
        assert cal.chart.dim == 4
        assert cal.m == 2
        v = kahler_verdict(cal.triple(), SamplePlan(2, 15), tolerance=1e-7)
        assert v.is_kahler
        assert max(v.residuals().values()) < 1e-12


def test_second_structure_is_hermitian_not_kahler():
    cal = make_cal(1)
    v = kahler_verdict(cal.triple_I(), SamplePlan(3, 10))
    assert not v.is_kahler
    assert v.compatible < 1e-12
    assert v.integrable < 1e-12
    assert v.closed > 0.5


def test_moment_map():
    for k in (0, 2):
        cal = make_cal(k)
        assert moment_map_residual(cal, SamplePlan(4, 25)) < 1e-12


def test_homotopy_primitive_alpha_variant():
    # dropping the closed-form alpha and letting the chart integrate its own
    # primitive must still give a Kähler structure
    cal = make_cal(2, use_alpha=False)
    v = kahler_verdict(cal.triple(), SamplePlan(5, 10), tolerance=1e-7)
    assert v.is_kahler
    assert moment_map_residual(cal, SamplePlan(6, 10)) < 1e-8


def test_alpha_mismatch_is_rejected():
    base, _ = disk_base(1)
    _, wrong_alpha = disk_base(2)
    prof = CalabiProfile(A=-1.0)
    with pytest.raises(NotClosedError):
        build_calabi(base, prof, alpha=wrong_alpha)


def test_volume_identity_surface_case():
    # top power of omega against both fibered closed-form routes; for the
    # dim-4 chart the coefficient is -2 z (1 - |w|^2)^k
    for k in (0, 1, 2):
        cal = make_cal(k)
        for p in cal.chart.samples(SamplePlan(7, 50)):
            vc = volume_checks(cal, p)
            t = p[2] ** 2 + p[3] ** 2
            want = -2.0 * p[1] * (1.0 - t) ** k
            assert abs(vc["pfaffian"] - want) < 1e-12
            assert vc["residual_z"] < 1e-9
            assert vc["residual_r"] < 1e-9
            assert abs(vc["pfaffian"]) > 1e-15


def test_volume_identity_six_dimensional_case():
    from kahlerkit.almost_kahler import iterate_chain
    levels = iterate_chain("untwisted", 3)
    top = levels[-1]
    assert top.cal is not None
    assert top.cal.chart.dim == 6
    for p in top.cal.chart.samples(SamplePlan(8, 6)):
        vc = volume_checks(top.cal, p)
        assert vc["residual_z"] < 1e-8
        assert vc["residual_r"] < 1e-8
        assert abs(vc["pfaffian"]) > 1e-15


def test_lee_form_of_second_structure_profile_anchors():
    # 20 radii across [0.3, 0.9]: the extracted Lee form of the non-Kähler
    # structure must be 2 dln z, with dr-coefficient and squared norm
    # matching the profile formulas
    prof = CalabiProfile(A=-1.0, z_range=(0.05, 1.4), s_range=(-0.8, 0.8))
    base, alpha = disk_base(1)
    cal = build_calabi(base, prof, alpha=alpha)
    for r in np.linspace(0.3, 0.9, 20):
        z = prof.moment_map_G(r)
        p = [0.1, z, 0.1, -0.2]
        th0, fit = lee_form_of_I0(cal, p)
        assert fit < 1e-10
        assert abs(th0[1] - 2.0 / z) < 1e-8
        assert np.abs(th0[[0, 2, 3]]).max() < 1e-10
        drc = th0[1] * prof.G_prime(r)
        assert abs(drc - prof.lee_dr_coefficient(r)) < 1e-8
        x = Jet2.seed(np.asarray(p, float))
        gv = np.array([[e.value for e in row] for row in cal.g.fn(x)])
        n2 = float(th0 @ np.linalg.inv(gv) @ th0)
        assert abs(n2 - prof.lee_norm_sq(r)) < 1e-8


def test_lee_form_anchor_values_at_half():
    prof = CalabiProfile(A=-1.0, z_range=(0.05, 1.4))
    r = 0.5
    assert abs(prof.lee_dr_coefficient(r) - (-5.7707801635558535)) < 1e-12
    assert abs(prof.lee_norm_sq(r) - 8.325475924022431) < 1e-12


def test_rescale_identity_pair_reproduces_metric():
    cal = make_cal(0)
    one = lambda u: u * 0.0 + 1.0
    hat, resid = rescale_biaxial(cal.triple(), cal.proj_plus, one, one,
                                 profile=cal.profile)
    assert resid == 0.0
    for p in cal.chart.samples(SamplePlan(9, 10)):
        g1, _, _ = metric_jets(cal.g.fn, p)
        g2, _, _ = metric_jets(hat.g, p)
        assert np.abs(g1 - g2).max() == 0.0


def test_rescale_exponential_pair():
    cal = make_cal(1)
    a = lambda u: 2.0 * jexp(u)
    b = lambda u: jexp(u)
    hat, resid = rescale_biaxial(cal.triple(), cal.proj_plus, a, b,
                                 profile=cal.profile)
    assert resid < 1e-12
    v = kahler_verdict(hat, SamplePlan(10, 10), tolerance=1e-7)
    assert v.is_kahler
    s = cal.proj_plus
    for p in cal.chart.samples(SamplePlan(11, 5)):
        t_orig = extract_theta(cal.triple(), s, p)
        t_hat = extract_theta(hat, s, p)
        assert abs(t_hat[1] / t_orig[1] - 2.0) < 1e-12


def test_rescale_rejects_broken_constraint():
    cal = make_cal(0)
    one = lambda u: u * 0.0 + 1.0
    two = lambda u: u * 0.0 + 2.0
    with pytest.raises(NotClosedError):
        rescale_biaxial(cal.triple(), cal.proj_plus, one, two,
                        profile=cal.profile)


def test_rescale_rejects_nonpositive_profile():
    cal = make_cal(0)
    ident = lambda u: u
    with pytest.raises(ValueError):
        rescale_biaxial(cal.triple(), cal.proj_plus, ident, ident,
                        profile=cal.profile)
