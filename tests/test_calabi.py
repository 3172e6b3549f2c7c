"""Fibered charts over disk bases: profile formulas, moment map, volume
identities, Lee forms of both complex structures, biaxial rescaling, and the
curvature of the ansatz against a sympy restatement of it."""

import numpy as np
import pytest
import sympy as sp

from kahlerkit.jets import Jet2, JetDomainError, SamplePlan, jlog
from kahlerkit.fields import Field, NotClosedError, PointEval, metric_jets, worst
from kahlerkit.hermitian import HermitianTriple, kahler_point
from kahlerkit.foliation import extract_theta
from kahlerkit.calabi import (ALPHA_CHECK_COUNT, CalabiProfile, build_calabi, disk_base,
                              disk_u_coefficients, moment_map_point, volume_checks)
from helpers import fold_plan
from paper_claims import lee_form_of_I0, rescale_biaxial


def make_cal(k=1, z_range=(0.5, 2.0)):
    base, alpha = disk_base(k)
    prof = CalabiProfile(A=-1.0, z_range=z_range, s_range=(-1.0, 1.0))
    return build_calabi(base, prof, alpha=alpha)


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
            ag = np.array([c.grad[0] for c in a])
            d01 = ag[1][0] - ag[0][1]
            want = (1.0 - p[0] ** 2 - p[1] ** 2) ** k
            assert abs(d01 - want) < 1e-12


def test_chart_shape_and_verdicts():
    for k in (0, 1, 2):
        cal = make_cal(k)
        assert cal.chart.dim == 4
        assert cal.m == 2
        v = fold_plan(cal.chart, SamplePlan(2, 15),
                      lambda pe: worst(*kahler_point(cal, pe).values()))
        assert v.max() <= 1e-7
        assert v.max() < 1e-12


def test_second_structure_is_hermitian_not_kahler():
    cal = make_cal(1)
    t = HermitianTriple(cal.g, cal.I0, cal.chart)
    v = fold_plan(t.chart, SamplePlan(3, 10), lambda pe: kahler_point(t, pe))
    assert not worst(*(v.max(k) for k in v.values)) <= 1e-7
    assert v.max("compatible") < 1e-12
    assert v.max("integrable") < 1e-12
    assert v.max("closed") > 0.5


def test_moment_map():
    for k in (0, 2):
        cal = make_cal(k)
        res = fold_plan(cal.chart, SamplePlan(4, 25), lambda pe: moment_map_point(cal, pe))
        assert res.max() < 1e-12


def test_alpha_mismatch_is_rejected():
    base, _ = disk_base(1)
    _, wrong_alpha = disk_base(2)
    prof = CalabiProfile(A=-1.0)
    with pytest.raises(NotClosedError):
        build_calabi(base, prof, alpha=wrong_alpha)


def test_alpha_domain_error_names_its_point():
    # the alpha guard re-raises its fold's error: the exception keeps its
    # type and names the first base point that meets it
    base, _ = disk_base(0, radius=0.5)
    alpha = Field(lambda pt: [jlog(pt[0]), 0.0])
    p = base.chart.samples(SamplePlan(seed=0, count=ALPHA_CHECK_COUNT))
    first = p[p[:, 0] <= 0.0][0]
    with pytest.raises(JetDomainError) as exc:
        build_calabi(base, CalabiProfile(A=-1.0), alpha=alpha)
    assert str(exc.value) == "JetDomainError at point %s: log of nonpositive value %s" % (
        first.round(8).tolist(), first[0])


def test_volume_identity_surface_case():
    # top power of omega against both fibered closed-form routes; for the
    # dim-4 chart the coefficient is -2 z (1 - |w|^2)^k
    for k in (0, 1, 2):
        cal = make_cal(k)
        for p in cal.chart.samples(SamplePlan(7, 50)):
            vc = volume_checks(cal, PointEval(p))
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
        vc = volume_checks(top.cal, PointEval(p))
        assert vc["residual_z"] < 1e-8
        assert vc["residual_r"] < 1e-8
        assert abs(vc["pfaffian"]) > 1e-15


def lee_of_I0_at(cal, r):
    """The Lee form of I0 extracted at radius r (z = G(r)), its
    dr-coefficient, its squared norm and the least-squares fit residual."""
    prof = cal.profile
    z = prof.moment_map_G(r)
    p = [0.1, z, 0.1, -0.2]
    th0, fit = (a[0] for a in lee_form_of_I0(cal, PointEval(p)))
    x = Jet2.seed(np.asarray(p, float))
    gv = np.array([[e.value[0] for e in row] for row in cal.g.fn(x)])
    return th0, th0[1] * prof.G_prime(r), float(th0 @ np.linalg.inv(gv) @ th0), fit


def test_lee_form_of_second_structure_profile_anchors():
    # 20 radii across [0.3, 0.9]: the extracted Lee form of the non-Kähler
    # structure must be 2 dln z, with dr-coefficient 2A/(r z) and squared
    # norm -4A/z^2
    prof = CalabiProfile(A=-1.0, z_range=(0.05, 1.4), s_range=(-0.8, 0.8))
    base, alpha = disk_base(1)
    cal = build_calabi(base, prof, alpha=alpha)
    for r in np.linspace(0.3, 0.9, 20):
        z = prof.moment_map_G(r)
        th0, drc, n2, fit = lee_of_I0_at(cal, r)
        assert fit < 1e-10
        assert abs(th0[1] - 2.0 / z) < 1e-8
        assert np.abs(th0[[0, 2, 3]]).max() < 1e-10
        assert abs(drc - 2.0 * prof.A / (r * z)) < 1e-8
        assert abs(n2 - (-4.0 * prof.A / (z * z))) < 1e-8


def test_lee_form_anchor_values_at_half():
    prof = CalabiProfile(A=-1.0, z_range=(0.05, 1.4))
    base, alpha = disk_base(1)
    _, drc, n2, _ = lee_of_I0_at(build_calabi(base, prof, alpha=alpha), 0.5)
    assert abs(drc - (-5.7707801635558535)) < 1e-12
    assert abs(n2 - 8.325475924022431) < 1e-12


def test_rescale_identity_pair_reproduces_metric():
    cal = make_cal(0)
    one = lambda u: u * 0.0 + 1.0
    hat, resid = rescale_biaxial(cal, cal.proj_plus, one, one,
                                 profile=cal.profile)
    assert resid == 0.0
    for p in cal.chart.samples(SamplePlan(9, 10)):
        g1, _, _ = metric_jets(cal.g.fn, p)
        g2, _, _ = metric_jets(hat.g, p)
        assert np.abs(g1 - g2).max() == 0.0


def test_rescale_polynomial_pair():
    # b = u^2 + 2 and a = b' + b = (u + 1)^2 + 1, both positive: the
    # rescaled structure is Kähler, and its Lee form is the original's
    # times a/b at u = ln z
    cal = make_cal(1)
    a = lambda u: u * u + 2.0 * u + 2.0
    b = lambda u: u * u + 2.0
    hat, resid = rescale_biaxial(cal, cal.proj_plus, a, b,
                                 profile=cal.profile)
    assert resid < 1e-12
    v = fold_plan(hat.chart, SamplePlan(10, 10),
                  lambda pe: worst(*kahler_point(hat, pe).values()))
    assert v.max() <= 1e-7
    s = cal.proj_plus
    for p in cal.chart.samples(SamplePlan(11, 5)):
        t_orig = extract_theta(cal, s, PointEval(p))[0]
        t_hat = extract_theta(hat, s, PointEval(p))[0]
        u = np.log(p[1])
        assert abs(t_hat[1] / t_orig[1] - a(u) / b(u)) < 1e-12


def test_rescale_rejects_broken_constraint():
    cal = make_cal(0)
    one = lambda u: u * 0.0 + 1.0
    two = lambda u: u * 0.0 + 2.0
    with pytest.raises(NotClosedError):
        rescale_biaxial(cal, cal.proj_plus, one, two,
                        profile=cal.profile)


def test_rescale_rejects_nonpositive_profile():
    cal = make_cal(0)
    ident = lambda u: u
    with pytest.raises(ValueError):
        rescale_biaxial(cal, cal.proj_plus, ident, ident,
                        profile=cal.profile)


def _ansatz_curvature(points):
    """(Riemann lowered, Ricci) of g = q dz^2 + q^-1 Theta^2 + z g_N over the
    k = 1 disk base, in chart coordinates (s, z, x, y), written from the
    formula: Theta = ds + alpha, alpha = ((2 - rho^2)/4)(x dy - y dx), g_N =
    (1 - rho^2) delta, A = -1.  sympy differentiates the metric twice; the
    curvature is formed here with plain einsums, in the library's index
    order R[i,j,k,l] = g_lm R^m_ijk, Ric[j,k] = g^il R[i,j,k,l]."""
    X = s, z, x, y = sp.symbols("s z x y")
    A = sp.Integer(-1)
    q = -1 / A
    rho2 = x ** 2 + y ** 2
    u = (2 - rho2) / 4
    Theta = sp.Matrix([1, 0, -u * y, u * x])
    dz = sp.Matrix([0, 1, 0, 0])
    gN = sp.diag(0, 0, 1 - rho2, 1 - rho2)
    g = q * dz * dz.T + Theta * Theta.T / q + z * gN
    dg = sp.derive_by_array(g, X)          # dg[c, a, b] = d_c g_ab
    d2g = sp.derive_by_array(dg, X)        # d2g[d, c, a, b] = d_d d_c g_ab
    jets = sp.lambdify(X, [g, dg, d2g], "numpy")
    out = []
    for p in points:
        G, dG, d2G = (np.array(a, float) for a in jets(*p))
        gi = np.linalg.inv(G)
        # Gamma^k_ij and its derivative d_m Gamma^k_ij
        low = dG.transpose(1, 0, 2) + dG.transpose(1, 2, 0) - dG
        Gam = 0.5 * np.einsum("kl,lij->kij", gi, low)
        dlow = d2G.transpose(0, 2, 1, 3) + d2G.transpose(0, 2, 3, 1) - d2G
        dgi = -np.einsum("ka,mab,bl->mkl", gi, dG, gi)
        dGam = 0.5 * (np.einsum("mkl,lij->mkij", dgi, low)
                      + np.einsum("kl,mlij->mkij", gi, dlow))
        # R^l_ijk = d_i Gamma^l_jk - d_j Gamma^l_ik + Gamma^l_im Gamma^m_jk
        #           - Gamma^l_jm Gamma^m_ik
        T = np.einsum("iljk->lijk", dGam) + np.einsum("lim,mjk->lijk", Gam, Gam)
        R = T - T.transpose(0, 2, 1, 3)
        Rlow = np.einsum("lm,mijk->ijkl", G, R)
        out.append((Rlow, np.einsum("il,ijkl->jk", gi, Rlow)))
    return out


def test_curvature_matches_a_sympy_restatement_of_the_ansatz():
    # the builder's closures on jets and the curvature stack, together,
    # against the metric written from its formula and differentiated by sympy
    cal = make_cal(k=1)
    p = cal.chart.samples(SamplePlan(0, 3))
    Rlow, Ric = PointEval(p).curvature(cal.g)[:2]
    for k, (want_R, want_Ric) in enumerate(_ansatz_curvature(p)):
        assert np.abs(Rlow[k] - want_R).max() <= 1e-10 * np.abs(want_R).max()
        assert np.abs(Ric[k] - want_Ric).max() <= 1e-10 * np.abs(want_Ric).max()
