"""Hermitian predicates: compatibility, the Kahler verdict, Ricci forms and
the ddc operator, checked against closed-form surface curvature oracles."""

import numpy as np
import pytest

from kahlerkit.jets import Jet2, SamplePlan, jconst, jlog, jsin, jsize
from kahlerkit.fields import ChartManifold, endo_jets, metric_jets
from kahlerkit.hermitian import (CompatibilityError, HermitianTriple,
                                 NotKahlerError, ddc, fundamental_form,
                                 fundamental_form_jets, kahler_verdict,
                                 ricci_form, split_fundamental)
from kahlerkit.calabi import disk_base


def rotation(n):
    zero = jconst(0.0, n)
    return [[zero, jconst(-1.0, n)], [jconst(1.0, n), zero]]


def sphere_g(pt):
    n = jsize(pt)
    su = jsin(pt[0])
    zero = jconst(0.0, n)
    return [[jconst(1.0, n), zero], [zero, su * su]]


def sphere_J(pt):
    n = jsize(pt)
    su = jsin(pt[0])
    zero = jconst(0.0, n)
    return [[zero, su * (-1.0)], [su.inv(), zero]]


def sphere_triple():
    chart = ChartManifold(2, [(0.4, 2.7), (-3.0, 3.0)], label="sphere")
    return HermitianTriple(sphere_g, sphere_J, chart)


def test_fundamental_form_oracle_on_sphere():
    t = sphere_triple()
    for u in (0.6, 1.1, 2.0):
        om = fundamental_form(t, [u, 0.2])
        assert abs(om[0, 1] - np.sin(u)) < 1e-12
        assert abs(om[0, 1] + om[1, 0]) < 1e-12
    omv, _, _ = fundamental_form_jets(t, [1.1, 0.2])
    assert abs(omv[0, 1] - np.sin(1.1)) < 1e-12


def test_fundamental_form_rejects_incompatible_pair():
    def g(pt):
        n = jsize(pt)
        zero = jconst(0.0, n)
        return [[jconst(1.0, n), zero], [zero, jconst(2.0, n)]]
    t = HermitianTriple(g, lambda pt: rotation(jsize(pt)),
                        ChartManifold(2, [(-1.0, 1.0)] * 2))
    with pytest.raises(CompatibilityError):
        fundamental_form(t, [0.1, 0.2])


def test_sphere_is_kahler_and_ricci_form_equals_fundamental():
    t = sphere_triple()
    v = kahler_verdict(t, SamplePlan(4, 20))
    assert v.is_kahler
    assert max(v.residuals().values()) < 1e-10
    assert v.points == 20
    for p in t.chart.samples(SamplePlan(6, 15)):
        rho = ricci_form(t, p)
        om = fundamental_form(t, p)
        assert np.abs(rho - om).max() < 1e-9


def test_disk_ricci_form_closed_form():
    # base metric (1 - |w|^2)^k on the disk chart: the Ricci form has the
    # single coefficient 2k/(1 - |w|^2)^2 and equals (k/2) ddc log(1 - |w|^2)
    for k in (1, 2, 3):
        t, _ = disk_base(k)

        def logfac(pt):
            return jlog(1.0 - pt[0] * pt[0] - pt[1] * pt[1])
        for p in t.chart.samples(SamplePlan(8, 15)):
            s = 1.0 - p[0] ** 2 - p[1] ** 2
            rho = ricci_form(t, p)
            assert abs(rho[0, 1] - 2.0 * k / s ** 2) < 1e-9
            dd = ddc(logfac, t.J, p)
            assert np.abs(rho - 0.5 * k * dd).max() < 1e-9


def test_ricci_form_is_antisymmetric_and_j_invariant():
    t, _ = disk_base(2)
    for p in t.chart.samples(SamplePlan(9, 10)):
        rho = ricci_form(t, p)
        Jv, _, _ = endo_jets(t.J, p)
        assert np.abs(rho + rho.T).max() < 1e-10
        assert np.abs(Jv.T @ rho @ Jv - rho).max() < 1e-10


def test_ricci_form_guards_against_non_kahler_input():
    def g(pt):
        n = jsize(pt)
        zero = jconst(0.0, n)
        return [[jconst(1.0, n), zero], [zero, jconst(4.0, n)]]

    def J(pt):
        return rotation(jsize(pt))
    t = HermitianTriple(g, J, ChartManifold(2, [(-1.0, 1.0)] * 2))
    with pytest.raises(NotKahlerError):
        ricci_form(t, [0.2, 0.1])
    # with the guard off the curvature of the flat metric still comes out
    rho = ricci_form(t, [0.2, 0.1], check=False)
    assert np.abs(rho).max() < 1e-12


def test_ddc_flat_oracle():
    def f(pt):
        return 0.5 * (pt[0] * pt[0] + pt[1] * pt[1])

    def J(pt):
        return rotation(jsize(pt))
    dd = ddc(f, J, [0.3, -0.4])
    assert np.abs(dd - np.array([[0.0, -2.0], [2.0, 0.0]])).max() < 1e-12

    def lin(pt):
        return 3.0 * pt[0] - pt[1]
    assert np.abs(ddc(lin, J, [0.3, -0.4])).max() < 1e-14


def test_ddc_with_position_dependent_endomorphism():
    # f = u on the sphere chart: d(df o J) = -cos(u) du^dphi
    def f(pt):
        return pt[0] + jconst(0.0, jsize(pt))
    u = np.pi / 3.0
    dd = ddc(f, sphere_J, [u, 0.5])
    assert abs(dd[0, 1] - (-0.5)) < 1e-12
    assert abs(dd[0, 1] - (-np.cos(u))) < 1e-12


def flat4_triple(warp=None):
    chart = ChartManifold(4, [(-1.0, 1.0)] * 4)

    def g(pt):
        n = jsize(pt)
        zero = jconst(0.0, n)
        f = jconst(1.0, n) if warp is None else warp(pt)
        rows = [[jconst(1.0, n), zero, zero, zero],
                [zero, jconst(1.0, n), zero, zero],
                [zero, zero, f, zero],
                [zero, zero, zero, f]]
        return rows

    def J(pt):
        n = jsize(pt)
        zero = jconst(0.0, n)
        one = jconst(1.0, n)
        return [[zero, one * (-1.0), zero, zero],
                [one, zero, zero, zero],
                [zero, zero, zero, one * (-1.0)],
                [zero, zero, one, zero]]
    return HermitianTriple(g, J, chart)


def test_kahler_verdict_flat_product():
    v = kahler_verdict(flat4_triple(), SamplePlan(10, 15))
    assert v.is_kahler
    assert max(v.residuals().values()) < 1e-14


def test_kahler_verdict_isolates_nonclosed_form():
    # conformal warp of the second plane keeps compatibility and
    # integrability exact but makes omega non-closed
    def warp(pt):
        return 1.0 + 0.3 * jsin(pt[0])
    v = kahler_verdict(flat4_triple(warp), SamplePlan(11, 15))
    assert not v.is_kahler
    assert v.compatible < 1e-12
    assert v.integrable < 1e-12
    assert v.closed > 1e-3


def test_split_fundamental_restriction():
    t = flat4_triple()

    def proj_plus(pt):
        n = jsize(pt)
        zero = jconst(0.0, n)
        one = jconst(1.0, n)
        return [[one, zero, zero, zero],
                [zero, one, zero, zero],
                [zero, zero, zero, zero],
                [zero, zero, zero, zero]]
    p = [0.1, 0.2, -0.3, 0.4]
    om_plus, om_minus = split_fundamental(t, proj_plus, p)
    gv, _, _ = metric_jets(t.g, p)
    Jv, _, _ = endo_jets(t.J, p)
    om = Jv.T @ gv
    assert np.abs((om_plus + om_minus) - om).max() < 1e-14
    assert np.abs(om_plus[2:, :]).max() < 1e-14
    assert abs(om_plus[0, 1] - om[0, 1]) < 1e-14


def test_split_fundamental_requires_j_invariance():
    t = flat4_triple()

    def proj(pt):
        n = jsize(pt)
        zero = jconst(0.0, n)
        one = jconst(1.0, n)
        return [[one, zero, zero, zero],
                [zero, zero, zero, zero],
                [zero, zero, one, zero],
                [zero, zero, zero, zero]]
    with pytest.raises(ValueError):
        split_fundamental(t, proj, [0.1, 0.2, -0.3, 0.4])


def test_kahler_verdict_fails_on_nan_at_a_later_point():
    # max() drops a NaN that is not first; the verdict must not pass over it
    plan = SamplePlan(12, 5)
    bad_x = flat4_triple().chart.samples(plan)[1][0]

    def warp(pt):
        n = jsize(pt)
        return jconst(float("nan") if pt[0].value == bad_x else 1.0, n)
    v = kahler_verdict(flat4_triple(warp), plan)
    assert not v.is_kahler
    assert np.isnan(v.compatible)
