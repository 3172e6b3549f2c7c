"""Hermitian predicates: compatibility, the Kahler verdict, Ricci forms and
the ddc operator (ddc_from_jets), checked against closed-form surface
curvature oracles."""

import numpy as np
import pytest

from kahlerkit.jets import AFFINE, Jet2, JetDomainError, SamplePlan, jlog, jsin
from kahlerkit.fields import (ChartManifold, DegenerateMetricError, Field, Fold, PointEval,
                              metric_jets, worst)
from kahlerkit.hermitian import HermitianTriple, ddc_from_jets, kahler_point, ricci_form
from kahlerkit.calabi import disk_base
from helpers import J4, fold_plan, rotation, sphere_metric


def sphere_J(pt):
    su = jsin(pt[0])
    return [[0.0, su * (-1.0)], [su.inv(), 0.0]]


def sphere_triple():
    chart = ChartManifold(2, [(0.4, 2.7), (-3.0, 3.0)], label="sphere")
    return HermitianTriple(sphere_metric, sphere_J, chart)


def test_fundamental_form_oracle_on_sphere():
    t = sphere_triple()
    for u in (0.6, 1.1, 2.0):
        pe = PointEval([u, 0.2])
        assert kahler_point(t, pe)["compatible"][0] <= 1e-8
        om = pe.omega(t.g, t.J).value[0]
        assert abs(om[0, 1] - np.sin(u)) < 1e-12
        assert abs(om[0, 1] + om[1, 0]) < 1e-12
    omv = PointEval([1.1, 0.2]).omega(t.g, t.J).value[0]
    assert abs(omv[0, 1] - np.sin(1.1)) < 1e-12


def test_fundamental_form_rejects_incompatible_pair():
    def g(pt):
        return [[1.0, 0.0], [0.0, 2.0]]
    t = HermitianTriple(g, rotation,
                        ChartManifold(2, [(-1.0, 1.0)] * 2))
    # J^T g J - g = diag(1, -1): the compatible residual is 1, far above
    # every Kahler tolerance
    compat = kahler_point(t, PointEval([0.1, 0.2]))["compatible"]
    assert compat[0] > 1e-8
    assert abs(compat[0] - 1.0) < 1e-14


def test_sphere_is_kahler_and_ricci_form_equals_fundamental():
    t = sphere_triple()
    v = fold_plan(t.chart, SamplePlan(4, 20),
                  lambda pe: worst(*kahler_point(t, pe).values()))
    assert v.max() <= 1e-7
    assert v.max() < 1e-10
    assert v.points == 20
    for p in t.chart.samples(SamplePlan(6, 15)):
        pe = PointEval(p)
        rho = ricci_form(t, pe)
        assert kahler_point(t, pe)["compatible"][0] <= 1e-8
        om = pe.omega(t.g, t.J).value
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
            pe = PointEval(p)
            rho = ricci_form(t, pe)[0]
            assert abs(rho[0, 1] - 2.0 * k / s ** 2) < 1e-9
            J = pe.raw(t.J)
            dd = ddc_from_jets(pe.raw(logfac), J)[0]
            assert np.abs(rho - 0.5 * k * dd).max() < 1e-9


def test_ricci_form_is_antisymmetric_and_j_invariant():
    t, _ = disk_base(2)
    for p in t.chart.samples(SamplePlan(9, 10)):
        rho = ricci_form(t, PointEval(p))[0]
        Jv = metric_jets(t.J, p)[0][0]
        assert np.abs(rho + rho.T).max() < 1e-10
        assert np.abs(Jv.T @ rho @ Jv - rho).max() < 1e-10


def test_ricci_form_of_a_flat_metric_vanishes_whatever_its_j():
    def g(pt):
        return [[1.0, 0.0], [0.0, 4.0]]
    # (g, J) is not compatible, so not Kahler: ricci_form checks nothing,
    # and the curvature of the flat metric still comes out
    t = HermitianTriple(g, rotation, ChartManifold(2, [(-1.0, 1.0)] * 2))
    rho = ricci_form(t, PointEval([0.2, 0.1]))
    assert np.abs(rho).max() < 1e-12


def test_ddc_flat_oracle():
    def f(pt):
        return 0.5 * (pt[0] * pt[0] + pt[1] * pt[1])
    pe = PointEval([0.3, -0.4])
    J = pe.raw(rotation)
    dd = ddc_from_jets(pe.raw(f), J)
    assert np.abs(dd - np.array([[0.0, -2.0], [2.0, 0.0]])).max() < 1e-12

    def lin(pt):
        return 3.0 * pt[0] - pt[1]
    assert np.abs(ddc_from_jets(pe.raw(lin), J)).max() < 1e-14


def test_ddc_with_position_dependent_endomorphism():
    # f = u on the sphere chart: d(df o J) = -cos(u) du^dphi
    def f(pt):
        return pt[0]
    u = np.pi / 3.0
    pe = PointEval([u, 0.5])
    J = pe.raw(sphere_J)
    dd = ddc_from_jets(pe.raw(f), J)[0]
    assert abs(dd[0, 1] - (-0.5)) < 1e-12
    assert abs(dd[0, 1] - (-np.cos(u))) < 1e-12


def flat4_triple(warp=None):
    chart = ChartManifold(4, [(-1.0, 1.0)] * 4)

    def g(pt):
        f = 1.0 if warp is None else warp(pt)
        return [[1.0, 0.0, 0.0, 0.0],
                [0.0, 1.0, 0.0, 0.0],
                [0.0, 0.0, f, 0.0],
                [0.0, 0.0, 0.0, f]]

    return HermitianTriple(g, lambda pt: J4, chart)


def test_kahler_verdict_flat_product():
    t = flat4_triple()
    v = fold_plan(t.chart, SamplePlan(10, 15),
                  lambda pe: worst(*kahler_point(t, pe).values()))
    assert v.max() <= 1e-7
    assert v.max() < 1e-14


def test_kahler_verdict_isolates_nonclosed_form():
    # conformal warp of the second plane keeps compatibility and
    # integrability exact but makes omega non-closed
    def warp(pt):
        return 1.0 + 0.3 * jsin(pt[0])
    t = flat4_triple(warp)
    v = fold_plan(t.chart, SamplePlan(11, 15), lambda pe: kahler_point(t, pe))
    assert not worst(*(v.max(k) for k in v.values)) <= 1e-7
    assert v.max("compatible") < 1e-12
    assert v.max("integrable") < 1e-12
    assert v.max("closed") > 1e-3


def test_fold_of_ricci_form_names_the_point_where_the_metric_degenerates():
    # g = (1 - 2x) delta is singular where x = 0.5: a fold of ricci_form
    # records DegenerateMetricError at the point, alone and inside a batch
    chart = ChartManifold(2, [(-1.0, 1.0)] * 2)
    t = HermitianTriple(Field(lambda pt: (1.0 - 2.0 * pt[0]) * np.eye(2)),
                        Field(rotation), chart)
    pts = np.array([[0.0, 0.1], [0.0, -0.3], [0.5, 0.2], [0.0, 0.4]])
    for p, kept in ((pts[2], 0), (pts, 2)):
        acc = Fold()
        acc.add(PointEval(p), lambda pe: pe.absmax(ricci_form(t, pe)))
        assert acc.error.startswith("DegenerateMetricError at point [0.5, 0.2]: ")
        assert isinstance(acc.exc, DegenerateMetricError)
        assert acc.points == kept and acc.used() == kept


def test_split_fundamental_restriction():
    t = flat4_triple()

    def proj_plus(pt):
        return np.diag([1.0, 1.0, 0.0, 0.0])
    # omega_plus = P+^T omega P+, the restriction paper_claims.structure_point removes
    p = [0.1, 0.2, -0.3, 0.4]
    pe = PointEval(p)
    om_all = pe.omega(t.g, t.J).value[0]
    Pv = pe.raw(proj_plus).value[0]
    om_plus = Pv.T @ om_all @ Pv
    om_minus = om_all - om_plus
    gv = metric_jets(t.g, p)[0][0]
    Jv = metric_jets(t.J, p)[0][0]
    om = Jv.T @ gv
    assert np.abs((om_plus + om_minus) - om).max() < 1e-14
    assert np.abs(om_plus[2:, :]).max() < 1e-14
    assert abs(om_plus[0, 1] - om[0, 1]) < 1e-14


def test_kahler_verdict_fails_on_nan_at_a_later_point():
    # max() drops a NaN that is not first; the verdict must not pass over it
    plan = SamplePlan(12, 5)
    bad_x = flat4_triple().chart.samples(plan)[1][0]

    def warp(pt):
        # NaN at the bad point, 1 elsewhere (at each point of a batch)
        x = pt[0]
        return Jet2(np.where(x.value == bad_x, np.nan, 1.0), 0.0 * x.grad, 0.0 * x.hess)
    t = flat4_triple(warp)
    v = fold_plan(t.chart, plan, lambda pe: kahler_point(t, pe))
    assert not worst(*(v.max(k) for k in v.values)) <= 1e-7
    assert np.isnan(v.max("compatible"))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("kind", ["constant", "affine"])
def test_a_nan_or_inf_in_a_known_zero_operand_fails_the_check(kind, bad):
    # a constant (lifted as an affine jet with a zero gradient) or affine
    # operand skips the Hessian term its known zero would add, so no
    # 0 * inf = NaN reaches a Hessian through it; its
    # value still carries a NaN into the residual, and an inf raises the
    # float error of its first 0 * inf (the gradient c dy of c * y), and the
    # fold names the first point where either happens: the first sample for
    # a constant, which is bad everywhere, and the bad point for the affine
    # operand, after keeping the point before it
    plan = SamplePlan(12, 5)
    pts = flat4_triple().chart.samples(plan)

    def warp(pt):
        if kind == "constant":
            u = Field(lambda pt: bad)(pt)
        else:
            x = pt[0]
            u = Jet2(np.where(x.value == pts[1][0], bad, x.value), x.grad, AFFINE)
        assert u._hess is AFFINE
        return 1.0 + u * pt[1]
    t = flat4_triple(warp)
    v = Fold()
    v.add(PointEval(t.chart.samples(plan)), lambda pe: kahler_point(t, pe))
    at = (pts[0] if kind == "constant" else pts[1]).round(8).tolist()
    if np.isnan(bad):
        assert v.error == "non-finite residual at point %s" % at
        assert not all(np.isfinite(v.max(k)) for k in v.values)
    else:
        assert isinstance(v.exc, JetDomainError)
        assert v.error.startswith("JetDomainError at point %s: invalid value encountered in " % at)
        assert v.points == (0 if kind == "constant" else 1)
