"""Chart tensor calculus: Christoffel symbols, curvature oracles, derivative
operators and the homotopy primitive."""

import numpy as np
import pytest

from kahlerkit.jets import Jet2, SamplePlan, jconst, jsin, jsize
from kahlerkit.fields import (AlmostComplexError, ChartManifold,
                              DegenerateMetricError, Field, Fold, NotClosedError,
                              PointEval, fold,
                              christoffel_parts, exterior_derivative,
                              homotopy_primitive, lie_derivative_metric,
                              metric_jets, nijenhuis, ricci, riemann,
                              scalar_curvature, wedge_top)


def polar_metric(pt):
    n = jsize(pt)
    r = pt[0]
    zero = jconst(0.0, n)
    return [[jconst(1.0, n), zero], [zero, r * r]]


def sphere_metric(pt):
    n = jsize(pt)
    su = jsin(pt[0])
    zero = jconst(0.0, n)
    return [[jconst(1.0, n), zero], [zero, su * su]]


def hyperbolic_metric(pt):
    n = jsize(pt)
    y = pt[1]
    inv = 1.0 / (y * y)
    zero = jconst(0.0, n)
    return [[inv, zero], [zero, inv]]


def test_polar_christoffel_closed_form():
    p = [2.0, 0.7]
    gv, gg, gh = metric_jets(polar_metric, p)
    Gam, _, _ = christoffel_parts(gv, gg, gh, p)
    # Gamma^r_{phi phi} = -r, Gamma^phi_{r phi} = 1/r
    assert abs(Gam[0, 1, 1] - (-2.0)) < 1e-12
    assert abs(Gam[1, 0, 1] - 0.5) < 1e-12
    assert abs(Gam[1, 1, 0] - 0.5) < 1e-12
    assert abs(Gam[0, 0, 0]) < 1e-12


def test_sphere_christoffel_closed_form():
    u = np.pi / 3.0
    gv, gg, gh = metric_jets(sphere_metric, [u, 0.3])
    Gam, _, _ = christoffel_parts(gv, gg, gh, [u, 0.3])
    assert abs(Gam[0, 1, 1] - (-np.sin(u) * np.cos(u))) < 1e-12
    assert abs(Gam[1, 0, 1] - np.cos(u) / np.sin(u)) < 1e-12


def test_flat_space_curvature_vanishes():
    for dim in (2, 3, 4):
        chart = ChartManifold(dim, [(-1.0, 1.0)] * dim)

        def gfn(pt, d=dim):
            n = jsize(pt)
            return [[jconst(1.0 if i == j else 0.0, n) for j in range(d)]
                    for i in range(d)]
        for p in chart.samples(SamplePlan(1, 12)):
            assert np.abs(riemann(gfn, p)).max() <= 1e-11


def test_sphere_and_hyperbolic_scalar_curvature():
    chart = ChartManifold(2, [(0.4, 2.7), (-3.0, 3.0)])
    for p in chart.samples(SamplePlan(2, 15)):
        assert abs(scalar_curvature(sphere_metric, p) - 2.0) < 1e-9
    chart = ChartManifold(2, [(-2.0, 2.0), (0.3, 3.0)])
    for p in chart.samples(SamplePlan(3, 15)):
        assert abs(scalar_curvature(hyperbolic_metric, p) - (-2.0)) < 1e-9


def test_sphere_sectional_curvature_one():
    p = [1.1, 0.4]
    R = riemann(sphere_metric, p)
    gv, _, _ = metric_jets(sphere_metric, p)
    sec = R[0, 1, 1, 0] / (gv[0, 0] * gv[1, 1] - gv[0, 1] ** 2)
    assert abs(sec - 1.0) < 1e-10


def test_riemann_symmetries_and_bianchi():
    charts = [
        (sphere_metric, ChartManifold(2, [(0.4, 2.7), (-3.0, 3.0)])),
        (hyperbolic_metric, ChartManifold(2, [(-2.0, 2.0), (0.3, 3.0)])),
    ]
    for gfn, chart in charts:
        for p in chart.samples(SamplePlan(5, 10)):
            R = riemann(gfn, p)
            sc = max(np.abs(R).max(), 1e-12)
            assert np.abs(R + R.transpose(1, 0, 2, 3)).max() / sc < 1e-9
            assert np.abs(R + R.transpose(0, 1, 3, 2)).max() / sc < 1e-9
            assert np.abs(R - R.transpose(2, 3, 0, 1)).max() / sc < 1e-9
            b = R + R.transpose(1, 2, 0, 3) + R.transpose(2, 0, 1, 3)
            assert np.abs(b).max() / sc < 1e-9


def test_metric_compatibility_of_connection():
    # nabla g = 0: d_k g_ij = Gamma^m_{ki} g_mj + Gamma^m_{kj} g_im
    p = [0.9, 0.6]
    gv, gg, gh = metric_jets(sphere_metric, p)
    Gam, _, _ = christoffel_parts(gv, gg, gh, p)
    lhs = np.einsum('ijk->kij', gg)
    rhs = np.einsum('mki,mj->kij', Gam, gv) + np.einsum('mkj,im->kij', Gam, gv)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_degenerate_metric_raises():
    def bad(pt):
        n = jsize(pt)
        zero = jconst(0.0, n)
        return [[zero, zero], [zero, jconst(1.0, n)]]
    with pytest.raises(DegenerateMetricError):
        ricci(bad, [0.1, 0.2])


def test_exterior_derivative_squares_to_zero_on_gradients():
    chart = ChartManifold(3, [(-1.0, 1.0)] * 3)

    def f(pt):
        return jsin(pt[0]) * pt[1] + pt[2] ** 2

    def df(pt):
        u = f(pt)
        n = jsize(pt)
        return [Jet2(u.grad[k], u.hess[k], np.zeros((n, n))) for k in range(3)]
    alpha = Field(df, chart, degree=1)
    for p in chart.samples(SamplePlan(7, 10)):
        d = exterior_derivative(alpha, p)
        assert np.abs(d).max() < 1e-12


def test_exterior_derivative_of_declared_two_form():
    chart = ChartManifold(3, [(-1.0, 1.0)] * 3)

    def omfn(pt):
        # omega = x dy^dz: d omega = dx^dy^dz
        n = jsize(pt)
        zero = jconst(0.0, n)
        x = pt[0]
        return [[zero, zero, zero], [zero, zero, x], [zero, x * (-1.0), zero]]
    om = Field(omfn, chart, degree=2)
    d = exterior_derivative(om, [0.2, -0.3, 0.5])
    assert abs(d[0, 1, 2] - 1.0) < 1e-12
    assert abs(d[1, 0, 2] + 1.0) < 1e-12
    assert abs(d[0, 0, 1]) < 1e-14


def test_exterior_derivative_degree_overflow():
    chart = ChartManifold(2, [(-1.0, 1.0)] * 2)

    def omfn(pt):
        n = jsize(pt)
        zero = jconst(0.0, n)
        one = jconst(1.0, n)
        return [[zero, one], [one * (-1.0), zero]]
    with pytest.raises(ValueError):
        exterior_derivative(Field(omfn, chart, degree=2), [0.1, 0.2], dim=2)


def test_lie_derivative_of_metric_against_finite_difference():
    # flow of V = (0.3 x, -0.2 y) on the sphere chart metric, compared to a
    # Richardson derivative of the first-order-flow pullback in epsilon
    def V(pt):
        return [pt[0] * 0.3, pt[1] * (-0.2)]
    p = np.array([1.0, 0.5])
    LV = lie_derivative_metric(sphere_metric, V, p)
    h = 1e-5

    def pullback(eps):
        q = p + eps * np.array([0.3 * p[0], -0.2 * p[1]])
        gv, _, _ = metric_jets(sphere_metric, q)
        Jac = np.eye(2) + eps * np.diag([0.3, -0.2])
        return Jac.T @ gv @ Jac

    def d(step):
        return (pullback(step) - pullback(-step)) / (2.0 * step)
    fd = (4.0 * d(h / 2.0) - d(h)) / 3.0
    assert np.abs(LV - fd).max() < 1e-8


def rotation_pair(n):
    zero = jconst(0.0, n)
    return [[zero, jconst(-1.0, n)], [jconst(1.0, n), zero]]


def test_nijenhuis_vanishes_for_constant_structure():
    def Jrot(pt):
        return rotation_pair(jsize(pt))
    assert np.abs(nijenhuis(Jrot, [0.3, 0.4])).max() < 1e-14


def test_nijenhuis_flags_non_integrable_structure():
    # conjugate the standard structure on the last plane by the shear
    # [[1, x], [0, 1]]: still squares to -1 but has torsion in x
    def Jfour(pt):
        n = jsize(pt)
        x = pt[0]
        zero = jconst(0.0, n)
        one = jconst(1.0, n)
        return [
            [zero, one * (-1.0), zero, zero],
            [one, zero, zero, zero],
            [zero, zero, x, (x * x + 1.0) * (-1.0)],
            [zero, zero, one, x * (-1.0)],
        ]
    N = nijenhuis(Jfour, [0.4, 0.1, -0.2, 0.3])
    assert np.abs(N).max() > 0.5


def test_nijenhuis_rejects_non_complex_square():
    def Jbad(pt):
        n = jsize(pt)
        zero = jconst(0.0, n)
        one = jconst(1.0, n)
        return [[one, zero], [zero, one]]
    with pytest.raises(AlmostComplexError):
        nijenhuis(Jbad, [0.0, 0.0])


def test_homotopy_primitive_roundtrip_constant_form():
    chart = ChartManifold(2, [(-1.0, 1.0), (-1.0, 1.0)])

    def om(pt):
        n = jsize(pt)
        zero = jconst(0.0, n)
        one = jconst(1.0, n)
        return [[zero, one], [one * (-1.0), zero]]
    alpha = homotopy_primitive(Field(om, chart, degree=2), chart)
    want = np.array([[0.0, 1.0], [-1.0, 0.0]])
    for p in chart.samples(SamplePlan(11, 50)):
        a = alpha.fn(Jet2.seed(np.asarray(p, float)))
        ag = np.array([comp.grad for comp in a])
        assert np.abs((ag.T - ag) - want).max() < 1e-8
        # the primitive here is (x dy - y dx)/2 since the chart center is 0
        assert abs(a[0].value + 0.5 * p[1]) < 1e-12
        assert abs(a[1].value - 0.5 * p[0]) < 1e-12


def test_homotopy_primitive_roundtrip_polynomial_form():
    chart = ChartManifold(2, [(-1.0, 1.0), (-1.0, 1.0)])

    def om(pt):
        # (1 + x^2) dx^dy, closed on the plane
        n = jsize(pt)
        zero = jconst(0.0, n)
        c = jconst(1.0, n) + pt[0] * pt[0]
        return [[zero, c], [c * (-1.0), zero]]
    alpha = homotopy_primitive(Field(om, chart, degree=2), chart)
    for p in chart.samples(SamplePlan(13, 50)):
        jets = Jet2.seed(np.asarray(p, float))
        a = alpha.fn(jets)
        ag = np.array([comp.grad for comp in a])
        d = ag.T - ag
        want = 1.0 + p[0] ** 2
        assert abs(d[0, 1] - want) < 1e-8
        assert abs(d[0, 0]) < 1e-12


def test_homotopy_primitive_rejects_nonclosed():
    chart = ChartManifold(3, [(-1.0, 1.0)] * 3)

    def bad(pt):
        # z dx^dy has d = dz^dx^dy, nonzero
        n = jsize(pt)
        zero = jconst(0.0, n)
        z = pt[2]
        return [[zero, z, zero], [z * (-1.0), zero, zero], [zero, zero, zero]]
    with pytest.raises(NotClosedError):
        homotopy_primitive(Field(bad, chart, degree=2), chart,
                           check_plan=SamplePlan(1, 10))


def test_wedge_top_volume_coefficient():
    # dx^dy on the plane: coefficient 1
    om = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert abs(wedge_top([om]) - 1.0) < 1e-14
    # (dx1^dx2 + dx3^dx4)^2 = 2 dx1^dx2^dx3^dx4
    om4 = np.zeros((4, 4))
    om4[0, 1] = om4[2, 3] = 1.0
    om4[1, 0] = om4[3, 2] = -1.0
    assert abs(wedge_top([om4, om4]) - 2.0) < 1e-14
    with pytest.raises(ValueError):
        wedge_top([om, om])


def test_fold_stops_at_nonfinite_and_domain_errors():
    chart = ChartManifold(2, [(-1.0, 1.0)] * 2)
    pts = chart.samples(SamplePlan(3, 5))
    # a NaN at the second of five points ends the fold and is its max
    vals = iter([1e-14, float("nan"), 1e-13, 1e-12, 1e-11])
    res = fold(pts, lambda pe: next(vals))
    assert res.used() == 2 and res.points == 2
    assert np.isnan(res.max()) and np.isnan(res.mean())
    assert res.error == "non-finite residual at point %s" % pts[1].round(8).tolist()
    # a domain error keeps the points before it; fold() re-raises it
    acc = Fold()
    for k, p in enumerate(pts):
        acc.add(PointEval(p), lambda pe, k=k: 0.5 * k if k < 3 else ricci(
            lambda pt: [[jconst(0.0, 2)] * 2] * 2, pe))
    assert (acc.used(), acc.max(), acc.mean()) == (3, 1.0, 0.5)
    assert acc.error.startswith("DegenerateMetricError at point %s: "
                                % pts[3].round(8).tolist())
    with pytest.raises(DegenerateMetricError):
        fold(pts, lambda pe: ricci(lambda pt: [[jconst(0.0, 2)] * 2] * 2, pe))
    # None excludes a point, per residual name for dict results
    res = fold(pts, lambda pe: {"a": 1.0, "b": None if pe.p[0] < 0 else 2.0})
    assert res.used("a") == 5
    assert res.used("b") + res.excluded["b"] == 5
    assert res.max("b") == 2.0 and res.error == ""


def test_point_eval_evaluates_each_field_once():
    calls = []

    def gfn(pt):
        calls.append(1)
        return sphere_metric(pt)
    pe = PointEval([1.1, 0.4])
    g1 = Field(gfn)
    g2 = Field(gfn)   # a fresh wrapper around the same callable
    curv = pe.curvature(g1)
    assert pe.curvature(g2) is curv
    assert pe.jets(gfn) is pe.jets(g1)
    assert len(calls) == 1
    assert np.abs(curv[0] - riemann(sphere_metric, [1.1, 0.4])).max() == 0.0


def test_fields_called_on_the_point_read_its_memo():
    # a builder calls its input field on the point, or on the lifted slice
    # pt[k:]; on a PointEval's point either call comes from the memo
    calls = []

    def base(pt):
        calls.append(pt.value.size)
        return pt[0] * pt[1]
    b = Field(base)
    top = Field(lambda pt: b(pt[1:]) + b(pt[1:]) * pt[0])
    pe = PointEval([0.5, 1.1, 0.4])
    assert top(pe.x) is pe.raw(top)
    assert pe.x[1:] is pe.x[1:]
    assert calls == [2]
    # the lifted slice keeps the derivatives in all three coordinates;
    # sub() is the factor's own point, differentiated in its two, and reads
    # the factor's fields from the lifted slice, restricted to those two
    assert pe.x[1:].grad.shape == (2, 3) and pe.sub(1).x.grad.shape == (2, 2)
    sub = b(pe.sub(1).x)
    assert sub.grad.shape == (2,)
    assert calls == [2]
    own = b(Jet2.seed(pe.p[1:]))
    for got, want in zip((sub.value, sub.grad, sub.hess), (own.value, own.grad, own.hess)):
        assert np.array_equal(got, want)
    assert calls == [2, 2]
    # a plain jet point is evaluated directly, to the same bits
    plain = top(Jet2.seed(pe.p))
    assert calls == [2, 2, 2, 2]
    for got, want in zip((plain.value, plain.grad, plain.hess), pe.jets(top)):
        assert np.array_equal(got, want)
