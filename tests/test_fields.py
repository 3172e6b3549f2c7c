"""Chart tensor calculus: Christoffel symbols, curvature oracles and derivative
operators."""

import numpy as np
import pytest

from kahlerkit.jets import (AFFINE, FirstOrderError, Jet2, SamplePlan, jet_dcoord, jinv, jsin,
                            pack)
from kahlerkit.fields import (ChartManifold, DegenerateMetricError, Field, Fold,
                              NotClosedError, PointEval, _restrict, excluded, first_order,
                              exterior_from_grad, metric_jets, nijenhuis_from_jets,
                              omega_of, wedge_top)
from kahlerkit.hermitian import HermitianTriple, kahler_point
from kahlerkit.foliation import theta_jets
from helpers import J4, ROTATION, fold_plan, rotation, sphere_metric
from paper_claims import least_squares


def polar_metric(pt):
    r = pt[0]
    return [[1.0, 0.0], [0.0, r * r]]


def hyperbolic_metric(pt):
    y = pt[1]
    inv = 1.0 / (y * y)
    return [[inv, 0.0], [0.0, inv]]


def test_polar_christoffel_closed_form():
    p = [2.0, 0.7]
    Gam = PointEval(p).christoffel(polar_metric)[0][0]
    # Gamma^r_{phi phi} = -r, Gamma^phi_{r phi} = 1/r
    assert abs(Gam[0, 1, 1] - (-2.0)) < 1e-12
    assert abs(Gam[1, 0, 1] - 0.5) < 1e-12
    assert abs(Gam[1, 1, 0] - 0.5) < 1e-12
    assert abs(Gam[0, 0, 0]) < 1e-12


def test_sphere_christoffel_closed_form():
    u = np.pi / 3.0
    Gam = PointEval([u, 0.3]).christoffel(sphere_metric)[0][0]
    assert abs(Gam[0, 1, 1] - (-np.sin(u) * np.cos(u))) < 1e-12
    assert abs(Gam[1, 0, 1] - np.cos(u) / np.sin(u)) < 1e-12


def test_flat_space_curvature_vanishes():
    for dim in (2, 3, 4):
        chart = ChartManifold(dim, [(-1.0, 1.0)] * dim)

        def gfn(pt, d=dim):
            return np.eye(d)
        for p in chart.samples(SamplePlan(1, 12)):
            assert np.abs(PointEval(p).curvature(gfn)[0]).max() <= 1e-11


def test_sphere_and_hyperbolic_scalar_curvature():
    chart = ChartManifold(2, [(0.4, 2.7), (-3.0, 3.0)])
    for p in chart.samples(SamplePlan(2, 15)):
        assert abs(PointEval(p).curvature(sphere_metric)[2] - 2.0) < 1e-9
    chart = ChartManifold(2, [(-2.0, 2.0), (0.3, 3.0)])
    for p in chart.samples(SamplePlan(3, 15)):
        assert abs(PointEval(p).curvature(hyperbolic_metric)[2] - (-2.0)) < 1e-9


def test_sphere_sectional_curvature_one():
    p = [1.1, 0.4]
    R = PointEval(p).curvature(sphere_metric)[0][0]
    gv = metric_jets(sphere_metric, p)[0][0]
    sec = R[0, 1, 1, 0] / (gv[0, 0] * gv[1, 1] - gv[0, 1] ** 2)
    assert abs(sec - 1.0) < 1e-10


def test_riemann_symmetries_and_bianchi():
    charts = [
        (sphere_metric, ChartManifold(2, [(0.4, 2.7), (-3.0, 3.0)])),
        (hyperbolic_metric, ChartManifold(2, [(-2.0, 2.0), (0.3, 3.0)])),
    ]
    for gfn, chart in charts:
        for p in chart.samples(SamplePlan(5, 10)):
            R = PointEval(p).curvature(gfn)[0][0]
            sc = max(np.abs(R).max(), 1e-12)
            assert np.abs(R + R.transpose(1, 0, 2, 3)).max() / sc < 1e-9
            assert np.abs(R + R.transpose(0, 1, 3, 2)).max() / sc < 1e-9
            assert np.abs(R - R.transpose(2, 3, 0, 1)).max() / sc < 1e-9
            b = R + R.transpose(1, 2, 0, 3) + R.transpose(2, 0, 1, 3)
            assert np.abs(b).max() / sc < 1e-9


def test_metric_compatibility_of_connection():
    # nabla g = 0: d_k g_ij = Gamma^m_{ki} g_mj + Gamma^m_{kj} g_im
    p = [0.9, 0.6]
    pe = PointEval(p)
    Gam = pe.christoffel(sphere_metric)[0][0]
    g = pe.raw(sphere_metric)
    gv, gg = g.value[0], g.grad[0]
    lhs = np.einsum('ijk->kij', gg)
    rhs = np.einsum('mki,mj->kij', Gam, gv) + np.einsum('mkj,im->kij', Gam, gv)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_degenerate_metric_raises():
    # one singular-metric guard: the memoised inverse and the curvature built
    # on it both report the metric, and a fold names the point, once
    def bad(pt):
        return [[0.0, 0.0], [0.0, 1.0]]
    for read in (PointEval.inverse, PointEval.curvature):
        with pytest.raises(DegenerateMetricError, match=r"^singular metric$"):
            read(PointEval([0.1, 0.2]), bad)
    acc = Fold()
    acc.add(PointEval([0.1, 0.2]), lambda pe: pe.absmax(pe.curvature(bad)[1]))
    assert isinstance(acc.exc, DegenerateMetricError)
    assert acc.error == "DegenerateMetricError at point [0.1, 0.2]: singular metric"
    assert str(acc.exc) == acc.error and acc.error.count("[0.1, 0.2]") == 1


def test_exterior_derivative_squares_to_zero_on_gradients():
    chart = ChartManifold(3, [(-1.0, 1.0)] * 3)

    def f(pt):
        return jsin(pt[0]) * pt[1] + pt[2] ** 2

    def df(pt):
        return jet_dcoord(f(pt))
    alpha = Field(df)
    for p in chart.samples(SamplePlan(7, 10)):
        d = exterior_from_grad(PointEval(p).raw(alpha).grad, 1)
        assert np.abs(d).max() < 1e-12


def test_exterior_derivative_of_declared_two_form():
    chart = ChartManifold(3, [(-1.0, 1.0)] * 3)

    def omfn(pt):
        # omega = x dy^dz: d omega = dx^dy^dz
        x = pt[0]
        return [[0.0, 0.0, 0.0], [0.0, 0.0, x], [0.0, x * (-1.0), 0.0]]
    om = Field(omfn)
    d = exterior_from_grad(PointEval([0.2, -0.3, 0.5]).raw(om).grad, 2)[0]
    assert abs(d[0, 1, 2] - 1.0) < 1e-12
    assert abs(d[1, 0, 2] + 1.0) < 1e-12
    assert abs(d[0, 0, 1]) < 1e-14


def _lie_metric(pt):
    # I + w w^T, positive definite, in polynomials: it evaluates on floats
    # and on jets alike
    w = [pt[0] * pt[1], 0.5 * pt[2] * pt[2], pt[3] - 0.3 * pt[0], 0.4 * pt[1] * pt[3]]
    return [[(1.0 if i == j else 0.0) + w[i] * w[j] for j in range(4)] for i in range(4)]


def _lie_projector(pt):
    # [[1, 0], [B, 0]] with a point-dependent 2 x 2 block B: a rank-2
    # projector whose frame columns e_a + B e_a move with the point
    b = [[0.3 * pt[0] * pt[2], 0.2 + pt[1]], [pt[3] * pt[3], -0.5 * pt[0] * pt[1]]]
    return [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
            [b[0][0], b[0][1], 0.0, 0.0], [b[1][0], b[1][1], 0.0, 0.0]]


def test_lie_derivative_of_metric_against_finite_difference():
    # theta_jets' (L_V g) for each D+ frame column V, read through
    # theta(V) = tr(g^-1 L_V g P-) / (n - 2), against a Richardson derivative
    # in epsilon of the pullback of g by q -> q + eps V(q), dV by Richardson
    # central differences
    p = np.array([0.4, -0.3, 0.6, 0.2])
    t = HermitianTriple(_lie_metric, lambda pt: J4, ChartManifold(4, [(-1.0, 1.0)] * 4))
    _, _, thetaV, cols = theta_jets(t, Field(_lie_projector), PointEval(p))
    assert tuple(int(c[0]) for c in cols) == (0, 1)

    def richardson(f, h):
        def d(step):
            return (f(step) - f(-step)) / (2.0 * step)
        return (4.0 * d(h / 2.0) - d(h)) / 3.0

    g = lambda q: np.array(_lie_metric(q), float)
    P = np.array(_lie_projector(p), float)
    gi = np.linalg.inv(g(p))
    for a in range(2):
        V = lambda q: np.array(_lie_projector(q), float)[:, a]
        dV = np.stack([richardson(lambda s: V(p + s * e), 1e-3) for e in np.eye(4)], axis=1)

        def pullback(eps):
            Jac = np.eye(4) + eps * dV
            return Jac.T @ g(p + eps * V(p)) @ Jac
        L = richardson(pullback, 1e-4)
        want = np.trace(gi @ L @ (np.eye(4) - P)) / 2.0
        assert abs(thetaV.value[0, a] - want) < 1e-8


def test_nijenhuis_vanishes_for_constant_structure():
    J = PointEval([0.3, 0.4]).raw(rotation)
    assert np.abs(nijenhuis_from_jets(J.value, J.grad)).max() < 1e-14


def test_nijenhuis_flags_non_integrable_structure():
    # conjugate the standard structure on the last plane by the shear
    # [[1, x], [0, 1]]: still squares to -1 but has torsion in x
    def Jfour(pt):
        x = pt[0]
        return [
            [0.0, -1.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, x, (x * x + 1.0) * (-1.0)],
            [0.0, 0.0, 1.0, x * (-1.0)],
        ]
    J = PointEval([0.4, 0.1, -0.2, 0.3]).raw(Jfour)
    N = nijenhuis_from_jets(J.value, J.grad)
    assert np.abs(N).max() > 0.5


def test_nijenhuis_rejects_non_complex_square():
    def Jbad(pt):
        return np.eye(2)
    # J = 1 keeps g(J., J.) = g but J^2 + 1 = 2: the compatible residual,
    # which includes J^2 = -1, is 2, far above every Kahler tolerance
    t = HermitianTriple(lambda pt: np.eye(2), Jbad,
                        ChartManifold(2, [(-1.0, 1.0)] * 2))
    compat = kahler_point(t, PointEval([0.0, 0.0]))["compatible"]
    assert compat[0] > 1e-8
    assert abs(compat[0] - 2.0) < 1e-14


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


def test_least_squares_solves_each_point_as_lstsq_does():
    # the batched solve stands for a per-point np.linalg.lstsq loop: the same
    # minimum-norm solution with the same cutoff, max(M, N) eps relative to
    # the largest singular value, on full-rank, rank-deficient and zero systems
    rng = np.random.default_rng(3)
    A = rng.standard_normal((5, 16, 4))
    b = rng.standard_normal((5, 16))
    u, _ = np.linalg.qr(rng.standard_normal((16, 4)))
    v, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    A[1] = u @ np.diag([1.0, 0.5, 0.3, 2e-15]) @ v.T   # below 16 eps: cut off
    A[2, :, 3] = A[2, :, 0]
    A[3] = 0.0
    got = least_squares(A, b)
    want = np.array([np.linalg.lstsq(a, r, rcond=None)[0] for a, r in zip(A, b)])
    assert got.shape == (5, 4)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_fold_stops_at_nonfinite_and_domain_errors():
    chart = ChartManifold(2, [(-1.0, 1.0)] * 2)
    pts = chart.samples(SamplePlan(3, 5))
    # a NaN at the second of five points ends the fold and is its max
    vals = np.array([1e-14, float("nan"), 1e-13, 1e-12, 1e-11])
    res = fold_plan(chart, SamplePlan(3, 5),
                    lambda pe: vals[(pe.p[:, None] == pts).all(axis=-1).argmax(axis=-1)])
    assert res.used() == 2 and res.points == 2
    assert np.isnan(res.max()) and np.isnan(res.mean())
    assert res.error == "non-finite residual at point %s" % pts[1].round(8).tolist()
    # a domain error keeps the points before it; fold_plan() re-raises it
    acc = Fold()
    for k, p in enumerate(pts):
        acc.add(PointEval(p), lambda pe, k=k: 0.5 * k if k < 3 else pe.curvature(
            lambda pt: np.zeros((2, 2))))
    assert (acc.used(), acc.max(), acc.mean()) == (3, 1.0, 0.5)
    assert acc.error.startswith("DegenerateMetricError at point %s: "
                                % pts[3].round(8).tolist())
    with pytest.raises(DegenerateMetricError):
        fold_plan(chart, SamplePlan(3, 5),
                  lambda pe: pe.curvature(lambda pt: np.zeros((2, 2))))
    # None excludes a point, per residual name for dict results
    res = fold_plan(chart, SamplePlan(3, 5),
                    lambda pe: {"a": np.ones(pe.batch),
                                "b": excluded(pe.p[:, 0] < 0, np.full(pe.batch, 2.0))})
    assert res.used("a") == 5
    assert res.used("b") + res.excluded["b"] == 5
    assert res.max("b") == 2.0 and res.error == ""


def test_a_fold_read_by_a_name_it_never_saw_raises():
    # a name no batch returned is a misread, not a residual of 0: a check
    # that reads a name its per-point function stopped returning fails
    # instead of passing on 0.0
    chart = ChartManifold(2, [(-1.0, 1.0)] * 2)
    res = fold_plan(chart, SamplePlan(3, 4), lambda pe: {
        "a": np.ones(pe.batch), "b": excluded(pe.p[:, 0] < 2.0, pe.p[:, 0])})
    for read in (res.max, res.mean, res.used):
        with pytest.raises(KeyError, match="'c'"):
            read("c")
        with pytest.raises(KeyError):
            read()
    # a name returned with every point excluded reads as no points, and the
    # returned names read as before
    assert (res.used("b"), res.max("b"), res.mean("b"), res.excluded["b"]) == (0, 0.0, 0.0, 4)
    assert (res.used("a"), res.max("a"), res.mean("a")) == (4, 1.0, 1.0)
    # a fold that stopped at an error before its first point reads 0 for
    # every name, as the runner's records and foliation_report read it
    acc = Fold()
    acc.add(PointEval(chart.samples(SamplePlan(3, 4))),
            lambda pe: pe.curvature(lambda pt: np.zeros((2, 2))))
    assert acc.error.startswith("DegenerateMetricError") and acc.values == {}
    assert (acc.used("c"), acc.max("c"), acc.mean()) == (0, 0.0, 0.0)


def test_fold_states_the_shape_of_a_result_that_is_not_one_per_point():
    # a 2x2 array (a Ricci form folded by mistake) at a batch of one point,
    # and a named residual with two values at a batch of three
    pts = ChartManifold(2, [(-1.0, 1.0)] * 2).samples(SamplePlan(3, 3))
    with pytest.raises(ValueError, match=r"returned shape \(2, 2\) on a batch of 1 point"):
        Fold().add(PointEval(pts[0]), lambda pe: np.zeros((2, 2)))
    with pytest.raises(ValueError,
                       match=r"returned residual 'a' of shape \(2,\) on a batch of 3 point"):
        Fold().add(PointEval(pts), lambda pe: {"a": np.zeros(2)})


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
    assert pe.raw(gfn) is pe.raw(g1)
    assert len(calls) == 1
    assert np.abs(curv[0] - PointEval([1.1, 0.4]).curvature(sphere_metric)[0]).max() == 0.0


def test_inverse_and_omega_are_first_order_in_the_memo():
    # their readers take values and first derivatives only, so the memo
    # keeps no Hessian of either; value and gradient are those of the
    # second-order rules
    pe = PointEval([[1.1, 0.4], [0.7, -0.2]])
    J = Field(lambda pt: ROTATION)
    g = pack(sphere_metric(Jet2.seed(pe.p)))
    for got, want in ((pe.inverse(sphere_metric), jinv(g)),
                      (pe.omega(sphere_metric, J), J(Jet2.seed(pe.p)).T @ g)):
        assert got._hess is None
        with pytest.raises(FirstOrderError):
            got.hess
        assert np.array_equal(got.value, want.value) and np.array_equal(got.grad, want.grad)


def test_a_constant_metric_has_a_zero_inverse_gradient_and_christoffel_symbols():
    # a constant metric's inverse is first order, the constant inverse with
    # a zero gradient, and its Christoffel symbols and their derivatives are
    # zero
    pe = PointEval(ChartManifold(4, [(-1.0, 1.0)] * 4).samples(SamplePlan(0, 30)))
    flat = Field(lambda pt: np.eye(4))
    gi = pe.inverse(flat)
    assert gi._hess is None and np.array_equal(gi.value, np.broadcast_to(np.eye(4), (30, 4, 4)))
    assert gi.grad.shape == (30, 4, 4, 4) and not gi.grad.any()
    gam, dgam, _ = pe.christoffel(flat)
    assert gam.shape == (30, 4, 4, 4) and not gam.any() and not dgam.any()


def test_a_constant_field_is_affine_with_a_zero_gradient():
    # a constant read at a second-order point is an affine jet (a known zero
    # Hessian) with a zero gradient, and at a first-order point a
    # first-order one; either way its value is the constant at every point
    p = np.array([[0.3, 1.1, 0.2, -0.1], [-0.4, 0.7, -0.3, 0.25], [0.1, 1.5, 0.0, 0.3]])
    const = Field(lambda pt: ROTATION)
    hi = PointEval(p).raw(const)
    lo = PointEval(p, first_order(Jet2.seed(p))).raw(const)
    assert hi._hess is AFFINE and lo._hess is None
    for j in (hi, lo):
        assert np.array_equal(j.value, np.broadcast_to(ROTATION, (3, 2, 2)))
        assert j.grad.shape == (3, 2, 2, 4) and not j.grad.any()
    assert hi.hess.shape == (3, 2, 2, 4, 4) and not hi.hess.any()
    with pytest.raises(FirstOrderError):
        lo.hess


def test_a_first_order_point_reads_values_and_gradients_only():
    # a point's derivative order is the order of its seed: seeded first
    # order, its fields, its lifted slices and a constant field carry no
    # Hessian, reading one raises FirstOrderError, and values and gradients
    # are those of the second-order point
    p = np.array([[0.3, 1.1, 0.2, -0.1], [-0.4, 0.7, -0.3, 0.25], [0.1, 1.5, 0.0, 0.3]])
    lo = PointEval(p, first_order(Jet2.seed(p)))
    hi = PointEval(p)
    base = Field(lambda pt: [[1.0 + pt[0] * pt[1], pt[0]], [pt[0], 2.0 + pt[1] * pt[1]]])
    top = Field(lambda pt: pt[1] * base(pt[2:]))
    const = Field(lambda pt: ROTATION)
    for pe, f in ((lo, top), (lo[2:], base), (lo, const)):
        assert pe._hess is None and pe.raw(f)._hess is None
        with pytest.raises(FirstOrderError):
            pe.raw(f).hess
    for got, want in ((lo.raw(top), hi.raw(top)), (lo[2:].raw(base), hi[2:].raw(base))):
        assert np.array_equal(got.value, want.value) and np.array_equal(got.grad, want.grad)
    c = lo.raw(const)
    assert c.value.shape == (3, 2, 2) and np.array_equal(c.value[2], [[0.0, -1.0], [1.0, 0.0]])
    assert c.grad.shape == (3, 2, 2, 4) and not c.grad.any()
    # the factor's metric is read at the lifted slice in all four
    # coordinates, and its inverse in the factor's own two
    assert lo[2:].raw(base).grad.shape == (3, 2, 2, 4)
    assert lo[2:].inverse(base).grad.shape == (3, 2, 2, 2)


def test_a_first_order_field_runs_once_on_the_points_first_order_view():
    # at a second-order point a field marked first order computes no
    # Hessian (reading one raises FirstOrderError), with the value and
    # gradient of its second-order jet; what it reads comes from the
    # point's one memo, each field at its own order, a lifted slice
    # included, and every field runs once
    p = np.array([[0.3, 1.1, 0.2, -0.1], [-0.4, 0.7, -0.3, 0.25]])
    calls = []

    def counted(name, fn):
        return lambda pt: calls.append(name) or fn(pt)
    base = Field(counted("base", lambda pt: [[1.0 + pt[0] * pt[1], pt[0]],
                                             [pt[0], 2.0 + pt[1] * pt[1]]]))
    top = Field(counted("top", lambda pt: pt[1] * base(pt[2:]) @ base(pt[2:])), order=1)
    lower = Field(counted("lower", lambda pt: pt[0] * top(pt)), order=1)
    metric = Field(counted("metric", lambda pt: pt[0] * pt[0] * base(pt[2:])))
    pe = PointEval(p)
    low = pe.raw(lower)
    g = pe.raw(metric)
    assert sorted(calls) == ["base", "lower", "metric", "top"]
    for j in (low, pe.raw(top)):
        assert j._hess is None
        with pytest.raises(FirstOrderError):
            j.hess
    assert isinstance(g._hess, np.ndarray) and isinstance(pe[2:].raw(base)._hess, np.ndarray)
    assert pe.raw(lower) is low and len(calls) == 4
    x = Jet2.seed(p)
    for got, f in ((low, lower), (pe.raw(top), top), (g, metric)):
        want = f(x)   # the second-order jet, outside the memo
        assert np.array_equal(got.value, want.value) and np.array_equal(got.grad, want.grad)
    assert np.array_equal(g.hess, metric(x).hess)


def test_a_constant_field_reads_as_the_constant_jet_of_the_point():
    # an array or a nested list of numbers reads as the constant jet in the
    # point's coordinates: the value repeated over the batch, a zero
    # gradient and, at a second-order point only, a zero Hessian
    p = np.array([[0.3, 1.1, 0.2], [-0.4, 0.7, -0.3]])
    lo = PointEval(p, first_order(Jet2.seed(p)))
    for fn in (lambda pt: np.array(ROTATION), lambda pt: ROTATION):
        hi = PointEval(p).raw(fn)
        for got, want in ((hi.value, [ROTATION] * 2), (hi.grad, np.zeros((2, 2, 2, 3))),
                          (hi.hess, np.zeros((2, 2, 2, 3, 3)))):
            assert got.shape == np.shape(want) and got.tobytes() == np.asarray(want).tobytes()
        c = lo.raw(fn)
        assert c._hess is None
        assert np.array_equal(c.value, hi.value) and np.array_equal(c.grad, hi.grad)
        # called on a plain jet point, it is lifted at that point's batch
        one = Field(fn)(Jet2.seed(p))
        assert one.value.shape == (2, 2, 2) and one.hess.shape == (2, 2, 2, 3, 3)
    # a lifted slice reads it in all of the point's coordinates, with a zero
    # gradient, and constants packed at a plain jet point read as constants
    # there
    c = PointEval(p)[1:].raw(lambda pt: 2.0)
    assert c.grad.shape == (2, 3) and not c.grad.any()
    om = Field(lambda pt: omega_of(pack(np.eye(2), pt), pack(rotation(pt), pt)))(
        Jet2.seed(p[:, :2]))
    assert np.array_equal(om.value, [np.transpose(ROTATION)] * 2) and not om.hess.any()


def test_a_fold_replays_a_first_order_batch_at_first_order():
    # a failing first-order batch is replayed point by point, each point
    # seeded first order too
    orders = []

    def fn(pe):
        orders.append(pe._hess is None)
        if pe.batch > 1:
            raise NotClosedError("batch")
        return pe.absmax(pe.value)
    p = np.array([[0.1, 0.2], [0.3, 0.4]])
    acc = Fold()
    acc.add(PointEval(p, first_order(Jet2.seed(p))), fn)
    assert orders == [True, True, True] and acc.points == 2 and acc.error == ""


def test_an_error_in_a_field_carries_no_memo_context():
    # the memo computes a missing entry outside its KeyError handler, so the
    # field's own error is not chained to one KeyError per memo level
    def bad(pt):
        raise ZeroDivisionError("in the field")
    with pytest.raises(ZeroDivisionError) as info:
        PointEval([0.1, 0.2]).curvature(Field(bad))
    assert info.value.__context__ is None


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
    assert top(pe) is pe.raw(top)
    assert pe[1:] is pe[1:]
    assert calls == [2]
    # the lifted slice keeps the derivatives in all three coordinates; the
    # factor's field read there, restricted to the factor's two, is the
    # field at the factor's own point, bit for bit
    assert pe[1:].grad.shape == (1, 2, 3)
    sub = _restrict(b(pe[1:]), 2)
    assert sub.grad.shape == (1, 2)
    assert calls == [2]
    own = b(Jet2.seed(pe.p[:, 1:]))
    for got, want in zip((sub.value, sub.grad, sub.hess), (own.value, own.grad, own.hess)):
        assert np.array_equal(got, want)
    assert calls == [2, 2]
    # a plain jet point is evaluated directly, to the same bits
    plain = top(Jet2.seed(pe.p))
    assert calls == [2, 2, 2, 2]
    for part in ("value", "grad", "hess"):
        assert np.array_equal(getattr(plain, part), getattr(pe.raw(top), part))
    # a field constant on the chart returns a plain array, lifted at the
    # point's batch; the memo holds that jet, read after read
    pts = PointEval([[0.5, 1.1, 0.4], [0.2, 0.3, 0.1]])
    const = Field(lambda pt: np.eye(3))
    assert pts.raw(const) is pts.raw(const) and pts.raw(const).hess.shape == (2, 3, 3, 3, 3)
