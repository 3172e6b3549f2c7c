"""Metamorphic curvature oracles on the bundled charts: identities that the
curvature stack and the builders must satisfy together, checked at fixed
points without a second implementation: the J-invariance of the Kähler
curvature, the invariance of the scalar and Ricci curvature of every
bundled case metric under a fixed polynomial change of coordinates, and
the Kähler residuals of each Kähler chart's (g, J) pulled back by it."""

from functools import lru_cache

import numpy as np
import pytest

from kahlerkit.jets import Jet2, SamplePlan, jeinsum, jinv, pack
from kahlerkit.fields import Field, PointEval
from kahlerkit.scenarios import build_case, bundled_names, load_scenario
from kahlerkit.hermitian import HermitianTriple, kahler_point
from kahlerkit.calabi import CalabiProfile, build_calabi, disk_base
from kahlerkit.twist import build_twist, coordinate_twist
from kahlerkit.almost_kahler import iterate_chain


def _calabi(k, twisted):
    base, alpha = disk_base(k)
    cal = build_calabi(base, CalabiProfile(A=-1.0, z_range=(0.5, 2.0), s_range=(-1.0, 1.0)),
                       alpha=alpha)
    return build_twist(cal, coordinate_twist(2, 3)) if twisted else cal


@lru_cache(maxsize=None)
def _chain(kind):
    # the m = 2 chain, built once: the twisted chain's levels 1 and 2 share it
    return iterate_chain(kind, 2)


KAHLER_CHARTS = {
    "calabi-k0": lambda: _calabi(0, False),
    "calabi-k1": lambda: _calabi(1, False),
    "twisted-k0": lambda: _calabi(0, True),
    "twisted-k1": lambda: _calabi(1, True),
    "chain-untwisted-1": lambda: _chain("untwisted")[1].triple,
    "chain-twisted-1": lambda: _chain("twisted")[1].triple,
    "chain-twisted-2": lambda: _chain("twisted")[2].triple,
}


@pytest.mark.parametrize("name", sorted(KAHLER_CHARTS))
def test_kahler_curvature_is_j_invariant(name):
    # on a Kähler manifold nabla J = 0, so R(JX, JY, Z, W) = R(X, Y, Z, W):
    # the Riemann tensor from the Christoffel stack, and the builder's J,
    # must agree on it at every point, whatever the chart
    t = KAHLER_CHARTS[name]()
    pe = PointEval(t.chart.samples(SamplePlan(0, 8)))
    R = pe.curvature(t.g)[0]
    J = pe.raw(t.J).value
    RJ = np.einsum('...ai,...bj,...abkl->...ijkl', J, J, R)
    assert np.abs(R).max() > 0.5
    assert np.abs(RJ - R).max() / np.abs(R).max() <= 1e-12


# the quadratic term's weight in the fixed map below
EPS = 0.05


def _fixed_map(chart):
    """phi(x) = c + A (x - c) + EPS Q(x - c, x - c) about the chart centre c,
    with A near the identity and Q symmetric, drawn once per dimension and
    scaled by each coordinate's span s so that phi moves a point of the
    margin-shrunk box by less than 0.12 s, into the chart box.  Returns the
    map of a coordinate jet x to the jets (phi(x), D phi(x))."""
    n = chart.dim
    lo, hi = np.array(chart.domain).T
    c, s = 0.5 * (lo + hi), hi - lo
    rng = np.random.default_rng(n)
    A = np.eye(n) + (0.3 / n) * s[:, None] * rng.uniform(-1.0, 1.0, (n, n)) / s
    q = rng.uniform(-1.0, 1.0, (n, n, n)) / n ** 2
    Q = 0.5 * (q + q.swapaxes(1, 2)) * s[:, None, None] / (s[:, None] * s)

    def phi(x):
        d = x - c
        Qd = jeinsum("ijk,k->ij", Q, d)
        return c + A @ d + EPS * (Qd @ d), A + 2.0 * EPS * Qd
    return phi


def _pulled_back(phi, f, left):
    """The field f pulled back by phi: left(D phi) f(phi(x)) D phi, with f's
    own callable run on the jet phi(x), so the chain rule runs through it."""
    def fn(pt):
        y, D = phi(pt)
        return left(D) @ pack(f.fn(y), y) @ D
    return Field(fn)


@pytest.mark.parametrize("name", bundled_names())
def test_curvature_is_invariant_under_a_change_of_coordinates(name):
    # the pulled-back metric h = D phi^T g(phi) D phi is the case's own metric
    # called on the jet phi(x), so its curvature runs the chain rule through
    # every builder closure's Hessian: its scalar curvature at x is g's at
    # phi(x), and its Ricci tensor is D phi^T Ric_g(phi(x)) D phi
    case = build_case(load_scenario(name))
    g, phi = case.metric, _fixed_map(case.chart)
    p = case.chart.samples(SamplePlan(0, 8))
    _, ric, scal, _ = PointEval(p).curvature(_pulled_back(phi, g, lambda D: D.T))
    y, D = phi(Jet2.seed(p))
    assert all(case.chart.contains(q) for q in y.value)
    _, ric_g, scal_g, _ = PointEval(y.value).curvature(g)
    want = D.value.swapaxes(-1, -2) @ ric_g @ D.value
    # relative to the curvature's size, or absolute where it is below one
    assert np.abs(scal - scal_g).max() <= 1e-12 * max(np.abs(scal_g).max(), 1.0)
    assert np.abs(ric - want).max() <= 1e-12 * max(np.abs(want).max(), 1.0)


@pytest.mark.parametrize("name", sorted(KAHLER_CHARTS))
def test_a_pulled_back_kahler_pair_is_kahler(name):
    # g pulled back by phi is D phi^T g(phi) D phi and J is D phi^-1 J(phi)
    # D phi: a Kähler pair in the new chart, so kahler_point's compatibility,
    # closedness and integrability residuals vanish; J's jets run jinv's
    # Hessian and the chain rule through every Kähler builder closure
    t = KAHLER_CHARTS[name]()
    phi = _fixed_map(t.chart)
    pulled = HermitianTriple(_pulled_back(phi, t.g, lambda D: D.T), _pulled_back(phi, t.J, jinv),
                             t.chart)
    res = kahler_point(pulled, PointEval(t.chart.samples(SamplePlan(0, 8))))
    assert sorted(res) == ["closed", "compatible", "integrable"]
    assert max(np.max(r) for r in res.values()) <= 1e-12
