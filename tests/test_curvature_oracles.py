"""Metamorphic curvature oracles on the bundled Kähler charts: identities
that the curvature stack and the builders must satisfy together, checked at
fixed points without a second implementation."""

from functools import lru_cache

import numpy as np
import pytest

from kahlerkit.jets import SamplePlan
from kahlerkit.fields import PointEval
from kahlerkit.calabi import CalabiProfile, build_calabi, disk_base
from kahlerkit.twist import build_twist, coordinate_twist
from kahlerkit.almost_kahler import iterate_chain


def _calabi(k, twisted):
    base, alpha = disk_base(k)
    cal = build_calabi(base, CalabiProfile(A=-1.0, z_range=(0.5, 2.0), s_range=(-1.0, 1.0)),
                       alpha=alpha)
    return build_twist(cal, coordinate_twist(2, 3)).triple() if twisted else cal.triple()


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
