"""Fibered Kähler charts of Calabi type over a Kähler base, in moment-map
coordinates.

Chart layout is (s, z, base coords...): s is the circle/flow coordinate, z the
moment-map coordinate, and the remaining 2(m-1) coordinates are the base's.
With the log profile G(r) = A ln r (A < 0) the metric takes the constant-q
form

    g = q dz^2 + q^{-1} Theta^2 + z * g_N,   Theta = ds + alpha,  q = -1/A,

where alpha is a primitive of the base Kähler form (d alpha = omega_N).
Orientation conventions: J ds-vector = -(1/q) dz-vector, the base rotation
sends dx-vector to dy-vector, and the moment map satisfies
iota_{d/ds} omega_J = -dz.  I0 = J (1 - 2 P+) flips J on the fiber span
{d/ds, d/dz} and is integrable; its Lee form is 2 dln z.
"""

from dataclasses import dataclass
from math import comb, exp, isfinite, sqrt
from sys import float_info

import numpy as np

from kahlerkit.jets import Jet2, SamplePlan, embed, jeinsum, pack
from kahlerkit.fields import (ChartManifold, Field, Fold, NotClosedError, PointEval,
                              first_order, wedge_top)
from kahlerkit.hermitian import HermitianTriple

ALPHA_CHECK_COUNT = 10    # build_calabi: base points of the alpha guard
ALPHA_TOL = 1e-7          # build_calabi: largest |d alpha - omega_N| there


@dataclass
class CalabiProfile:
    """Log moment-map profile G(r) = A ln r with A < 0, plus the chart ranges.

    The r <-> z dictionary: z = G(r), r = exp(z/A), G'(r) = A/r.  In it the
    Lee form 2 dln z of I0 has dr-coefficient 2A/(r z) and squared norm
    -4A/z^2.
    """
    A: float = -1.0
    z_range: tuple = (0.5, 2.0)
    s_range: tuple = (-1.0, 1.0)

    def __post_init__(self):
        if not -np.inf < self.A < 0:
            raise ValueError("profile needs a finite A < 0, got A=%r" % (self.A,))
        lo, hi = self.z_range
        if not (0 < lo < hi):
            raise ValueError("z_range must be positive and increasing")
        # q = -1/A and r = exp(z/A), smallest at the top of z_range, lose
        # their digits below the normal floats and then read 0
        if not (float_info.min <= self.q < np.inf and exp(hi / self.A) >= float_info.min):
            raise ValueError("profile needs q = -1/A and r = exp(z/A) normal floats "
                             "over z_range, got A=%r, z_range=%r" % (self.A, self.z_range))

    @property
    def q(self):
        return -1.0 / self.A

    def moment_map_G(self, r):
        return self.A * np.log(r)

    def r_of_z(self, z):
        return np.exp(z / self.A)

    def G_prime(self, r):
        return self.A / r


def disk_u_coefficients(k):
    """Polynomial coefficients (ascending in t = rho^2) of u_k with
    d[u_k (x dy - y dx)] = (1-t)^k dx^dy: u_k(t) = (1-(1-t)^{k+1})/(2(k+1)t)."""
    return [comb(k + 1, i) * (-1.0) ** (i + 1) / (2.0 * (k + 1))
            for i in range(1, k + 2)]


def _poly(coeffs, t):
    out = 0.0
    for c in reversed(coeffs):
        out = out * t + c
    return out


def disk_base(k, radius=0.55):
    """HermitianTriple for the unit-disk base with metric (1 - rho^2)^k * delta
    and the standard rotation, plus the closed-form primitive alpha of its
    Kähler form.  Returns (triple, alpha: a 1-form Field).  k is an integer
    in 0..32.  The chart is the box |x|, |y| <= radius; for k >= 1 the whole
    box lies inside the open unit disk (radius * sqrt(2) < 1), where the
    metric is positive definite, and the flat base (k = 0) takes any radius
    > 0 whose fourth power is finite: alpha grows as radius / 2, and a
    Calabi chart over the base forms fourth powers of it (the Gram
    determinant of P+'s columns, foliation._frame_columns)."""
    if not 0 <= k <= 32:
        raise ValueError("disk exponent k must lie in 0..32, got %r" % (k,))
    if k and not radius * sqrt(2.0) < 1.0:
        raise ValueError("a disk base's chart box must lie inside the open unit disk "
                         "(radius * sqrt(2) < 1), got radius=%r" % (radius,))
    dom = [(-radius, radius), (-radius, radius)]
    chart = ChartManifold(2, dom, label="disk^%d" % k)
    if not isfinite(radius * radius * radius * radius):
        raise ValueError("a disk base's radius must have a finite fourth power, "
                         "got radius=%r" % (radius,))
    ucoef = disk_u_coefficients(k)
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])

    def gfn(pt):
        return (1.0 - (pt[0] * pt[0] + pt[1] * pt[1])) ** k * np.eye(2)

    def alphafn(pt):
        x, y = pt[0], pt[1]
        t = x * x + y * y
        u = _poly(ucoef, t)
        return [u * y * (-1.0), u * x]

    triple = HermitianTriple(Field(gfn), Field(lambda pt: rot), chart)
    return triple, Field(alphafn)


@dataclass
class CalabiChart:
    """The fibered chart's fields: the Kähler pair (g, J), I0, the projector
    P+ onto the fiber span {d/ds, d/dz} (the splitting), the Lee form theta
    = d ln z of I0, the connection form Theta = ds + alpha, and the constant
    D+ block B = [[0, 1], [1/q, 0]] of z {theta, -theta o J} = {dz, Theta/q},
    whose twist reads that coframe off P+ as B P+[:2] (twist.coframe).  It is
    its own triple, (g, J) on chart, as base is the base's."""
    g: Field
    J: Field
    I0: Field
    proj_plus: Field
    theta: Field
    Theta: Field
    coframe_block: np.ndarray
    chart: ChartManifold
    base: object
    alpha: Field
    profile: CalabiProfile
    m: int


def build_calabi(base, profile, alpha):
    """Assemble the chart over a Kähler base from alpha, a primitive of its
    Kähler form (d alpha = omega_N), as disk_base or the chain's lower level
    supplies it.  |d alpha - omega_N| is checked at ALPHA_CHECK_COUNT base
    points, evaluated as one batch: a domain error there is raised (naming the
    first point that meets it), and a mismatch above ALPHA_TOL (a base form
    that is not closed has no primitive) raises NotClosedError.  The check reads
    values and gradients only, so its points are seeded first order and no
    field of the base computes a Hessian there.
    """
    n = base.chart.dim + 2
    m = n // 2
    q0 = profile.q

    acc = Fold()
    p = base.chart.samples(SamplePlan(seed=0, count=ALPHA_CHECK_COUNT))
    acc.add(PointEval(p, first_order(Jet2.seed(p))),
            lambda pe: alpha_primitive_point(alpha, base, pe))
    if acc.exc is not None:
        raise acc.exc
    if not acc.max() <= ALPHA_TOL:
        raise NotClosedError("d alpha mismatches the base Kähler form by %.3e" % acc.max())

    e = np.eye(n)
    base_block = np.s_[2:, 2:]    # the base coordinates' block of a chart matrix
    rot = q0 * np.outer(e[0], e[1]) - np.outer(e[1], e[0]) / q0
    dom = [tuple(profile.s_range), tuple(profile.z_range)] + [tuple(d) for d in base.chart.domain]
    chart = ChartManifold(n, dom, label="calabi(m=%d)" % m)

    def gfn(pt):
        Th = Theta(pt)
        return (q0 * np.outer(e[1], e[1]) + (1.0 / q0) * jeinsum("i,j->ij", Th, Th)
                + embed(pt[1] * base.g(pt[2:]), (n, n), base_block))

    def Jfn(pt):
        I = base.J(pt[2:])
        a = alpha(pt[2:])
        # a lifted base direction d_{x^a} also moves along d/ds and d/dz
        return (rot + embed(pack([-(a @ I), a * (-1.0 / q0)]), (n, n), np.s_[:2, 2:])
                + embed(I, (n, n), base_block))

    Theta = Field(lambda pt: e[0] + embed(alpha(pt[2:]), (n,), np.s_[2:]))
    # J, I0 and theta are read to first order only (order=1): by the checks
    # and, as the next level's base J, by that level's J
    J = Field(Jfn, order=1)
    Pp = Field(lambda pt: jeinsum("i,j->ij", e[0], Theta(pt)) + np.outer(e[1], e[1]))
    return CalabiChart(
        g=Field(gfn), J=J, I0=Field(lambda pt: J(pt) @ (np.eye(n) - 2.0 * Pp(pt)), order=1),
        proj_plus=Pp, theta=Field(lambda pt: pt[1].inv() * e[1], order=1),
        Theta=Theta, coframe_block=np.array([[0.0, 1.0], [1.0 / q0, 0.0]]),
        chart=chart, base=base, alpha=alpha, profile=profile, m=m)


def alpha_primitive_point(alpha, t, pe):
    """|d alpha - omega| at pe for a claimed primitive alpha of t's Kähler form."""
    ag = pe.raw(alpha).grad
    return pe.absmax((ag.swapaxes(-1, -2) - ag) - pe.omega(t.g, t.J).value)


def moment_map_point(cal, pe):
    """|iota_{d/ds} omega_J + dz| at pe (the flow is Hamiltonian with moment
    map -z in these conventions)."""
    want = np.zeros(cal.chart.dim)
    want[1] = -1.0
    return pe.absmax(pe.omega(cal.g, cal.J).value[..., 0, :] - want)


def volume_checks(cal, pe):
    """Top-power identity at a point: the Pfaffian coefficient of omega^m in
    chart coordinates against the fibered closed forms, in both the z and the
    r dictionaries.  Returns a dict of the Pfaffian coefficient and the two
    residuals."""
    m = cal.m
    n = cal.chart.dim
    om = pe.omega(cal.g, cal.J).value
    lhs = wedge_top([om] * m)

    base = pe[2:]
    omN = np.zeros_like(om)
    omN[..., 2:, 2:] = base.omega(cal.base.g, cal.base.J).value
    Th = np.zeros(om.shape[:-1])
    Th[..., 0] = 1.0
    Th[..., 2:] = base.raw(cal.alpha).value
    dz = np.zeros(n)
    dz[1] = 1.0
    z = pe.p[..., 1]
    dzTh = dz[:, None] * Th[..., None, :] - Th[..., :, None] * dz
    rhs_z = m * z ** (m - 1) * wedge_top([dzTh] + [omN] * (m - 1))

    prof = cal.profile
    r = prof.r_of_z(z)
    Gp = prof.G_prime(r)
    dr = dz / Gp[..., None]
    Thdr = Th[..., :, None] * dr[..., None, :] - dr[..., :, None] * Th[..., None, :]
    rhs_r = -m * prof.moment_map_G(r) ** (m - 1) * Gp * wedge_top([omN] * (m - 1) + [Thdr])

    return {"pfaffian": lhs, "residual_z": abs(lhs - rhs_z), "residual_r": abs(lhs - rhs_r)}
