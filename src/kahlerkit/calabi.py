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
from math import comb, exp, log

import numpy as np

from kahlerkit.jets import Jet2, SamplePlan, jsize, jconst, jeinsum, jlog, pack
from kahlerkit.fields import (ChartManifold, Field, NotClosedError, at, fold,
                              wedge12, wedge_top, homotopy_primitive, exterior_from_grad)
from kahlerkit.hermitian import HermitianTriple, fundamental_form_field


@dataclass
class CalabiProfile:
    """Log moment-map profile G(r) = A ln r with A < 0, plus the chart ranges.

    The r <-> z dictionary: z = G(r), r = exp(z/A), G'(r) = A/r, and the
    auxiliary profile H = 1/G drives the Lee-form formulas of I0.
    """
    A: float = -1.0
    z_range: tuple = (0.5, 2.0)
    s_range: tuple = (-1.0, 1.0)

    def __post_init__(self):
        if not self.A < 0:
            raise ValueError("profile needs A < 0, got A=%r" % (self.A,))
        lo, hi = self.z_range
        if not (0 < lo < hi):
            raise ValueError("z_range must be positive and increasing")

    @property
    def q(self):
        return -1.0 / self.A

    def moment_map_G(self, r):
        return self.A * log(r)

    def r_of_z(self, z):
        return exp(z / self.A)

    def G_prime(self, r):
        return self.A / r

    def H(self, r):
        return 1.0 / (self.A * log(r))

    def H_prime(self, r):
        z = self.A * log(r)
        return -(self.A / r) / (z * z)

    def lee_dr_coefficient(self, r):
        """dr-coefficient of the I0 Lee form, -2 H'/H = 2A/(r z)."""
        return -2.0 * self.H_prime(r) / self.H(r)

    def lee_norm_sq(self, r):
        """|theta_0|^2 = 4 r H'(r) = -4A/z^2."""
        return 4.0 * r * self.H_prime(r)


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
    Kähler form.  Returns (triple, alpha: a 1-form Field)."""
    dom = [(-radius, radius), (-radius, radius)]
    chart = ChartManifold(2, dom, label="disk^%d" % k)
    ucoef = disk_u_coefficients(k)

    def gfn(pt):
        return (1.0 - (pt[0] * pt[0] + pt[1] * pt[1])) ** k * np.eye(2)

    def Ifn(pt):
        return jconst([[0.0, -1.0], [1.0, 0.0]], jsize(pt))

    def alphafn(pt):
        x, y = pt[0], pt[1]
        t = x * x + y * y
        u = _poly(ucoef, t)
        return [u * y * (-1.0), u * x]

    triple = HermitianTriple(Field(gfn, chart), Field(Ifn, chart), chart)
    return triple, Field(alphafn, chart, degree=1)


def flat_base(radius=0.55):
    """Flat C with alpha = (x dy - y dx)/2."""
    return disk_base(0, radius=radius)


@dataclass
class CalabiChart:
    """The fibered chart's fields: the Kähler pair (g, J), I0, the projector
    P+ onto the fiber span {d/ds, d/dz} (the splitting), the Lee form theta
    = d ln z of I0 and the connection form Theta = ds + alpha."""
    g: Field
    J: Field
    I0: Field
    proj_plus: Field
    theta: Field
    Theta: Field
    chart: ChartManifold
    base: HermitianTriple
    alpha: Field
    profile: CalabiProfile
    m: int

    def triple(self):
        return HermitianTriple(self.g, self.J, self.chart)

    def triple_I(self):
        return HermitianTriple(self.g, self.I0, self.chart)


def build_calabi(base, profile, alpha=None, alpha_tol=1e-7, check_count=10):
    """Assemble the chart over a Kähler base.

    alpha must satisfy d alpha = omega_N; when omitted it is produced by the
    homotopy primitive over the base chart (star-shaped domain assumed).
    """
    nb = base.chart.dim
    n = nb + 2
    m = n // 2
    q0 = profile.q

    if alpha is None:
        alpha = homotopy_primitive(fundamental_form_field(base.g, base.J), base.chart)
    else:
        worst = fold(base.chart.samples(SamplePlan(seed=0, count=check_count)),
                     lambda pe: alpha_primitive_point(alpha, base, pe)).max()
        if not worst <= alpha_tol:
            raise NotClosedError("d alpha mismatches the base Kähler form by %.3e" % worst)

    e = np.eye(n)
    lift = e[2:]                  # base coordinates -> chart coordinates
    rot = q0 * np.outer(e[0], e[1]) - np.outer(e[1], e[0]) / q0
    dom = [tuple(profile.s_range), tuple(profile.z_range)] + [tuple(d) for d in base.chart.domain]
    chart = ChartManifold(n, dom, label="calabi(m=%d)" % m)

    def gfn(pt):
        Th = Theta(pt)
        return (q0 * np.outer(e[1], e[1]) + (1.0 / q0) * jeinsum("i,j->ij", Th, Th)
                + pt[1] * (lift.T @ base.g(pt[2:]) @ lift))

    def Jfn(pt):
        I = base.J(pt[2:])
        a = alpha(pt[2:])
        # a lifted base direction d_{x^a} also moves along d/ds and d/dz
        return rot + e[:2].T @ pack([-(a @ I), a * (-1.0 / q0)]) @ lift + lift.T @ I @ lift

    Theta = Field(lambda pt: e[0] + lift.T @ alpha(pt[2:]), chart, degree=1)
    J = Field(Jfn, chart)
    Pp = Field(lambda pt: jeinsum("i,j->ij", e[0], Theta(pt)) + np.outer(e[1], e[1]), chart)
    return CalabiChart(
        g=Field(gfn, chart), J=J, I0=Field(lambda pt: J(pt) @ (np.eye(n) - 2.0 * Pp(pt)), chart),
        proj_plus=Pp, theta=Field(lambda pt: pt[1].inv() * e[1], chart, degree=1),
        Theta=Theta, chart=chart, base=base, alpha=alpha, profile=profile, m=m)


def alpha_primitive_point(alpha, t, p):
    """|d alpha - omega| at p for a claimed primitive alpha of t's Kähler form."""
    pe = at(p)
    ag = pe.jets(alpha)[1]
    return np.abs((ag.T - ag) - pe.omega(t.g, t.J).value).max()


def moment_map_point(cal, p):
    """|iota_{d/ds} omega_J + dz| at p (the flow is Hamiltonian with moment
    map -z in these conventions)."""
    want = np.zeros(cal.chart.dim)
    want[1] = -1.0
    return np.abs(at(p).omega(cal.g, cal.J).value[0, :] - want).max()


def moment_map_residual(cal, plan):
    """Max over samples of moment_map_point."""
    return fold(cal.chart.samples(plan), lambda pe: moment_map_point(cal, pe)).max()


def volume_checks(cal, p):
    """Top-power identity at a point: the Pfaffian coefficient of omega^m in
    chart coordinates against the fibered closed forms, in both the z and the
    r dictionaries.  Returns a dict of the three coefficients and residuals."""
    pe = at(p)
    m = cal.m
    n = cal.chart.dim
    lhs = wedge_top([pe.omega(cal.g, cal.J).value] * m)

    base = pe.sub(2)
    omN = np.zeros((n, n))
    omN[2:, 2:] = base.omega(cal.base.g, cal.base.J).value
    Th = np.zeros(n)
    Th[0] = 1.0
    Th[2:] = base.jets(cal.alpha)[0]
    dz = np.zeros(n)
    dz[1] = 1.0
    z = pe.p[1]
    dzTh = np.outer(dz, Th) - np.outer(Th, dz)
    rhs_z = m * z ** (m - 1) * wedge_top([dzTh] + [omN] * (m - 1))

    prof = cal.profile
    r = prof.r_of_z(z)
    Gp = prof.G_prime(r)
    dr = dz / Gp
    Thdr = np.outer(Th, dr) - np.outer(dr, Th)
    rhs_r = -m * prof.moment_map_G(r) ** (m - 1) * Gp * wedge_top([omN] * (m - 1) + [Thdr])

    return {"pfaffian": lhs, "z_form": rhs_z, "r_form": rhs_r,
            "residual_z": abs(lhs - rhs_z), "residual_r": abs(lhs - rhs_r)}


def lee_form_of_I0(cal, p):
    """Solve d omega_I = theta0 ^ omega_I for theta0 by least squares over all
    3-form components.  Returns (theta0 components, fit residual)."""
    n = cal.chart.dim
    om = at(p).omega(cal.g, cal.I0)
    dom = exterior_from_grad(om.grad, 2)
    wedges = [wedge12(e, om.value) for e in np.eye(n)]
    comps = [(i, j, k) for i in range(n) for j in range(i + 1, n) for k in range(j + 1, n)]
    Amat = np.array([[w[c] for w in wedges] for c in comps])
    bvec = np.array([dom[c] for c in comps])
    th0, *_ = np.linalg.lstsq(Amat, bvec, rcond=None)
    fit = np.abs(Amat @ th0 - bvec).max() if len(bvec) else 0.0
    return th0, fit


def rescale_biaxial(t, Pp, a, b, profile=None, tol=1e-9, t_samples=9):
    """Biaxial rescale g_hat = a(ln z) g|D+ + b(ln z) g|D-.

    Pp is the projector field onto D+; a and b are scalar jet closures of
    one variable.  The closedness of the rescaled fundamental form forces
    b' + b = a; the constraint is validated on a grid of the ln z range and
    violations raise NotClosedError.
    Returns (HermitianTriple of the rescaled structure, constraint residual).
    """
    zlo, zhi = (profile.z_range if profile is not None else (0.5, 2.0))
    worst = 0.0
    for tv in np.linspace(np.log(zlo), np.log(zhi), t_samples):
        u = Jet2(tv, np.array([1.0]), np.zeros((1, 1)))
        av = a(u)
        bv = b(u)
        if av.value <= 0 or bv.value <= 0:
            raise ValueError("rescale profiles must stay positive, got a=%.3e b=%.3e at t=%.3f"
                             % (av.value, bv.value, tv))
        worst = max(worst, abs(bv.grad[0] + bv.value - av.value))
    if worst > tol:
        raise NotClosedError("b' + b - a = %.3e exceeds %.1e; the rescaled form is not closed"
                             % (worst, tol))

    def ghat(pt):
        g = t.g(pt)
        P = Pp(pt)
        lt = jlog(pt[1])
        gp = P.T @ g @ P
        return a(lt) * gp + b(lt) * (g - gp)

    return HermitianTriple(Field(ghat, t.chart), t.J, t.chart), worst
