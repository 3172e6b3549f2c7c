"""Twist deformations of homothetic-foliation structures.

A twist is a Field w: chart point -> unit disc, with components (w1, w2).
The deforming endomorphism S acts on D+ with matrix [[w1, w2], [w2, -w1]] in
the coframe {theta, -theta o J} and vanishes on D-.  In every builder D+ is
span(d0, d1), so S is two rows, S+, read off the builder's coframe (F, B):
F is {theta, -theta o J} times a nonvanishing factor, which cancels, and B
its constant block F[:, :2] (make_sfield); no twisted field reads J.  One
shared S deforms the metric and every endomorphism together; mixing frames
breaks the unchanged-form invariant.  The twist is

    g_w = g(A., .),  A = 1 - 2 (S - |w|^2 P+)/(1 - |w|^2),
    J_w = (1-S)^{-1} J (1-S),

a rank-2 update on rows or columns 0 and 1 (build_twist_fields), which
leaves the fundamental forms unchanged; w = 0 is the identity deformation
exactly.  The conjugate order (a scenario's mode "A"), A = 1 + 2 (S +
|w|^2 P+)/(1 - |w|^2) and J_w = (1-S) J (1-S)^{-1}, is this twist of -w:
with U = (1-S)^{-1} - 1, 1 + 2U = 1 - 2 (S(-w) - |w|^2 P+)/(1 - |w|^2), and
each twisted E commutes with P+, so (1-S) E (1-S)^{-1} = (1+S)^{-1} E (1+S).
|w|^2, 1/(1-|w|^2), |w|^2 P+ and U+ = (1-S)^{-1} - 1 are Fields of their
own, which S's disc guard, g_w and every E_w read through the point's memo,
so each runs once per point.  F must be an exact jet closure: an extracted
Lee form is a first-order jet, and the curvature of the twisted metric,
which needs its Hessian, would raise FirstOrderError.
"""

from dataclasses import dataclass

import numpy as np

from kahlerkit.jets import JetDomainError, contract, embed, jeinsum, pack
from kahlerkit.fields import Field, worst
from kahlerkit.hermitian import HermitianTriple, log_potential_residual, ricci_form

# The largest |w|^2 a twist may reach; the S field and
# transverse_holomorphy_point reject a point beyond it, or a NaN |w|^2.
DISC = 1.0 - 1e-6


def constant_twist(c1, c2=0.0):
    def fn(pt):
        return np.array([c1, c2])
    return Field(fn, label="const(%g,%g)" % (c1, c2))


def coordinate_twist(ix, iy, conj=False, scale=1.0):
    """w = scale * (x_ix + i x_iy), conjugated when conj is set."""
    sgn = -1.0 if conj else 1.0

    def fn(pt):
        return pt[ix] * scale, pt[iy] * (scale * sgn)
    return Field(fn, label="%szeta[%d,%d]" % ("conj_" if conj else "", ix, iy))


@dataclass
class TwistedTriple:
    g_w: Field
    J_w: Field
    I_w: Field
    S_plus: Field
    chart: object

    def triple(self):
        return HermitianTriple(self.g_w, self.J_w, self.chart)


def _norm2(w):
    """|w|^2 of the packed twist jet (w1, w2)."""
    return w[0] * w[0] + w[1] * w[1]


def _check_disc(ww):
    """Raise JetDomainError unless the |w|^2 values ww are all <= DISC (a NaN
    is not)."""
    out = ~(ww <= DISC)
    if out.any():
        raise JetDomainError("twist leaves the disc: |w|^2 = %.8f" % ww[out].max())


def make_sfield(coframe, w, ww):
    """S+, the two nonzero rows of the twist w's S, guarded by the Field
    ww = |w|^2.

    coframe is the builder's (F, B), F a Field of {theta, -theta o J} times
    a nonvanishing c, B its constant D+ block F[:, :2]: S+ = (B^{-1} R(w)) F
    with R = [[w1, w2], [w2, -w1]], as (cB)^{-1} R (cF) = B^{-1} R F.  B is
    inverted once, here: a degenerate frame (|det B| < 1e-12, as where theta
    vanishes) raises ValueError at build.  Every twisted field reads S+, so
    the disc guard |w|^2 <= DISC sits here, per point; on a batch it tests
    every point and names the worst one.
    """
    F, B = coframe
    det = abs(np.linalg.det(B))
    if not det >= 1e-12:
        raise ValueError("degenerate twist frame (|det B| = %.2e)" % det)
    Binv = np.linalg.inv(B)

    def sfield(pt):
        _check_disc(ww(pt).value)
        w1, w2 = w(pt)
        return (Binv @ pack([[w1, w2], [w2, -w1]])) @ F(pt)
    return Field(sfield)


def build_twist_fields(g, endos, Pp, w, coframe, chart):
    """The twist of the metric g and of each endomorphism in endos by one
    shared S on the builder's coframe of endos[0] (make_sfield): (g_w,
    [E_w, ...], S+), Fields on chart, S+ the two rows of S that make_sfield
    builds.  S, |w|^2 P+ and U = (1-S)^{-1} - 1 vanish off rows 0 and 1 and
    are carried as those rows, so each update is rank 2: g_w = g + D^T g[:2]
    for A = 1 + D, and E_w = (1+U) E (1-S) is X = E - E[:, :2] S+ plus U+ X
    on rows 0 and 1.  They share the Fields |w|^2, 1/(1-|w|^2), |w|^2 P+[:2]
    and U+.  Each E_w is first order (its readers take values and gradients
    only), and so is U+, which only the E_w read."""
    ww = Field(lambda pt: _norm2(w(pt)))
    Sp = make_sfield(coframe, w, ww)
    shape = (chart.dim, chart.dim)
    rows = slice(None, 2)

    def facfn(pt):
        Sp(pt)   # S's guard names a point off the disc before 1 - |w|^2 is inverted
        return 1.0 / (1.0 - ww(pt))
    fac = Field(facfn)
    wwP = Field(lambda pt: ww(pt) * Pp(pt)[rows])
    Up = Field(lambda pt: fac(pt) * (Sp(pt) + wwP(pt)), order=1)

    def gwfn(pt):
        # g_w(X, Y) = g(A X, Y): component [i][j] = g[i][j] + D[a][i] g[a][j]
        D = (-2.0 * fac(pt)) * (Sp(pt) - wwP(pt))
        G = g(pt)
        return G + jeinsum("ai,aj->ij", D, G[rows])

    def twisted(E):
        def Ewfn(pt):
            Ev = E(pt)
            X = Ev - Ev[:, rows] @ Sp(pt)
            return X + embed(Up(pt) @ X, shape, rows)
        return Field(Ewfn, order=1)

    return Field(gwfn), [twisted(E) for E in endos], Sp


def build_twist(cal, tw):
    """Twist a CalabiChart (or anything with g/J/I0/proj_plus fields, a
    coframe and a chart) by the twist field tw with one shared S; returns a
    TwistedTriple."""
    gw, (Jw, Iw), Sp = build_twist_fields(cal.g, [cal.J, cal.I0], cal.proj_plus, tw,
                                          cal.coframe, cal.chart)
    return TwistedTriple(g_w=gw, J_w=Jw, I_w=Iw, S_plus=Sp, chart=cal.chart)


def norm_factor_expected(w1, w2):
    ww = w1 * w1 + w2 * w2
    return ((1.0 + w1) ** 2 + w2 ** 2) / (1.0 - ww)


def norm_factor_measured(gfn, gwfn, theta_fn, pe):
    """|theta|^2_{g_w} / |theta|^2_g at pe."""
    th = pe.raw(theta_fn).value
    thgw, thg = (contract("Zi,Zij->Zj", th, pe.inverse(g).value) for g in (gwfn, gfn))
    return contract("Zi,Zi->Z", thgw, th) / contract("Zi,Zi->Z", thg, th)


def form_invariance_point(cal, tt, pe):
    """|omega_w - omega| at pe for (g, J) and (g, I0): the twist leaves both
    fundamental forms unchanged."""
    return worst(*(pe.absmax(pe.omega(tt.g_w, Ew).value - pe.omega(cal.g, E).value)
                   for Ew, E in ((tt.J_w, cal.J), (tt.I_w, cal.I0))))


def transverse_holomorphy_point(Jfn, Ppfn, wfn, pe):
    """max |dw2(P-X) + dw1(J P-X)| over the D- coordinate frame at pe; this is
    the quantity that gates integrability of the twisted structure.  It
    reads w's gradient only, so it checks the disc itself."""
    wj = pe.raw(wfn)
    _check_disc(_norm2(wj).value)
    w1, w2 = wj
    Jv = pe.raw(Jfn).value
    Pmv = np.eye(Jv.shape[-1]) - pe.raw(Ppfn).value
    # one residual per column X of P-, none where X vanishes
    r = np.abs(contract("Zi,Zic->Zc", w2.grad, Pmv) + contract("Zi,Zic->Zc", w1.grad, Jv @ Pmv))
    return worst(0.0, np.where(np.abs(Pmv).max(axis=-2) >= 1e-13, r, 0.0).max(axis=-1))


def ricci_identity_check(cal, tw, tt, pe):
    """Residual at pe of the twisted-Ricci identity, for the log profile:

        rho^{g_w} = rho_N(lifted) + ((m-1)/2)(d J_w d) ln z
                    - (1/2)(d J_w d) ln(1-|w|^2).

    Without the fiber term ((m-1)/2)(d J_w d) ln z it fails by order one."""
    n = cal.chart.dim
    base = ricci_form(cal.base, pe.sub(2))
    rho_N = np.zeros(base.shape[:-2] + (n, n))
    rho_N[..., 2:, 2:] = base
    w1, w2 = pe.raw(tw)
    return log_potential_residual(tt.triple(), pe, [(0.5 * (cal.m - 1), pe[1]),
                                                    (-0.5, 1.0 - (w1 * w1 + w2 * w2))], rho_N)


def zeta_duality_residual(gfn, Jfn, gwfn, Jwfn, theta_fn, pe):
    """J_w zeta_w = J zeta, with zeta/zeta_w the metric duals of theta."""
    th = pe.raw(theta_fn).value
    zeta, zeta_w = (contract("Zij,Zj->Zi", pe.inverse(g).value, th) for g in (gfn, gwfn))
    return pe.absmax(contract("Zij,Zj->Zi", pe.raw(Jwfn).value, zeta_w)
                     - contract("Zij,Zj->Zi", pe.raw(Jfn).value, zeta))
