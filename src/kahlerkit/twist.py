"""Twist deformations of homothetic-foliation structures.

A twist is a Field w: chart point -> unit disc, with components (w1, w2).
The deforming endomorphism S acts on D+ with matrix [[w1, w2], [w2, -w1]] in
the coframe {theta, -theta o J} and vanishes on D-.  One shared S field
(frame anchored to the first endomorphism passed in) deforms the metric and
every endomorphism together; mixing frames breaks the unchanged-form
invariant.  Mode "B" is

    g_w = g(A., .),  A = 1 - 2 (S - |w|^2 P+)/(1 - |w|^2),
    J_w = (1-S)^{-1} J (1-S),

mode "A" the conjugate order with A = 1 + 2 (S + |w|^2 P+)/(1 - |w|^2).
Both leave the fundamental forms unchanged; w = 0 is the identity
deformation exactly.  theta must be supplied as an exact jet closure (an
extracted Lee form only carries first-order information, which is not enough
for curvature of the twisted metric).
"""

from dataclasses import dataclass

import numpy as np

from kahlerkit.jets import JetDomainError, jsize, jconst, jinv, jlog, pack
from kahlerkit.fields import Field, PointEval, at, fold, worst
from kahlerkit.hermitian import HermitianTriple, ddc_from_jets, ricci_form

# The largest |w|^2 a twist may reach; the S field and validate_twist both
# reject a point beyond it.
DISC = 1.0 - 1e-6


def constant_twist(c1, c2=0.0):
    def fn(pt):
        return jconst([c1, c2], jsize(pt))
    return Field(fn, label="const(%g,%g)" % (c1, c2))


def coordinate_twist(ix, iy, conj=False, scale=1.0, label=None):
    """w = scale * (x_ix + i x_iy), conjugated when conj is set."""
    sgn = -1.0 if conj else 1.0

    def fn(pt):
        return pt[ix] * scale, pt[iy] * (scale * sgn)
    if label is None:
        label = "%szeta[%d,%d]" % ("conj_" if conj else "", ix, iy)
    return Field(fn, label=label)


def mobius(w):
    """w -> w~ = -w/(1+w); this family is an involution."""
    w = complex(w)
    if abs(w) >= 1.0:
        raise ValueError("mobius needs |w| < 1, got %r" % (w,))
    return -w / (1.0 + w)


def mobius_inv(wt):
    wt = complex(wt)
    if wt.real <= -0.5:
        raise ValueError("mobius_inv needs Re w~ > -1/2, got %r" % (wt,))
    return -wt / (1.0 + wt)


@dataclass
class TwistedTriple:
    g_w: Field
    J_w: Field
    I_w: Field
    S: Field
    chart: object

    def triple(self):
        return HermitianTriple(self.g_w, self.J_w, self.chart)


def _norm2(w):
    """|w|^2 of the packed twist jet (w1, w2)."""
    return w[0] * w[0] + w[1] * w[1]


def make_sfield(J, Pp, w, theta, chart=None):
    """The S field of the twist w.

    The D+ frame dual to {theta, -theta o J} is built from the first two
    projector columns; a degenerate frame surfaces as a singular 2x2 solve.
    Every twisted field reads S, so the disc guard |w|^2 <= DISC sits here.
    """
    def sfield(pt):
        th = theta(pt)
        e2 = -(th @ J(pt))
        v = Pp(pt)[:, :2]
        E = pack([th, e2]) @ v
        det = abs(np.linalg.det(E.value))
        if det < 1e-12:
            raise JetDomainError("degenerate twist frame (|det E| = %.2e)" % det)
        wj = w(pt)
        ww = _norm2(wj)
        if ww.value > DISC:
            raise JetDomainError("twist leaves the disc: |w|^2 = %.8f" % ww.value)
        w1, w2 = wj
        return (v @ jinv(E)) @ pack([w1 * th + w2 * e2, w2 * th - w1 * e2])
    return Field(sfield, chart)


def build_twist_fields(g, endos, Pp, w, theta, chart, mode="B"):
    """The twist of the metric g and of each endomorphism in endos by one
    shared S anchored to endos[0]'s frame: (g_w, [E_w, ...], S), Fields on
    chart."""
    if mode not in ("A", "B"):
        raise ValueError("mode must be 'A' or 'B'")
    S = make_sfield(endos[0], Pp, w, theta, chart)
    one = np.eye(chart.dim)

    def gwfn(pt):
        Sv = S(pt)
        ww = _norm2(w(pt))
        fac = 1.0 / (1.0 - ww)
        if mode == "B":
            Am = one + (-2.0 * fac) * (Sv - ww * Pp(pt))
        else:
            Am = one + (2.0 * fac) * (Sv + ww * Pp(pt))
        # g_w(X, Y) = g(A X, Y): component [i][j] = g[m][j] A[m][i]
        return Am.T @ g(pt)

    def twisted(E):
        def Ewfn(pt):
            Sv = S(pt)
            ww = _norm2(w(pt))
            onem = one - Sv
            inv_onem = one + (1.0 / (1.0 - ww)) * (Sv + ww * Pp(pt))
            if mode == "B":
                return inv_onem @ (E(pt) @ onem)
            return onem @ (E(pt) @ inv_onem)
        return Field(Ewfn, chart)

    return Field(gwfn, chart), [twisted(E) for E in endos], S


def validate_twist(w, theta, chart, plan):
    """|w|^2 <= DISC and |theta| bounded away from zero at samples; raises
    with the offending point."""
    for p in chart.samples(plan):
        pe = PointEval(p)
        ww = _norm2(pe.raw(w)).value
        if ww > DISC:
            raise ValueError("twist |w| = %.8f too close to the circle at %s"
                             % (ww ** 0.5, p.tolist()))
        if np.abs(pe.jets(theta)[0]).max() < 1e-6:
            raise ValueError("twist frame degenerate (|theta| < 1.0e-06) at %s"
                             % p.tolist())


def build_twist(cal, tw, mode="B", plan=None):
    """Twist a CalabiChart (or anything with g/J/I0/proj_plus/theta fields and
    a chart) by the twist field tw with one shared S; returns a
    TwistedTriple."""
    if plan is not None:
        validate_twist(tw, cal.theta, cal.chart, plan)
    gw, (Jw, Iw), S = build_twist_fields(cal.g, [cal.J, cal.I0], cal.proj_plus, tw,
                                         cal.theta, cal.chart, mode)
    return TwistedTriple(g_w=gw, J_w=Jw, I_w=Iw, S=S, chart=cal.chart)


def norm_factor_expected(w1, w2, mode="B"):
    ww = w1 * w1 + w2 * w2
    if mode == "B":
        return ((1.0 + w1) ** 2 + w2 ** 2) / (1.0 - ww)
    return ((1.0 - w1) ** 2 + w2 ** 2) / (1.0 - ww)


def norm_factor_measured(gfn, gwfn, theta_fn, p):
    """|theta|^2_{g_w} / |theta|^2_g at p."""
    pe = at(p)
    th = pe.jets(theta_fn)[0]
    gv = pe.jets(gfn)[0]
    gwv = pe.jets(gwfn)[0]
    return float(th @ np.linalg.inv(gwv) @ th) / float(th @ np.linalg.inv(gv) @ th)


def form_invariance_point(cal, tt, p):
    """|omega_w - omega| at p for (g, J) and (g, I0): the twist leaves both
    fundamental forms unchanged."""
    pe = at(p)
    return worst(*(np.abs(pe.omega(tt.g_w, Ew).value - pe.omega(cal.g, E).value).max()
                   for Ew, E in ((tt.J_w, cal.J), (tt.I_w, cal.I0))))


def transverse_holomorphy_point(Jfn, Ppfn, wfn, p):
    """max |dw2(P-X) + dw1(J P-X)| over the D- coordinate frame at p; this is
    the quantity that gates integrability of the twisted structure."""
    pe = at(p)
    w1, w2 = pe.raw(wfn)
    Jv = pe.jets(Jfn)[0]
    Pmv = np.eye(Jv.shape[0]) - pe.jets(Ppfn)[0]
    return worst(0.0, *(abs(float(w2.grad @ X) + float(w1.grad @ (Jv @ X)))
                        for X in Pmv.T if np.abs(X).max() >= 1e-13))


def transverse_holomorphy_residuals(Jfn, Ppfn, wfn, chart, plan):
    """Max over samples of transverse_holomorphy_point, as {"primary": ...}."""
    res = fold(chart.samples(plan),
               lambda pe: transverse_holomorphy_point(Jfn, Ppfn, wfn, pe))
    return {"primary": res.max()}


def ricci_identity_check(cal, tw, tt, p):
    """Residuals of the twisted-Ricci identities at p, for the log profile.

    corrected: rho^{g_w} = rho_N(lifted) + ((m-1)/2)(d J_w d) ln z
                          - (1/2)(d J_w d) ln(1-|w|^2)
    printed:   rho^{g_w} = rho_N(lifted) - (1/2)(d J_w d) ln(1-|w|^2)

    (printed is the two-term form without the fiber correction; its residual
    is reported, not asserted).  Returns the two residuals and the size of the
    correction term.
    """
    m = cal.m
    n = cal.chart.dim
    pe = at(p)
    Jwv, Jwg, _ = pe.jets(tt.J_w)
    rho_w = ricci_form(tt.triple(), pe, check=False)
    rho_N = np.zeros((n, n))
    rho_N[2:, 2:] = ricci_form(cal.base, pe.sub(2), check=False)   # lifted base form

    x = pe.x
    ddz = ddc_from_jets(jlog(x[1]), Jwv, Jwg)
    w1, w2 = pe.raw(tw)
    ww = w1 * w1 + w2 * w2
    fw = jlog(1.0 - ww)
    ddw = ddc_from_jets(fw, Jwv, Jwg)

    corr = 0.5 * (m - 1) * ddz
    corrected = np.abs(rho_w - rho_N - corr + 0.5 * ddw).max()
    printed = np.abs(rho_w - rho_N + 0.5 * ddw).max()
    return {"corrected": corrected, "printed": printed,
            "correction_size": np.abs(corr).max()}


def zeta_duality_residual(gfn, Jfn, gwfn, Jwfn, theta_fn, p):
    """J_w zeta_w = J zeta, with zeta/zeta_w the metric duals of theta."""
    pe = at(p)
    th = pe.jets(theta_fn)[0]
    zeta = np.linalg.solve(pe.jets(gfn)[0], th)
    zeta_w = np.linalg.solve(pe.jets(gwfn)[0], th)
    return np.abs(pe.jets(Jwfn)[0] @ zeta_w - pe.jets(Jfn)[0] @ zeta).max()


def solve_single_twist(g0fn, gcompfn, J0fn, Ppfn, theta_fn, p):
    """Recover the single-twist parameter reproducing a composite metric at p
    (mode B, frame {theta, -theta o J})."""
    pe = at(p)
    gv0 = pe.jets(g0fn)[0]
    gvc = pe.jets(gcompfn)[0]
    th = pe.jets(theta_fn)[0]
    e2 = -th @ pe.jets(J0fn)[0]
    v = pe.jets(Ppfn)[0][:, [0, 1]]
    E = np.stack([th @ v, e2 @ v])
    u = v @ np.linalg.inv(E)
    C = np.linalg.inv(gv0) @ gvc
    B = np.stack([th @ C @ u, e2 @ C @ u])
    tau = B[0, 0] + B[1, 1]
    ww = (tau - 2.0) / (tau + 2.0)
    S3 = 0.5 * ((1.0 + ww) * np.eye(2) - (1.0 - ww) * B)
    return S3[0, 0], S3[0, 1]
