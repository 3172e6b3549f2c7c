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
deformation exactly.  |w|^2, 1/(1-|w|^2), |w|^2 P+, 1-S and (1-S)^{-1} are
Fields of their own, which S's disc guard, g_w and every E_w read through
the point's memo, so each runs once per point.  theta must be supplied as
an exact jet closure: an extracted Lee form is a first-order jet, and the
curvature of the twisted metric, which needs its Hessian, would raise
FirstOrderError.
"""

from dataclasses import dataclass

import numpy as np

from kahlerkit.jets import JetDomainError, contract, jinv, jlog, pack
from kahlerkit.fields import Field, worst
from kahlerkit.hermitian import HermitianTriple, ddc_from_jets, ricci_form

# The largest |w|^2 a twist may reach; the S field and
# transverse_holomorphy_point reject a point beyond it, or a NaN |w|^2.
DISC = 1.0 - 1e-6


def constant_twist(c1, c2=0.0):
    def fn(pt):
        return np.array([c1, c2])
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


def _check_disc(ww):
    """Raise JetDomainError unless the |w|^2 values ww are all <= DISC (a NaN
    is not)."""
    out = ~(ww <= DISC)
    if out.any():
        raise JetDomainError("twist leaves the disc: |w|^2 = %.8f" % ww[out].max())


def _norm2_field(w):
    """The Field |w|^2 of the twist w."""
    return Field(lambda pt: _norm2(w(pt)))


def make_sfield(J, Pp, w, theta, ww=None):
    """The S field of the twist w; ww is the Field |w|^2 it guards with
    (_norm2_field(w) when omitted).

    The D+ frame dual to {theta, -theta o J} is built from the first two
    projector columns; a degenerate frame (|det E| < 1e-12, as where theta
    vanishes) raises JetDomainError.
    Every twisted field reads S, so the disc guard |w|^2 <= DISC sits here.
    On a batch both guards test every point and name the worst one.
    """
    if ww is None:
        ww = _norm2_field(w)

    def sfield(pt):
        th = theta(pt)
        e2 = -(th @ J(pt))
        v = Pp(pt)[:, :2]
        E = pack([th, e2]) @ v
        det = np.abs(np.linalg.det(E.value))
        if (det < 1e-12).any():
            raise JetDomainError("degenerate twist frame (|det E| = %.2e)" % det.min())
        _check_disc(ww(pt).value)
        w1, w2 = w(pt)
        return (v @ jinv(E)) @ pack([w1 * th + w2 * e2, w2 * th - w1 * e2])
    return Field(sfield)


def build_twist_fields(g, endos, Pp, w, theta, chart, mode="B"):
    """The twist of the metric g and of each endomorphism in endos by one
    shared S anchored to endos[0]'s frame: (g_w, [E_w, ...], S), Fields on
    chart.  They share the Fields |w|^2, 1/(1-|w|^2), |w|^2 P+, 1-S and
    (1-S)^{-1}."""
    if mode not in ("A", "B"):
        raise ValueError("mode must be 'A' or 'B'")
    ww = _norm2_field(w)
    S = make_sfield(endos[0], Pp, w, theta, ww)
    one = np.eye(chart.dim)

    def facfn(pt):
        S(pt)   # S's guards name a point off the disc before 1 - |w|^2 is inverted
        return 1.0 / (1.0 - ww(pt))
    fac = Field(facfn)
    wwP = Field(lambda pt: ww(pt) * Pp(pt))
    onem = Field(lambda pt: one - S(pt))
    inv_onem = Field(lambda pt: one + fac(pt) * (S(pt) + wwP(pt)))

    def gwfn(pt):
        if mode == "B":
            Am = one + (-2.0 * fac(pt)) * (S(pt) - wwP(pt))
        else:
            Am = one + (2.0 * fac(pt)) * (S(pt) + wwP(pt))
        # g_w(X, Y) = g(A X, Y): component [i][j] = g[m][j] A[m][i]
        return Am.T @ g(pt)

    def twisted(E):
        def Ewfn(pt):
            if mode == "B":
                return inv_onem(pt) @ (E(pt) @ onem(pt))
            return onem(pt) @ (E(pt) @ inv_onem(pt))
        return Field(Ewfn)

    return Field(gwfn), [twisted(E) for E in endos], S


def build_twist(cal, tw, mode="B"):
    """Twist a CalabiChart (or anything with g/J/I0/proj_plus/theta fields and
    a chart) by the twist field tw with one shared S; returns a
    TwistedTriple."""
    gw, (Jw, Iw), S = build_twist_fields(cal.g, [cal.J, cal.I0], cal.proj_plus, tw,
                                         cal.theta, cal.chart, mode)
    return TwistedTriple(g_w=gw, J_w=Jw, I_w=Iw, S=S, chart=cal.chart)


def norm_factor_expected(w1, w2, mode="B"):
    ww = w1 * w1 + w2 * w2
    if mode == "B":
        return ((1.0 + w1) ** 2 + w2 ** 2) / (1.0 - ww)
    return ((1.0 - w1) ** 2 + w2 ** 2) / (1.0 - ww)


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
    """Residuals of the twisted-Ricci identities at pe, for the log profile.

    corrected: rho^{g_w} = rho_N(lifted) + ((m-1)/2)(d J_w d) ln z
                          - (1/2)(d J_w d) ln(1-|w|^2)
    printed:   rho^{g_w} = rho_N(lifted) - (1/2)(d J_w d) ln(1-|w|^2)

    (printed is the two-term form without the fiber correction; its residual
    is reported, not asserted).  Returns the two residuals and the size of the
    correction term.
    """
    m = cal.m
    Jw = pe.raw(tt.J_w)
    rho_w = ricci_form(tt.triple(), pe)
    rho_N = np.zeros_like(rho_w)
    rho_N[..., 2:, 2:] = ricci_form(cal.base, pe.sub(2))   # lifted base form

    ddz = ddc_from_jets(jlog(pe[1]), Jw)
    w1, w2 = pe.raw(tw)
    ww = w1 * w1 + w2 * w2
    fw = jlog(1.0 - ww)
    ddw = ddc_from_jets(fw, Jw)

    corr = 0.5 * (m - 1) * ddz
    return {"corrected": pe.absmax(rho_w - rho_N - corr + 0.5 * ddw),
            "printed": pe.absmax(rho_w - rho_N + 0.5 * ddw),
            "correction_size": pe.absmax(corr)}


def zeta_duality_residual(gfn, Jfn, gwfn, Jwfn, theta_fn, pe):
    """J_w zeta_w = J zeta, with zeta/zeta_w the metric duals of theta."""
    th = pe.raw(theta_fn).value
    zeta, zeta_w = (contract("Zij,Zj->Zi", pe.inverse(g).value, th) for g in (gfn, gwfn))
    return pe.absmax(contract("Zij,Zj->Zi", pe.raw(Jwfn).value, zeta_w)
                     - contract("Zij,Zj->Zi", pe.raw(Jfn).value, zeta))


def solve_single_twist(g0fn, gcompfn, J0fn, Ppfn, theta_fn, pe):
    """Recover the single-twist parameter (w1, w2) reproducing a composite
    metric at each point of pe (mode B, frame {theta, -theta o J})."""
    gvc = pe.raw(gcompfn).value
    th = pe.raw(theta_fn).value[..., None, :]
    F = np.concatenate([th, -th @ pe.raw(J0fn).value], axis=-2)   # rows theta, e2
    v = pe.raw(Ppfn).value[..., :2]
    u = v @ np.linalg.inv(F @ v)
    C = pe.inverse(g0fn).value @ gvc
    B = F @ C @ u
    tau = B[..., 0, 0] + B[..., 1, 1]
    ww = ((tau - 2.0) / (tau + 2.0))[..., None, None]
    S3 = 0.5 * ((1.0 + ww) * np.eye(2) - (1.0 - ww) * B)
    return S3[..., 0, 0], S3[..., 0, 1]
