"""The homothetic-foliation residual, Lee-form extraction, O'Neill tensors,
and the pointwise classifier.

The splitting TM = D+ + D- is given by the projector field Pp onto the rank-2
distribution D+ (D- is its complement, P- = 1 - P+).

The Lee form is never taken from a builder: it is extracted from the metric by
the trace formula theta(V) = tr(g^{-1} (L_V g) P_minus) / (dim - 2) over a
D+ frame, which turns the homothetic equation L_V g = theta(V) g on D- into a
genuine two-sided test. zeta denotes the g-dual of theta.

The classifier computes only what its verdict reads: the homothetic
residual, the O'Neill tensors, |theta|, and |theta|_g, below whose floor the
chi_1 stage is skipped.  No command reads the structure equations of a
holomorphic foliation (D+ holomorphy, d omega_- = theta ^ omega_-, the two
chi_1 routes): they are a test oracle in tests/paper_claims.py.
"""

import numpy as np

from kahlerkit.jets import Jet2, contract, jeinsum, jet_dcoord, jinv
from kahlerkit.fields import worst, excluded

VERDICT_HOLOMORPHIC = "holomorphic"
VERDICT_GEODESIC = "geodesic_riemannian"
VERDICT_PRODUCT = "kahler_product"
VERDICT_FAILED = "failed"

FRAME_TOL = 1e-8      # a D+ frame's two projector columns: least Gram determinant
THETA_FLOOR = 1e-6    # classify_point: |theta|_g below it skips the chi_1 stage
VERDICT_TOL = 1e-6    # foliation_report: a residual at or below it vanishes


def _frame_columns(Pv):
    """Two column indices of the rank-2 projector giving a well-conditioned
    D+ frame: the first pair (i, j), i < j, with the largest Gram determinant
    G_ii G_jj - G_ij^2 of its columns, G = P^T P (on a stack of projectors,
    each one's pair: two index arrays over the stack)."""
    G = Pv.swapaxes(-1, -2) @ Pv
    d = np.diagonal(G, axis1=-2, axis2=-1)
    i, j = np.triu_indices(d.shape[-1], 1)
    det = np.abs(d[..., i] * d[..., j] - G[..., i, j] ** 2)
    if not det.shape[-1] or np.any(det.max(axis=-1) < FRAME_TOL):
        raise ValueError("projector has rank below two")
    best = det.argmax(axis=-1)
    return i[best], j[best]


def _columns(M, cols):
    """The first-order jet of the columns cols of the matrix jet M (at each
    point, that point's pair of _frame_columns): its value and gradient."""
    idx = np.stack(cols, axis=-1)[:, None, :]
    return Jet2(*(np.take_along_axis(a, idx.reshape(idx.shape + (1,) * (a.ndim - 3)), 2)
                  for a in (M.value, M.grad)))


def theta_jets(t, Pp, pe):
    """Jet-level Lee-form extraction at pe.

    Returns (theta, homothetic_residual, thetaV, cols) where theta is the Lee
    form as a first-order jet (value and grad exact, no Hessian: it is built
    from the jet_dcoord derivatives of g and the frame) and thetaV the
    first-order theta(V_a) jets for the D+ frame: the first-order jets V_a
    of the columns cols of P+ that _frame_columns picks.
    """
    g = pe.raw(t.g)
    P = pe.raw(Pp)
    n = g.shape[0]
    cols = _frame_columns(P.value)
    V = _columns(P, cols)
    # (L_V g)_ij for each frame column V, as first-order jets: the
    # v-derivatives of g and V come from the jet grads
    dV = _columns(jet_dcoord(P), cols)
    L = (jeinsum("ka,ijk->aij", V, jet_dcoord(g)) + jeinsum("kj,kai->aij", g, dV)
         + jeinsum("ik,kaj->aij", g, dV))
    thetaV = jeinsum("aij,ji->a", jeinsum("ij,ajk->aik", pe.inverse(t.g), L),
                     np.eye(n) - P) * (1.0 / (n - 2))
    Pmv = (np.eye(n) - P.value)[..., None, :, :]
    D = Pmv.swapaxes(-1, -2) @ (L.value - thetaV.value[..., None, None]
                                * g.value[..., None, :, :]) @ Pmv
    resid = worst(0.0, pe.absmax(D))

    # assemble theta as a 1-form: theta(d_i) = theta(P+ d_i) expanded in the
    # frame; V is first order, and so are its products
    VTg = V.T @ g
    theta = thetaV @ (jinv(VTg @ V) @ (VTg @ P))
    return theta, resid, thetaV, cols


def _lee(t, Pp, pe):
    """theta_jets at pe, run once per point: (theta jet, homothetic residual)."""
    return pe.cached("lee", (t.g, Pp), lambda: theta_jets(t, Pp, pe)[:2])


def extract_theta(t, Pp, pe):
    """Lee-form components at pe (vanishes on D- by construction)."""
    return _lee(t, Pp, pe)[0].value


def homothetic_point(t, Pp, pe):
    """The D- block residual of L_V g - theta(V) g at pe, and |d theta|."""
    theta, resid = _lee(t, Pp, pe)
    thg = theta.grad
    return {"homothetic": resid, "dtheta": pe.absmax(thg.swapaxes(-1, -2) - thg)}


def oneill_tensors(t, Pp, pe):
    """(xi, xi_ring) at pe.

    xi[k,i,j] is the (D - nabla) tensor on coordinate arguments; xi_ring is the
    D-x D- part with the zeta terms of the homothetic second fundamental form
    removed: xi_ring = xi|_{D-} - (1/2)<JX,Y> Jzeta - (1/2)<X,Y> zeta.
    """
    gv = pe.raw(t.g).value
    Gam, _, gi = pe.christoffel(t.g)
    Jv = pe.raw(t.J).value
    P = pe.raw(Pp)
    Ppv, Ppg = P.value, P.grad
    n = gv.shape[-1]
    Pmv = np.eye(n) - Ppv
    # covP[m,i,j] = d_i P^m_j + Gamma^m_{ia} P^a_j; P- = 1 - P+, so covP- is
    # Gamma - covP+
    covPp = Ppg.swapaxes(-1, -2) + contract("Zmia,Zaj->Zmij", Gam, Ppv)
    xi = -(contract("Zkm,Zmij->Zkij", Ppv, Gam - covPp) + contract("Zkm,Zmij->Zkij", Pmv, covPp))
    zeta = contract("Zij,Zj->Zi", gi, _lee(t, Pp, pe)[0].value)
    Jzeta = contract("Zij,Zj->Zi", Jv, zeta)
    om = pe.omega(t.g, t.J).value
    PmT = Pmv.swapaxes(-1, -2)
    ip_m = PmT @ gv @ Pmv
    om_m = PmT @ om @ Pmv
    xi_minus = PmT[..., None, :, :] @ xi @ Pmv[..., None, :, :]
    xi_ring = (xi_minus - 0.5 * (Jzeta[..., :, None, None] * om_m[..., None, :, :])
               - 0.5 * (zeta[..., :, None, None] * ip_m[..., None, :, :]))
    return xi, xi_ring


def dplus_geodesic_residual(xi, Ppv):
    """max |P+^T xi P+| (at each point of a batch)."""
    Pv = Ppv[..., None, :, :]
    return np.abs(Pv.swapaxes(-1, -2) @ xi @ Pv).max(axis=(-3, -2, -1))


def classify_point(t, Pp, pe):
    """The residuals foliation_report reads at pe: the homothetic residual,
    max |theta|, max |xi|, max |xi_ring| and max |xi| on D+ x D+ (O'Neill
    tensors), and |theta|_g^2, excluded where |theta|_g falls below
    THETA_FLOOR."""
    theta, hom = _lee(t, Pp, pe)
    thv = theta.value
    norm2 = contract("Zi,Zi->Z", contract("Zi,Zij->Zj", thv, pe.inverse(t.g).value), thv)
    xi, xi_ring = oneill_tensors(t, Pp, pe)
    return {"homothetic": hom, "theta_max": pe.absmax(thv),
            "theta_norm2": excluded(norm2 < THETA_FLOOR ** 2, norm2),
            "ring": pe.absmax(xi_ring), "xi": pe.absmax(xi),
            "geodesic": dplus_geodesic_residual(xi, pe.raw(Pp).value)}


def foliation_report(res):
    """(verdict, points used, points excluded) of a fold of classify_point:
    the homothetic residual gates everything; then the verdict is
    kahler_product / geodesic_riemannian / holomorphic by the vanishing
    pattern of theta and the O'Neill tensors.  A non-finite residual (the
    fold's error) fails every gate.  The points excluded are those below the
    theta floor, where the chi_1 stage is skipped (theta_norm2's excluded
    count); the residuals themselves are the fold's, by their classify_point
    keys."""
    hom, ring, geod, xi_all, theta_max = (
        res.max(k) for k in ("homothetic", "ring", "geodesic", "xi", "theta_max"))
    if res.error or not hom <= VERDICT_TOL:
        verdict = VERDICT_FAILED
    elif theta_max <= VERDICT_TOL and xi_all <= VERDICT_TOL:
        verdict = VERDICT_PRODUCT
    elif theta_max <= VERDICT_TOL and geod <= VERDICT_TOL:
        verdict = VERDICT_GEODESIC
    elif ring <= VERDICT_TOL:
        verdict = VERDICT_HOLOMORPHIC
    else:
        verdict = VERDICT_FAILED
    skipped = res.excluded.get("theta_norm2", 0)
    return verdict, res.points - skipped, skipped
