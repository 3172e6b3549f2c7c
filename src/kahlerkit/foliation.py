"""The homothetic-foliation residual, Lee-form extraction, O'Neill tensors,
structure-equation checks, and the pointwise classifier.

The splitting TM = D+ + D- is given by the projector field Pp onto the rank-2
distribution D+ (D- is its complement, P- = 1 - P+).

The Lee form is never taken from a builder: it is extracted from the metric by
the trace formula theta(V) = tr(g^{-1} (L_V g) P_minus) / (dim - 2) over a
D+ frame, which turns the homothetic equation L_V g = theta(V) g on D- into a
genuine two-sided test. zeta denotes the g-dual of theta.
"""

import numpy as np

from kahlerkit.jets import Jet2, contract, jeinsum, jet_dcoord, jinv
from kahlerkit.fields import (worst, excluded, least_squares, lie_endo_from_jets,
                              exterior_from_grad, wedge12)

VERDICT_HOLOMORPHIC = "holomorphic"
VERDICT_GEODESIC = "geodesic_riemannian"
VERDICT_PRODUCT = "kahler_product"
VERDICT_FAILED = "failed"

FRAME_TOL = 1e-8      # a D+ frame's two projector columns: least Gram determinant
THETA_FLOOR = 1e-6    # structure_point: |theta| below it excludes the theta residuals
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


def _frame(Pp, pe):
    """The D+ frame at pe, once per point: the first-order jet of the columns
    of P+ that _frame_columns picks, and those columns."""
    def compute():
        P = pe.raw(Pp)
        cols = _frame_columns(P.value)
        return _columns(P, cols), cols
    return pe.cached("frame", (Pp,), compute)


def theta_jets(t, Pp, pe):
    """Jet-level Lee-form extraction at pe.

    Returns (theta, homothetic_residual, thetaV, cols) where theta is the Lee
    form as a first-order jet (value and grad exact, no Hessian: it is built
    from the jet_dcoord derivatives of g and the frame) and thetaV the
    first-order theta(V_a) jets for the D+ frame columns.
    """
    g = pe.raw(t.g)
    P = pe.raw(Pp)
    n = g.shape[0]
    V, cols = _frame(Pp, pe)
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


def structure_point(t, Pp, pe):
    """Structure-equation residuals at pe: D+ holomorphy (proj_minus o (L_X J)
    over a D+ frame), d(omega_minus) = theta ^ omega_minus, and the two chi_1
    routes: the L_zeta J coefficient fit against -2|theta|^{-2} L_{Jzeta}
    ln|theta|.  Where |theta| falls below THETA_FLOOR only holomorphy is
    defined; wedge_minus, chi1 and lie_fit are excluded there.
    """
    J = pe.raw(t.J)
    Jv, Jg = J.value, J.grad
    P = pe.raw(Pp)
    V = _frame(Pp, pe)[0]
    Pmv = np.eye(P.value.shape[-1]) - P.value
    hol = worst(*(pe.absmax(Pmv @ lie_endo_from_jets(V.value[..., a], V.grad[..., a, :], Jv, Jg))
                  for a in (0, 1)))
    theta = _lee(t, Pp, pe)[0]
    thv = theta.value
    gi = pe.inverse(t.g)
    norm2 = contract("Zi,Zi->Z", contract("Zi,Zij->Zj", thv, gi.value), thv)
    skip = norm2 < THETA_FLOOR ** 2

    # omega_minus = omega - P+^T omega P+ as a jet field, then d of it
    om = pe.omega(t.g, t.J)
    omm = om - P.T @ om @ P
    wedge_minus = pe.absmax(exterior_from_grad(omm.grad, 2) - wedge12(thv, omm.value))

    # chi_1 from the L_zeta J coefficient fit vs the logarithmic formula
    zeta = gi @ theta
    zv = zeta.value
    LzJ = lie_endo_from_jets(zv, zeta.grad, Jv, Jg)
    Jz = contract("Zij,Zj->Zi", Jv, zv)
    thJ = contract("Zi,Zij->Zj", thv, Jv)
    basis = [z[..., :, None] * th[..., None, :] for z in (zv, Jz) for th in (thv, thJ)]
    Amat = np.stack([b.reshape(b.shape[:-2] + (-1,)) for b in basis], axis=-1)
    bvec = LzJ.reshape(Amat.shape[:-1])
    cvec = least_squares(Amat, bvec)
    lie_fit = pe.absmax(contract("Zij,Zj->Zi", Amat, cvec) - bvec)
    # |theta|^2 = theta_i g^ij theta_j as a jet
    chi1_log = (-contract("Zi,Zi->Z", Jz, (theta @ zeta).grad)
                / np.where(skip, 1.0, norm2) ** 2)
    return {"holomorphy": hol, "wedge_minus": excluded(skip, wedge_minus),
            "chi1": excluded(skip, np.abs(cvec[..., 0] - chi1_log)),
            "lie_fit": excluded(skip, lie_fit)}


def classify_point(t, Pp, pe):
    """Every classifier residual at pe: the homothetic and Lee-form residuals,
    the O'Neill tensors and the structure_point residuals."""

    def compute():
        xi, xi_ring = oneill_tensors(t, Pp, pe)
        return dict(homothetic_point(t, Pp, pe), **structure_point(t, Pp, pe),
                    theta_max=pe.absmax(_lee(t, Pp, pe)[0].value), ring=pe.absmax(xi_ring),
                    xi=pe.absmax(xi), geodesic=dplus_geodesic_residual(xi, pe.raw(Pp).value))
    return pe.cached("classify", (t.g, t.J, Pp), compute)


def foliation_report(res):
    """(verdict, points used, points excluded) of a fold of classify_point:
    the homothetic residual gates everything; then the verdict is
    kahler_product / geodesic_riemannian / holomorphic by the vanishing
    pattern of theta and the O'Neill tensors.  A non-finite residual (the
    fold's error) fails every gate.  The points excluded are those below the
    theta floor, where the chi_1 stage is skipped; the residuals themselves
    are the fold's, by their classify_point keys."""
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
    skipped = res.excluded.get("wedge_minus", 0)
    return verdict, res.points - skipped, skipped
