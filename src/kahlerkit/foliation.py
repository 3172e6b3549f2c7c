"""The homothetic-foliation residual, Lee-form extraction, O'Neill tensors,
structure-equation checks, and the pointwise classifier.

The splitting TM = D+ + D- is given by the projector field Pp onto the rank-2
distribution D+ (D- is its complement, P- = 1 - P+).

The Lee form is never taken from a builder: it is extracted from the metric by
the trace formula theta(V) = tr(g^{-1} (L_V g) P_minus) / (dim - 2) over a
D+ frame, which turns the homothetic equation L_V g = theta(V) g on D- into a
genuine two-sided test. zeta denotes the g-dual of theta.
"""

from dataclasses import dataclass, field

import numpy as np

from kahlerkit.jets import jeinsum, jet_dcoord, jinv
from kahlerkit.fields import (at, fold, worst, lie_endo_from_jets,
                              exterior_from_grad, wedge12)

VERDICT_HOLOMORPHIC = "holomorphic"
VERDICT_GEODESIC = "geodesic_riemannian"
VERDICT_PRODUCT = "kahler_product"
VERDICT_FAILED = "failed"


@dataclass
class FoliationReport:
    theta_closed_residual: float
    homothetic_residual: float
    oneill_ring_residual: float
    dplus_totally_geodesic_residual: float
    holomorphy_residual: float
    chi1_consistency_residual: float
    verdict: str
    points_used: int = 0
    points_excluded: int = 0
    diagnostics: dict = field(default_factory=dict)


def _frame_columns(Pv, tol=1e-8):
    """Two column indices of the rank-2 projector giving a well-conditioned
    D+ frame: the first pair (i, j), i < j, with the largest Gram determinant
    G_ii G_jj - G_ij^2 of its columns, G = P^T P."""
    G = Pv.T @ Pv
    d = np.diag(G)
    i, j = np.triu_indices(len(d), 1)
    det = np.abs(d[i] * d[j] - G[i, j] ** 2)
    if not det.size or det.max() < tol:
        raise ValueError("projector has rank below two")
    best = det.argmax()
    return int(i[best]), int(j[best])


def theta_jets(t, Pp, p):
    """Jet-level Lee-form extraction at p.

    Returns (theta, homothetic_residual, thetaV, cols) where theta is the Lee
    form as a first-order-valid jet (value and grad exact; hess padding) and
    thetaV the theta(V_a) jets for the D+ frame columns.
    """
    pe = at(p)
    g = pe.raw(t.g)
    P = pe.raw(Pp)
    n = g.shape[0]
    Pv = P.value
    cols = _frame_columns(Pv)
    V = P[:, list(cols)]
    # (L_V g)_ij for each frame column V, as first-order jets: the
    # v-derivatives of g and V come from the jet grads
    dV = jet_dcoord(V)
    L = (jeinsum("ka,ijk->aij", V, jet_dcoord(g)) + jeinsum("kj,kai->aij", g, dV)
         + jeinsum("ik,kaj->aij", g, dV))
    thetaV = jeinsum("aij,ji->a", jeinsum("ij,ajk->aik", pe.inverse(t.g), L),
                     np.eye(n) - P) * (1.0 / (n - 2))
    Pmv = np.eye(n) - Pv
    D = Pmv.T @ (L.value - thetaV.value[:, None, None] * g.value) @ Pmv
    resid = worst(0.0, np.abs(D).max())

    # assemble theta as a 1-form: theta(d_i) = theta(P+ d_i) expanded in the frame
    VTg = V.T @ g
    theta = thetaV @ (jinv(VTg @ V) @ (VTg @ P))
    return theta, resid, thetaV, cols


def _lee(t, Pp, pe):
    """theta_jets at pe, run once per point: (theta jet, homothetic residual)."""
    return pe.cached("lee", (t.g, Pp), lambda: theta_jets(t, Pp, pe)[:2])


def extract_theta(t, Pp, p):
    """Lee-form components at p (vanishes on D- by construction)."""
    return _lee(t, Pp, at(p))[0].value


def homothetic_point(t, Pp, p):
    """The D- block residual of L_V g - theta(V) g at p, and |d theta|."""
    theta, resid = _lee(t, Pp, at(p))
    thg = theta.grad
    return {"homothetic": resid, "dtheta": np.abs(thg.T - thg).max()}


def homothetic_residual(t, Pp, plan):
    """Max over samples of the homothetic_point residuals."""
    res = fold(t.chart.samples(plan), lambda pe: homothetic_point(t, Pp, pe))
    return {"homothetic": res.max("homothetic"), "dtheta": res.max("dtheta"),
            "points": res.points}


def oneill_tensors(t, Pp, p):
    """(xi, xi_ring) at p.

    xi[k,i,j] is the (D - nabla) tensor on coordinate arguments; xi_ring is the
    D-x D- part with the zeta terms of the homothetic second fundamental form
    removed: xi_ring = xi|_{D-} - (1/2)<JX,Y> Jzeta - (1/2)<X,Y> zeta.
    """
    pe = at(p)
    gv = pe.jets(t.g)[0]
    Gam, _, gi = pe.christoffel(t.g)
    Jv = pe.jets(t.J)[0]
    Ppv, Ppg, _ = pe.jets(Pp)
    n = gv.shape[0]
    Pmv = np.eye(n) - Ppv
    Pmg = -Ppg
    # covP[m,i,j] = d_i P^m_j + Gamma^m_{ia} P^a_j
    covPp = np.einsum('mji->mij', Ppg) + np.einsum('mia,aj->mij', Gam, Ppv)
    covPm = np.einsum('mji->mij', Pmg) + np.einsum('mia,aj->mij', Gam, Pmv)
    xi = -(np.einsum('km,mij->kij', Ppv, covPm) + np.einsum('km,mij->kij', Pmv, covPp))
    zeta = gi @ _lee(t, Pp, pe)[0].value
    Jzeta = Jv @ zeta
    om = pe.omega(t.g, t.J).value
    ip_m = Pmv.T @ gv @ Pmv
    om_m = Pmv.T @ om @ Pmv
    xi_minus = Pmv.T @ xi @ Pmv
    xi_ring = (xi_minus - 0.5 * np.einsum('ij,k->kij', om_m, Jzeta)
               - 0.5 * np.einsum('ij,k->kij', ip_m, zeta))
    return xi, xi_ring


def dplus_geodesic_residual(xi, Ppv):
    return np.abs(Ppv.T @ xi @ Ppv).max()


def structure_point(t, Pp, p, skip_theta_below=1e-6):
    """Structure-equation residuals at p: D+ holomorphy (proj_minus o (L_X J)
    over a D+ frame), d(omega_minus) = theta ^ omega_minus, and the two chi_1
    routes: the L_zeta J coefficient fit against -2|theta|^{-2} L_{Jzeta}
    ln|theta|.  Where |theta| falls below the threshold only holomorphy is
    defined; wedge_minus, chi1 and lie_fit are None there.
    """
    pe = at(p)
    Jv, Jg, _ = pe.jets(t.J)
    P = pe.raw(Pp)
    Ppv, Ppg = P.value, P.grad
    Pmv = np.eye(Ppv.shape[0]) - Ppv
    hol = worst(*(np.abs(Pmv @ lie_endo_from_jets(Ppv[:, a], Ppg[:, a, :], Jv, Jg)).max()
                  for a in _frame_columns(Ppv)))
    out = {"holomorphy": hol, "wedge_minus": None, "chi1": None, "lie_fit": None}
    theta = _lee(t, Pp, pe)[0]
    thv = theta.value
    gi = pe.inverse(t.g)
    norm2 = float(thv @ gi.value @ thv)
    if norm2 < skip_theta_below ** 2:
        return out

    # omega_minus = omega - P+^T omega P+ as a jet field, then d of it
    om = pe.omega(t.g, t.J)
    omm = om - P.T @ om @ P
    out["wedge_minus"] = np.abs(exterior_from_grad(omm.grad, 2) - wedge12(thv, omm.value)).max()

    # chi_1 from the L_zeta J coefficient fit vs the logarithmic formula
    zeta = gi @ theta
    zv = zeta.value
    LzJ = lie_endo_from_jets(zv, zeta.grad, Jv, Jg)
    Jz = Jv @ zv
    thJ = thv @ Jv
    basis = [np.einsum('j,k->kj', thv, zv), np.einsum('j,k->kj', thJ, zv),
             np.einsum('j,k->kj', thv, Jz), np.einsum('j,k->kj', thJ, Jz)]
    Amat = np.stack([b.ravel() for b in basis], axis=1)
    cvec, _, _, _ = np.linalg.lstsq(Amat, LzJ.ravel(), rcond=None)
    out["lie_fit"] = np.abs(Amat @ cvec - LzJ.ravel()).max()
    # |theta|^2 = theta_i g^ij theta_j as a jet
    chi1_log = -float(Jz @ (theta @ zeta).grad) / (norm2 ** 2)
    out["chi1"] = abs(cvec[0] - chi1_log)
    return out


def structure_equation_checks(t, Pp, plan, skip_theta_below=1e-6):
    """Max over samples of the structure_point residuals; points where
    |theta| is below the threshold are counted in 'points_excluded'."""
    res = fold(t.chart.samples(plan),
               lambda pe: structure_point(t, Pp, pe, skip_theta_below))
    out = {k: res.max(k) for k in ("wedge_minus", "holomorphy", "chi1", "lie_fit")}
    out.update(points_used=res.used("wedge_minus"),
               points_excluded=res.excluded.get("wedge_minus", 0))
    return out


def classify_point(t, Pp, p):
    """Every classifier residual at p: the homothetic and Lee-form residuals,
    the O'Neill tensors and the structure_point residuals."""
    pe = at(p)

    def compute():
        xi, xi_ring = oneill_tensors(t, Pp, pe)
        return dict(homothetic_point(t, Pp, pe), **structure_point(t, Pp, pe),
                    theta_max=np.abs(_lee(t, Pp, pe)[0].value).max(), ring=np.abs(xi_ring).max(),
                    xi=np.abs(xi).max(),
                    geodesic=dplus_geodesic_residual(xi, pe.jets(Pp)[0]))
    return pe.cached("classify", (t.g, t.J, Pp), compute)


def foliation_report(res, tol=1e-6):
    """Verdict of a fold of classify_point: the homothetic residual gates
    everything; then the verdict is kahler_product / geodesic_riemannian /
    holomorphic by the vanishing pattern of theta and the O'Neill tensors.
    A non-finite residual (the fold's error) fails every gate."""
    hom, ring, geod, xi_all, theta_max = (
        res.max(k) for k in ("homothetic", "ring", "geodesic", "xi", "theta_max"))
    if res.error or not hom <= tol:
        verdict = VERDICT_FAILED
    elif theta_max <= tol and xi_all <= tol:
        verdict = VERDICT_PRODUCT
    elif theta_max <= tol and geod <= tol:
        verdict = VERDICT_GEODESIC
    elif ring <= tol:
        verdict = VERDICT_HOLOMORPHIC
    else:
        verdict = VERDICT_FAILED
    excluded = res.excluded.get("wedge_minus", 0)
    return FoliationReport(
        theta_closed_residual=res.max("dtheta"),
        homothetic_residual=hom,
        oneill_ring_residual=ring,
        dplus_totally_geodesic_residual=geod,
        holomorphy_residual=res.max("holomorphy"),
        chi1_consistency_residual=worst(res.max("chi1"), res.max("lie_fit")),
        verdict=verdict,
        points_used=res.points - excluded,
        points_excluded=excluded,
        diagnostics={"xi_total": xi_all, "theta_max": theta_max,
                     "wedge_minus": res.max("wedge_minus")},
    )


def classify(t, Pp, plan, tol=1e-6):
    """Pointwise classifier: the foliation_report of classify_point over the
    plan's samples."""
    return foliation_report(fold(t.chart.samples(plan),
                                 lambda pe: classify_point(t, Pp, pe)), tol)
