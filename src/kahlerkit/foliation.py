"""Splittings, the homothetic-foliation residual, Lee-form extraction, O'Neill
tensors, structure-equation checks, and the pointwise classifier.

The Lee form is never taken from a builder: it is extracted from the metric by
the trace formula theta(V) = tr(g^{-1} (L_V g) P_minus) / (dim - 2) over a
D+ frame, which turns the homothetic equation L_V g = theta(V) g on D- into a
genuine two-sided test. zeta denotes the g-dual of theta.
"""

from dataclasses import dataclass, field

import numpy as np

from kahlerkit.jets import Jet2, jet_dcoord, jmat_inv, pack
from kahlerkit.fields import (Field, at, fold, worst, lie_endo_from_jets,
                              exterior_from_grad, wedge12)

VERDICT_HOLOMORPHIC = "holomorphic"
VERDICT_GEODESIC = "geodesic_riemannian"
VERDICT_PRODUCT = "kahler_product"
VERDICT_FAILED = "failed"


@dataclass
class Splitting:
    proj_plus: object
    ranks: tuple

    @staticmethod
    def from_plus(proj_plus_fn, dim):
        return Splitting(Field(proj_plus_fn), (2, dim - 2))


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
    D+ frame."""
    n = Pv.shape[0]
    best = None
    for i in range(n):
        for j in range(i + 1, n):
            U = Pv[:, [i, j]]
            d = abs(np.linalg.det(U.T @ U))
            if best is None or d > best[0]:
                best = (d, (i, j))
    if best is None or best[0] < tol:
        raise ValueError("projector has rank below two")
    return best[1]


def theta_jets(t, s, p):
    """Jet-level Lee-form extraction at p.

    Returns (theta_comps, homothetic_residual, thetaV, cols) where theta_comps
    is a list of first-order-valid jets (value and grad exact; hess padding),
    thetaV the theta(V_a) jets for the D+ frame columns.
    """
    pe = at(p)
    g = pe.raw(t.g)
    Pp = pe.raw(s.proj_plus)
    n = len(g)
    gv = pe.jets(t.g)[0]
    Pv = pe.jets(s.proj_plus)[0]
    cols = _frame_columns(Pv)
    gi = pe.inverse(t.g)
    Pm = [[(Jet2.const(1.0 if i == j else 0.0, pe.p.size)) - Pp[i][j]
           for j in range(n)] for i in range(n)]

    thetaV = []
    resid = 0.0
    Pmv = np.eye(n) - Pv
    for a in cols:
        V = [Pp[k][a] for k in range(n)]
        # (L_V g)_ij as first-order jets: v-derivatives of g come from jet grads
        L = [[sum((V[k] * jet_dcoord(g[i][j], k) for k in range(n)), 0.0)
              + sum((g[k][j] * jet_dcoord(V[k], i) for k in range(n)), 0.0)
              + sum((g[i][k] * jet_dcoord(V[k], j) for k in range(n)), 0.0)
              for j in range(n)] for i in range(n)]
        tr = sum((gi[i][j] * L[j][k] * Pm[k][i]
                  for i in range(n) for j in range(n) for k in range(n)), 0.0)
        th_a = tr * (1.0 / (n - 2))
        thetaV.append(th_a)
        D = Pmv.T @ (pack(L)[0] - th_a.value * gv) @ Pmv
        resid = worst(resid, np.abs(D).max())

    # assemble theta as a 1-form: theta(d_i) = theta(P+ d_i) expanded in the frame
    U = [[Pp[k][a] for a in cols] for k in range(n)]
    G2 = [[sum((U[k][a] * g[k][m] * U[m][b] for k in range(n) for m in range(n)), 0.0)
           for b in range(2)] for a in range(2)]
    G2i = jmat_inv(G2)
    rhs = [[sum((U[k][a] * g[k][m] * Pp[m][i] for k in range(n) for m in range(n)), 0.0)
            for i in range(n)] for a in range(2)]
    coef = [[sum((G2i[a][b] * rhs[b][i] for b in range(2)), 0.0) for i in range(n)]
            for a in range(2)]
    theta = [sum((coef[a][i] * thetaV[a] for a in range(2)), 0.0) for i in range(n)]
    return theta, resid, thetaV, cols


def _lee(t, s, pe):
    """theta_jets at pe, run once per point: (theta jets, theta values,
    theta grads, homothetic residual)."""
    def compute():
        theta, resid, _, _ = theta_jets(t, s, pe)
        thv, thg, _ = pack(theta)
        return theta, thv, thg, resid
    return pe.cached("lee", (t.g, s.proj_plus), compute)


def extract_theta(t, s, p):
    """Lee-form components at p (vanishes on D- by construction)."""
    return _lee(t, s, at(p))[1]


def homothetic_point(t, s, p):
    """The D- block residual of L_V g - theta(V) g at p, and |d theta|."""
    _, _, thg, resid = _lee(t, s, at(p))
    return {"homothetic": resid, "dtheta": np.abs(thg.T - thg).max()}


def homothetic_residual(t, s, plan):
    """Max over samples of the homothetic_point residuals."""
    res = fold(t.chart.samples(plan), lambda pe: homothetic_point(t, s, pe))
    return {"homothetic": res.max("homothetic"), "dtheta": res.max("dtheta"),
            "points": res.points}


def oneill_tensors(t, s, p):
    """(xi, xi_ring) at p.

    xi[k,i,j] is the (D - nabla) tensor on coordinate arguments; xi_ring is the
    D-x D- part with the zeta terms of the homothetic second fundamental form
    removed: xi_ring = xi|_{D-} - (1/2)<JX,Y> Jzeta - (1/2)<X,Y> zeta.
    """
    pe = at(p)
    gv = pe.jets(t.g)[0]
    Gam, _, gi = pe.christoffel(t.g)
    Jv = pe.jets(t.J)[0]
    Ppv, Ppg, _ = pe.jets(s.proj_plus)
    n = gv.shape[0]
    Pmv = np.eye(n) - Ppv
    Pmg = -Ppg
    # covP[m,i,j] = d_i P^m_j + Gamma^m_{ia} P^a_j
    covPp = np.einsum('mji->mij', Ppg) + np.einsum('mia,aj->mij', Gam, Ppv)
    covPm = np.einsum('mji->mij', Pmg) + np.einsum('mia,aj->mij', Gam, Pmv)
    xi = -(np.einsum('km,mij->kij', Ppv, covPm) + np.einsum('km,mij->kij', Pmv, covPp))
    zeta = gi @ _lee(t, s, pe)[1]
    Jzeta = Jv @ zeta
    om = pe.omega(t.g, t.J)[0]
    ip_m = Pmv.T @ gv @ Pmv
    om_m = Pmv.T @ om @ Pmv
    xi_minus = np.einsum('kab,ai,bj->kij', xi, Pmv, Pmv)
    xi_ring = (xi_minus - 0.5 * np.einsum('ij,k->kij', om_m, Jzeta)
               - 0.5 * np.einsum('ij,k->kij', ip_m, zeta))
    return xi, xi_ring


def dplus_geodesic_residual(xi, Ppv):
    return np.abs(np.einsum('kab,ai,bj->kij', xi, Ppv, Ppv)).max()


def structure_point(t, s, p, skip_theta_below=1e-6):
    """Structure-equation residuals at p: D+ holomorphy (proj_minus o (L_X J)
    over a D+ frame), d(omega_minus) = theta ^ omega_minus, and the two chi_1
    routes: the L_zeta J coefficient fit against -2|theta|^{-2} L_{Jzeta}
    ln|theta|.  Where |theta| falls below the threshold only holomorphy is
    defined; wedge_minus, chi1 and lie_fit are None there.
    """
    pe = at(p)
    g = pe.raw(t.g)
    Pp = pe.raw(s.proj_plus)
    n = len(g)
    gv = pe.jets(t.g)[0]
    Jv, Jg, _ = pe.jets(t.J)
    Ppv, Ppg, _ = pe.jets(s.proj_plus)
    Pmv = np.eye(n) - Ppv
    hol = worst(*(np.abs(Pmv @ lie_endo_from_jets(Ppv[:, a], Ppg[:, a, :], Jv, Jg)).max()
                  for a in _frame_columns(Ppv)))
    out = {"holomorphy": hol, "wedge_minus": None, "chi1": None, "lie_fit": None}
    theta, thv, _, _ = _lee(t, s, pe)
    norm2 = float(thv @ np.linalg.inv(gv) @ thv)
    if norm2 < skip_theta_below ** 2:
        return out

    # omega_minus = omega - P+^T omega P+ as a jet field, then d of it
    om = pe.form(t.g, t.J)
    omp = [[sum((Pp[a][i] * om[a][b] * Pp[b][j] for a in range(n) for b in range(n)), 0.0)
            for j in range(n)] for i in range(n)]
    ommv, ommg, _ = pack([[om[i][j] - omp[i][j] for j in range(n)] for i in range(n)])
    dmm = exterior_from_grad(ommg, 2)
    out["wedge_minus"] = np.abs(dmm - wedge12(thv, ommv)).max()

    # chi_1 from the L_zeta J coefficient fit vs the logarithmic formula
    gij = pe.inverse(t.g)
    zv, zg, _ = pack([sum((gij[k][m] * theta[m] for m in range(n)), 0.0)
                       for k in range(n)])
    LzJ = lie_endo_from_jets(zv, zg, Jv, Jg)
    Jz = Jv @ zv
    thJ = thv @ Jv
    basis = [np.einsum('j,k->kj', thv, zv), np.einsum('j,k->kj', thJ, zv),
             np.einsum('j,k->kj', thv, Jz), np.einsum('j,k->kj', thJ, Jz)]
    Amat = np.stack([b.ravel() for b in basis], axis=1)
    cvec, _, _, _ = np.linalg.lstsq(Amat, LzJ.ravel(), rcond=None)
    out["lie_fit"] = np.abs(Amat @ cvec - LzJ.ravel()).max()
    # |theta|^2 as a jet: theta_i gi_ij theta_j with gi jets
    n2j = sum((theta[i] * gij[i][j] * theta[j] for i in range(n) for j in range(n)), 0.0)
    chi1_log = -float(Jz @ n2j.grad) / (norm2 ** 2)
    out["chi1"] = abs(cvec[0] - chi1_log)
    return out


def structure_equation_checks(t, s, plan, skip_theta_below=1e-6):
    """Max over samples of the structure_point residuals; points where
    |theta| is below the threshold are counted in 'points_excluded'."""
    res = fold(t.chart.samples(plan),
               lambda pe: structure_point(t, s, pe, skip_theta_below))
    out = {k: res.max(k) for k in ("wedge_minus", "holomorphy", "chi1", "lie_fit")}
    out.update(points_used=res.used("wedge_minus"),
               points_excluded=res.excluded.get("wedge_minus", 0))
    return out


def classify_point(t, s, p):
    """Every classifier residual at p: the homothetic and Lee-form residuals,
    the O'Neill tensors and the structure_point residuals."""
    pe = at(p)

    def compute():
        xi, xi_ring = oneill_tensors(t, s, pe)
        return dict(homothetic_point(t, s, pe), **structure_point(t, s, pe),
                    theta_max=np.abs(_lee(t, s, pe)[1]).max(), ring=np.abs(xi_ring).max(),
                    xi=np.abs(xi).max(),
                    geodesic=dplus_geodesic_residual(xi, pe.jets(s.proj_plus)[0]))
    return pe.cached("classify", (t.g, t.J, s.proj_plus), compute)


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


def classify(t, s, plan, tol=1e-6):
    """Pointwise classifier: the foliation_report of classify_point over the
    plan's samples."""
    return foliation_report(fold(t.chart.samples(plan),
                                 lambda pe: classify_point(t, s, pe)), tol)
