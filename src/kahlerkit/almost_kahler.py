"""Plane-times-Kähler products with twisted structures, the curvature
symmetry R(J~., J~., J~., J~.) = R, intrinsic-torsion checks, Einstein
residuals, and the iterated-chart chains.

On M = R^2 x Z the product carries two orthogonal structures: J (rotation on
the plane plus the base structure, Kähler candidate) and J~ (rotation flipped
on the plane, almost Kähler for every twist).  Both are deformed by one
shared S built on the frame {dx1, dx2}; the twist parameter w may depend on Z
only, which keeps d/dx1, d/dx2 Killing.
"""

from dataclasses import dataclass, field

import numpy as np

from kahlerkit.jets import Jet2, jsize, jconst, jlog, jinv, jet_dcoord
from kahlerkit.fields import (ChartManifold, Field, at, fold, worst,
                              exterior_from_grad, pull_back)
from kahlerkit.hermitian import HermitianTriple, ddc_from_jets, ricci_form
from kahlerkit.calabi import CalabiProfile, build_calabi, disk_base
from kahlerkit.twist import coordinate_twist, build_twist_fields, build_twist


@dataclass
class AKProduct:
    z_factor: HermitianTriple
    g: Field
    J: Field
    J_tilde: Field
    g0: Field
    Jt0: Field
    chart: ChartManifold
    twist_full: Field

    def triple(self):
        return HermitianTriple(self.g, self.J, self.chart)

    def triple_tilde(self):
        return HermitianTriple(self.g, self.J_tilde, self.chart)


@dataclass
class TorsionReport:
    prelt_residual: float
    nullity_residual: float
    containment_residual: float
    span_ranks: list
    alg_anticommute: float
    alg_jshift: float
    points_used: int
    points_excluded: int


def build_ak_product(z_factor, tw, mode="B", plane_range=(-1.0, 1.0)):
    """Twisted product structures on R^2 x Z.  tw is a twist Field declared
    on Z: it is lifted here, and any dependence on the plane coordinates is
    rejected."""
    nz = z_factor.chart.dim
    n = nz + 2

    lift = np.eye(n)[2:]          # Z coordinates -> chart coordinates
    proj = np.diag([1.0, 1.0] + [0.0] * nz)
    plane = np.zeros((n, n))
    plane[1, 0] = 1.0
    plane[0, 1] = -1.0
    chart = ChartManifold(n, [tuple(plane_range), tuple(plane_range)]
                          + [tuple(d) for d in z_factor.chart.domain],
                          label="R2x" + z_factor.chart.label)

    g0 = Field(lambda pt: proj + lift.T @ z_factor.g(pt[2:]) @ lift, chart)
    J0 = Field(lambda pt: plane + lift.T @ z_factor.J(pt[2:]) @ lift, chart)
    Jt0 = Field(lambda pt: -plane + lift.T @ z_factor.J(pt[2:]) @ lift, chart)
    Pp = Field(lambda pt: jconst(proj, jsize(pt)), chart)
    frame = Field(lambda pt: jconst(np.eye(n)[0], jsize(pt)), chart, degree=1)
    wfull = Field(lambda pt: tw(pt[2:]), chart, label=tw.label + "@R2xZ")

    # the Killing property needs w independent of the plane coordinates
    probe = chart.center()
    for shift in (0.0, 0.17):
        x = Jet2.seed(np.asarray(probe, float) + shift * np.ones(n) * 0.1)
        if np.abs(wfull(x).grad[:, :2]).max() > 1e-12:
            raise ValueError("twist depends on the plane coordinates; "
                             "d/dx1, d/dx2 would not be Killing")

    gw, (Jw, Jtw), _ = build_twist_fields(g0, [J0, Jt0], Pp, wfull, frame, chart, mode)
    return AKProduct(z_factor=z_factor, g=gw, J=Jw, J_tilde=Jtw, g0=g0, Jt0=Jt0,
                     chart=chart, twist_full=wfull)


def ak_invariants_point(ak, p):
    """Structural residuals at p: omega_{J~} against -dx1^dx2 + omega^h, its
    closedness and twist-invariance, and the Killing residual of the plane
    directions."""
    pe = at(p)
    n = ak.chart.dim
    om = pe.omega(ak.g, ak.J_tilde)
    target = np.zeros((n, n))
    target[0, 1] = -1.0
    target[1, 0] = 1.0
    zp = pe.sub(2)
    target[2:, 2:] = zp.omega(ak.z_factor.g, ak.z_factor.J).value
    gg = pe.jets(ak.g)[1]
    return {"omega_tilde_target": np.abs(om.value - target).max(),
            "d_omega_tilde": np.abs(exterior_from_grad(om.grad, 2)).max(),
            "omega_tilde_invariance": np.abs(om.value - pe.omega(ak.g0, ak.Jt0).value).max(),
            "killing": worst(np.abs(gg[:, :, 0]).max(), np.abs(gg[:, :, 1]).max())}


def ak_invariants(ak, plan):
    """Max over samples of the ak_invariants_point residuals."""
    res = fold(ak.chart.samples(plan), lambda pe: ak_invariants_point(ak, pe))
    return {k: res.max(k) for k in ("omega_tilde_target", "d_omega_tilde",
                                     "omega_tilde_invariance", "killing")}


def ak3_point(ak, p):
    """Curvature symmetry under four J~'s at p, normalized by max |R|, and the
    two proof blocks R(V,V,V,X) and R(X,Y,Z,V).  Index split: V in the plane
    (0,1), X in the Z factor."""
    pe = at(p)

    def compute():
        Rlow = pe.curvature(ak.g)[0]
        RJ = pull_back(Rlow, pe.jets(ak.J_tilde)[0])
        sc = np.abs(Rlow).max()
        denom = sc if sc > 1e-12 else 1.0
        return {"relative": np.abs(RJ - Rlow).max() / denom,
                "block_plane": np.abs(Rlow[:2, :2, :2, 2:]).max() / denom,
                "block_z": np.abs(Rlow[2:, 2:, 2:, :2]).max() / denom, "scale": sc}
    return pe.cached("ak3", (ak.g, ak.J_tilde), compute)


def ak3_residual(ak, plan):
    """Max over samples of the ak3_point residuals and of max |R|."""
    res = fold(ak.chart.samples(plan), lambda pe: ak3_point(ak, pe))
    return {"relative": res.max("relative"), "block_plane": res.max("block_plane"),
            "block_z": res.max("block_z"), "scale": res.max("scale")}


def eta_tensor(gfn, Jtfn, p):
    """eta = (1/2)(nabla J~)J~ at p; returns (eta[i,k,j], gv, gg, Jtv) with
    eta[i,k,j] the k-component of eta_{d_i} d_j."""
    pe = at(p)
    gv, gg, _ = pe.jets(gfn)
    Gam = pe.christoffel(gfn)[0]
    Jtv, Jtg, _ = pe.jets(Jtfn)
    covJ = (np.einsum('kji->ikj', Jtg) + np.einsum('kim,mj->ikj', Gam, Jtv)
            - np.einsum('mij,km->ikj', Gam, Jtv))
    eta = 0.5 * np.einsum('ikm,mj->ikj', covJ, Jtv)
    return eta, gv, gg, Jtv


def torsion_point(ak, p, dw_floor=1e-6, rank_rtol=1e-8):
    """The pointwise torsion claims at p: the derivative identity
    2 g(eta_{K_i} K_j, X) = X g(K_i, K_j), the two algebraic identities with
    J~, and, where |dw| >= dw_floor, the D- nullity, the containment of
    eta_{D+} D+ in D- and the rank of the span of eta_{D+} D- (None below
    the floor)."""
    pe = at(p)

    def compute():
        n = ak.chart.dim
        zidx = list(range(2, n))
        dw = np.abs(pe.raw(ak.twist_full).grad).max()
        eta, gv, gg, Jtv = eta_tensor(ak.g, ak.J_tilde, pe)
        prelt = (abs(2.0 * sum(gv[m, X] * eta[a, m, b] for m in range(n)) - gg[a, b, X])
                 for a in (0, 1) for b in (0, 1) for X in zidx)
        out = {"prelt": worst(0.0, *prelt),
               "anticommute": np.abs(np.einsum('ikm,mj->ikj', eta, Jtv)
                                     + np.einsum('km,imj->ikj', Jtv, eta)).max(),
               "jshift": np.abs(np.einsum('mi,mkj->ikj', Jtv, eta)
                                - np.einsum('ikm,mj->ikj', eta, Jtv)).max(),
               "nullity": None, "containment": None, "rank": None}
        if dw >= dw_floor:
            sv = np.linalg.svd(np.stack([eta[a, :, c] for a in (0, 1) for c in zidx]),
                               compute_uv=False)
            out.update(nullity=np.abs(eta[zidx, :, :]).max(),
                       containment=np.abs(eta[0:2, 0:2, 0:2]).max(),
                       rank=int((sv > rank_rtol * sv[0]).sum()) if sv[0] > 0 else 0)
        return out
    return pe.cached("torsion", (ak.g, ak.J_tilde, ak.twist_full, dw_floor, rank_rtol),
                     compute)


def torsion_report(ak, plan, dw_floor=1e-6, rank_rtol=1e-8):
    """Max over samples of the torsion_point residuals.  Points with
    |dw| < dw_floor are excluded from the nullity/containment/rank claims and
    counted."""
    res = fold(ak.chart.samples(plan),
               lambda pe: torsion_point(ak, pe, dw_floor, rank_rtol))
    return TorsionReport(prelt_residual=res.max("prelt"),
                         nullity_residual=res.max("nullity"),
                         containment_residual=res.max("containment"),
                         span_ranks=[int(r) for r in res.values.get("rank", [])],
                         alg_anticommute=res.max("anticommute"),
                         alg_jshift=res.max("jshift"),
                         points_used=res.used("nullity"),
                         points_excluded=res.excluded.get("nullity", 0))


def einstein_point(g, p):
    """Pointwise least-squares Einstein fit at p: lambda = <Ric, g>/<g, g>,
    the residual max |Ric - lambda g|, and max |Ric|."""
    pe = at(p)
    gv = pe.jets(g)[0]
    Ric = pe.curvature(g)[1]
    lam = float(np.tensordot(Ric, gv) / np.tensordot(gv, gv))
    return {"lambda": lam, "einstein_dev": np.abs(Ric - lam * gv).max(),
            "ricci_max": np.abs(Ric).max()}


def einstein_residual(gfield, plan, chart=None):
    """einstein_point over samples: the worst residual and max |Ric|, plus the
    pointwise lambdas and their spread."""
    chart = chart if chart is not None else gfield.chart
    res = fold(chart.samples(plan), lambda pe: einstein_point(gfield, pe))
    lambdas = res.values.get("lambda", [])
    spread = (max(lambdas) - min(lambdas)) if lambdas else 0.0
    return {"ricci_max": res.max("ricci_max"), "einstein_dev": res.max("einstein_dev"),
            "spread": spread, "lambdas": lambdas}


def subtract_fiber_logs(rho, pe, J, z_positions):
    """rho minus (j/2) (d J d) ln z_j for every fiber level j, in level order;
    returns the difference and the largest single term."""
    Jv, Jg, _ = pe.jets(J)
    size = 0.0
    for j, pos in z_positions.items():
        term = 0.5 * j * ddc_from_jets(jlog(pe.x[pos]), Jv, Jg)
        rho = rho - term
        size = worst(size, np.abs(term).max())
    return rho, size


def fiber_log_point(t, z_positions, p):
    """max |rho - sum_j (j/2) (d J d) ln z_j| at p: the Ricci form of t is
    carried by the fiber log potentials."""
    pe = at(p)
    rho = ricci_form(t, pe, check=False)
    return np.abs(subtract_fiber_logs(rho, pe, t.J, z_positions)[0]).max()


@dataclass
class ChainLevel:
    index: int
    kind: str
    chain_height: int
    triple: HermitianTriple
    alpha: Field
    cal: object = None
    twisted: object = None
    claimed_coeff: float = 0.0
    z_positions: dict = field(default_factory=dict)

    def identity_residuals(self, p):
        """Residuals at p of the claimed log-coefficient identity and of the
        corrected one carrying the (j/2) ln z_j fiber terms."""
        n = self.triple.chart.dim
        pe = at(p)
        t = self.triple
        Jv, Jg, _ = pe.jets(t.J)
        xx, yy = pe.x[n - 2], pe.x[n - 1]
        ddL = ddc_from_jets(jlog(1.0 - xx * xx - yy * yy), Jv, Jg)
        claimed = ricci_form(t, pe, check=False) - self.claimed_coeff * ddL
        corrected, corr_size = subtract_fiber_logs(claimed, pe, t.J, self.z_positions)
        return {"claimed": np.abs(claimed).max(),
                "corrected": np.abs(corrected).max(),
                "correction_size": corr_size}


def _lifted_alpha(cal):
    """Exact primitive z * Theta of the chart's Kähler form, for the next
    level: components [z, 0, z * alpha_prev...]."""
    return Field(lambda pt: pt[1] * cal.Theta(pt), cal.chart, degree=1)


def iterate_chain(kind, m, A=-1.0, radius=0.55, z_range=(0.6, 1.8),
                  s_range=(-0.8, 0.8)):
    """Iterated chart chains over the disk.

    kind "untwisted": Sigma carries (1 - rho^2) delta and each level is the
    plain fibered chart over the previous one; m - 1 steps.  The claimed
    log-coefficient stays 1/2 at every level.

    kind "twisted": Sigma carries (1 - rho^2)^m delta and every fibered level
    is twisted by the lifted disk coordinate; m steps, so the top level has
    claimed coefficient (m - m)/2 = 0, the literal Ricci-flat claim.  The
    corrected identity adds (j/2) (d J d) ln z_j for every fiber level j.
    """
    if kind not in ("untwisted", "twisted"):
        raise ValueError("kind must be 'untwisted' or 'twisted'")
    if not 1 <= m <= 3:
        raise ValueError("chain height m must be 1..3 (dimension cap)")
    if not 0 < radius < 1:
        raise ValueError("disk radius must sit inside the unit disk")
    if z_range[0] <= 0:
        raise ValueError("step 1: z interval must stay positive")

    k0 = 1 if kind == "untwisted" else m
    base, alpha0 = disk_base(k0, radius=radius)
    steps = (m - 1) if kind == "untwisted" else m

    def coeff(k):
        return 0.5 if kind == "untwisted" else 0.5 * (m - k)

    levels = [ChainLevel(index=0, kind=kind, chain_height=m, triple=base,
                         alpha=alpha0, claimed_coeff=coeff(0))]
    for k in range(1, steps + 1):
        prev = levels[-1]
        profile = CalabiProfile(A=A, z_range=z_range, s_range=s_range)
        try:
            cal = build_calabi(prev.triple, profile, alpha=prev.alpha)
        except Exception as exc:
            raise type(exc)("step %d: %s" % (k, exc)) from exc
        zpos = {j: pos + 2 for j, pos in prev.z_positions.items()}
        zpos[k] = 1
        n = cal.chart.dim
        tt = build_twist(cal, coordinate_twist(n - 2, n - 1)) if kind == "twisted" else None
        levels.append(ChainLevel(index=k, kind=kind, chain_height=m,
                                 triple=tt.triple() if tt else cal.triple(),
                                 alpha=_lifted_alpha(cal), cal=cal, twisted=tt,
                                 claimed_coeff=coeff(k), z_positions=zpos))
    return levels


def ker_dw_projector(g, w):
    """g-orthogonal projector field onto Ker dw1 ∩ Ker dw2 of the metric
    field g and the twist field w (first-order jets, enough for the
    second-fundamental-form residual)."""
    def Qfn(pt):
        gj = g(pt)
        dw = jet_dcoord(w(pt))
        ns = dw @ jinv(gj).T
        return np.eye(gj.shape[0]) - ns.T @ jinv(dw @ ns.T) @ dw
    return Field(Qfn, g.chart)


def ker_dw_geodesic_residual(g, w, p):
    """Max component of the D-orthogonal second fundamental form of Ker dw at
    p: (1 - Q) nabla_X (Q Y) restricted to X, Y in Ker dw."""
    pe = at(p)
    Gam = pe.christoffel(g)[0]
    Q = ker_dw_projector(g, w)(pe.x)
    Qv, Qg = Q.value, Q.grad
    n = Qv.shape[0]
    covQ = np.einsum('mji->mij', Qg) + np.einsum('mia,aj->mij', Gam, Qv)
    B = np.einsum('km,mij->kij', np.eye(n) - Qv, covQ)
    return np.abs(Qv.T @ B @ Qv).max()
