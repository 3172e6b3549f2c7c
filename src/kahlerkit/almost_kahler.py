"""Plane-times-Kähler products with twisted structures, the curvature
symmetry R(J~., J~., J~., J~.) = R, intrinsic-torsion checks, Einstein
residuals, and the iterated-chart chains.

On M = R^2 x Z the product carries two orthogonal structures: J (rotation on
the plane plus the base structure, Kähler candidate) and J~ (rotation flipped
on the plane, almost Kähler for every twist).  Both are deformed by one
shared S built on the coframe {dx1, dx2}; the twist parameter w may depend on
Z only, which keeps d/dx1, d/dx2 Killing.
"""

from dataclasses import dataclass, field

import numpy as np

from kahlerkit.jets import Jet2, contract, embed, jinv, jet_dcoord
from kahlerkit.fields import (ChartManifold, Field, PointEval, first_order, worst,
                              excluded, exterior_from_grad, pull_back)
from kahlerkit.hermitian import HermitianTriple, log_potential_residual
from kahlerkit.calabi import CalabiProfile, build_calabi, disk_base
from kahlerkit.twist import coordinate_twist, build_twist_fields, build_twist

DW_FLOOR = 1e-6     # torsion_point: |dw| below it excludes the D- claims
RANK_RTOL = 1e-8    # torsion_point: relative singular-value cutoff of the rank


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
    coframe: tuple

    def triple(self):
        return HermitianTriple(self.g, self.J, self.chart)


def build_ak_product(z_factor, tw, plane_range=(-1.0, 1.0)):
    """Twisted product structures on R^2 x Z.  tw is a twist Field declared
    on Z: it is lifted here, and any dependence on the plane coordinates is
    rejected.  Its twist's coframe is {dx1, dx2} = {theta, -theta o J} for
    theta = dx1 and the untwisted J, with D+ block B = I."""
    nz = z_factor.chart.dim
    n = nz + 2

    zblock = np.s_[2:, 2:]        # the Z coordinates' block of a chart matrix
    proj = np.diag([1.0, 1.0] + [0.0] * nz)
    plane = np.zeros((n, n))
    plane[1, 0] = 1.0
    plane[0, 1] = -1.0
    chart = ChartManifold(n, [tuple(plane_range), tuple(plane_range)]
                          + [tuple(d) for d in z_factor.chart.domain],
                          label="R2x" + z_factor.chart.label)

    g0 = Field(lambda pt: proj + embed(z_factor.g(pt[2:]), (n, n), zblock))
    # the structures are read to first order only, as are their twists
    J0 = Field(lambda pt: plane + embed(z_factor.J(pt[2:]), (n, n), zblock), order=1)
    Jt0 = Field(lambda pt: -plane + embed(z_factor.J(pt[2:]), (n, n), zblock), order=1)
    Pp = Field(lambda pt: proj)
    coframe = (Field(lambda pt: np.eye(n)[:2]), np.eye(2))
    wfull = Field(lambda pt: tw(pt[2:]), label=tw.label + "@R2xZ")

    # the Killing property needs w independent of the plane coordinates; the
    # probe reads gradients only, so its two points are one first-order batch
    probe = chart.center() + 0.1 * np.array([[0.0], [0.17]])
    dw = wfull(PointEval(probe, first_order(Jet2.seed(probe)))).grad
    if np.abs(dw[..., :2]).max() > 1e-12:
        raise ValueError("twist depends on the plane coordinates; "
                         "d/dx1, d/dx2 would not be Killing")

    gw, (Jw, Jtw), _ = build_twist_fields(g0, [J0, Jt0], Pp, wfull, coframe, chart)
    return AKProduct(z_factor=z_factor, g=gw, J=Jw, J_tilde=Jtw, g0=g0, Jt0=Jt0,
                     chart=chart, twist_full=wfull, coframe=coframe)


def ak_invariants_point(ak, pe):
    """Structural residuals at pe: omega_{J~} against -dx1^dx2 + omega^h, its
    closedness and twist-invariance, and the Killing residual of the plane
    directions."""
    om = pe.omega(ak.g, ak.J_tilde)
    target = np.zeros(om.value.shape)
    target[..., 0, 1] = -1.0
    target[..., 1, 0] = 1.0
    zp = pe.sub(2)
    target[..., 2:, 2:] = zp.omega(ak.z_factor.g, ak.z_factor.J).value
    gg = pe.raw(ak.g).grad
    return {"omega_tilde_target": pe.absmax(om.value - target),
            "d_omega_tilde": pe.absmax(exterior_from_grad(om.grad, 2)),
            "omega_tilde_invariance": pe.absmax(om.value - pe.omega(ak.g0, ak.Jt0).value),
            "killing": worst(pe.absmax(gg[..., 0]), pe.absmax(gg[..., 1]))}


def ak3_point(ak, pe):
    """Curvature symmetry under four J~'s at pe, normalized by max |R|, and the
    two proof blocks R(V,V,V,X) and R(X,Y,Z,V).  Index split: V in the plane
    (0,1), X in the Z factor."""

    def compute():
        Rlow = pe.curvature(ak.g)[0]
        RJ = pull_back(Rlow, pe.raw(ak.J_tilde).value)
        sc = pe.absmax(Rlow)
        denom = np.where(sc > 1e-12, sc, 1.0)
        return {"relative": pe.absmax(RJ - Rlow) / denom,
                "block_plane": pe.absmax(Rlow[..., :2, :2, :2, 2:]) / denom,
                "block_z": pe.absmax(Rlow[..., 2:, 2:, 2:, :2]) / denom, "scale": sc}
    return pe.cached("ak3", (ak.g, ak.J_tilde), compute)


def eta_tensor(gfn, Jtfn, pe):
    """eta = (1/2)(nabla J~)J~ at pe; returns (eta[i,k,j], gv, gg, Jtv) with
    eta[i,k,j] the k-component of eta_{d_i} d_j."""
    g, Jt = pe.raw(gfn), pe.raw(Jtfn)
    Gam = pe.christoffel(gfn)[0]
    Jtv, Jtg = Jt.value, Jt.grad
    covJ = (np.moveaxis(Jtg, -1, -3) + contract("Zkim,Zmj->Zikj", Gam, Jtv)
            - contract("Zmij,Zkm->Zikj", Gam, Jtv))
    eta = 0.5 * contract("Zikm,Zmj->Zikj", covJ, Jtv)
    return eta, g.value, g.grad, Jtv


def torsion_point(ak, pe):
    """The pointwise torsion claims at pe: the derivative identity
    2 g(eta_{K_i} K_j, X) = X g(K_i, K_j), the two algebraic identities with
    J~, and, where |dw| >= DW_FLOOR, the D- nullity, the containment of
    eta_{D+} D+ in D- and the rank of the span of eta_{D+} D- (excluded
    below the floor)."""

    def compute():
        n = ak.chart.dim
        dw = pe.absmax(pe.raw(ak.twist_full).grad)
        eta, gv, gg, Jtv = eta_tensor(ak.g, ak.J_tilde, pe)
        # 2 g(eta_a b, X) - d_X g_ab over plane a, b and Z directions X
        prelt = (2.0 * contract("Zmx,Zamb->Zabx", gv[..., :, 2:], eta[..., :2, :, :2])
                 - gg[..., :2, :2, 2:])
        keep = dw >= DW_FLOOR
        # rows eta_a c over plane a and Z directions c; zero below the floor,
        # where the rank is excluded, so that the SVD never sees those points
        rows = eta[..., :2, :, 2:].swapaxes(-1, -2).reshape(eta.shape[:-3] + (-1, n))
        sv = np.linalg.svd(np.where(keep[..., None, None], rows, 0.0), compute_uv=False)
        rank = np.where(sv[..., 0] > 0, (sv > RANK_RTOL * sv[..., :1]).sum(axis=-1), 0)
        etaJ = contract("Zikm,Zmj->Zikj", eta, Jtv)
        return {"prelt": pe.absmax(prelt),
                "anticommute": pe.absmax(etaJ + contract("Zkm,Zimj->Zikj", Jtv, eta)),
                "jshift": pe.absmax(contract("Zmi,Zmkj->Zikj", Jtv, eta) - etaJ),
                "nullity": excluded(~keep, pe.absmax(eta[..., 2:, :, :])),
                "containment": excluded(~keep, pe.absmax(eta[..., :2, :2, :2])),
                "rank": excluded(~keep, rank)}
    return pe.cached("torsion", (ak.g, ak.J_tilde, ak.twist_full), compute)


def einstein_point(g, pe):
    """Pointwise least-squares Einstein fit at pe: lambda = <Ric, g>/<g, g>,
    the residual max |Ric - lambda g|, and max |Ric|."""
    gv = pe.raw(g).value
    Ric = pe.curvature(g)[1]
    lam = contract("Zij,Zij->Z", Ric, gv) / contract("Zij,Zij->Z", gv, gv)
    return {"lambda": lam, "einstein_dev": pe.absmax(Ric - lam[..., None, None] * gv),
            "ricci_max": pe.absmax(Ric)}


def fiber_logs(pe, z_positions):
    """The log-potential terms (j/2, z_j) at pe of every fiber level j, in
    level order, z_positions mapping each level to its z coordinate."""
    return [(0.5 * j, pe[pos]) for j, pos in z_positions.items()]


@dataclass
class ChainLevel:
    index: int
    triple: HermitianTriple
    alpha: Field
    cal: object = None
    claimed_coeff: float = 0.0
    z_positions: dict = field(default_factory=dict)

    def ricci_residual(self, pe):
        """max |rho - c (d J d) ln(1 - |x|^2) - sum_j (j/2) (d J d) ln z_j| at
        pe, c the claimed log coefficient of the disk coordinates x (the last
        two) and z_j the fiber levels' z."""
        n = self.triple.chart.dim
        xx, yy = pe[n - 2], pe[n - 1]
        return log_potential_residual(self.triple, pe,
                                      [(self.claimed_coeff, 1.0 - xx * xx - yy * yy)]
                                      + fiber_logs(pe, self.z_positions))


def _lifted_alpha(cal):
    """Exact primitive z * Theta of the chart's Kähler form, for the next
    level: components [z, 0, z * alpha_prev...]."""
    return Field(lambda pt: pt[1] * cal.Theta(pt))


def chain_top(kind, m):
    """The index of the top level of the chain of this kind and height m:
    m - 1 untwisted, m twisted.  Raises ValueError for an unknown kind or an
    m outside 1..3."""
    if kind not in ("untwisted", "twisted"):
        raise ValueError("kind must be 'untwisted' or 'twisted'")
    if not 1 <= m <= 3:
        raise ValueError("chain height m must be 1..3 (dimension cap)")
    return m - 1 if kind == "untwisted" else m


def iterate_chain(kind, m, A=-1.0, radius=0.55, z_range=(0.6, 1.8),
                  s_range=(-0.8, 0.8), top=None):
    """Iterated chart chains over the disk, levels 0..top; top defaults to
    chain_top(kind, m), the whole chain, and no level above it is built.

    kind "untwisted": Sigma carries (1 - rho^2) delta and each level is the
    plain fibered chart over the previous one; m - 1 steps.  The claimed
    log-coefficient stays 1/2 at every level.

    kind "twisted": Sigma carries (1 - rho^2)^m delta and every fibered level
    is twisted by the lifted disk coordinate; m steps, so the top level has
    claimed coefficient (m - m)/2 = 0, the literal Ricci-flat claim.  The
    corrected identity adds (j/2) (d J d) ln z_j for every fiber level j.

    The disk's chart box must lie inside the unit disk (radius * sqrt(2) <
    1), which disk_base checks.  Every level shares one CalabiProfile, built
    (and so checked) before any level.
    Each level's alpha guard (build_calabi) runs on first-order points.
    """
    steps = chain_top(kind, m)
    if top is None:
        top = steps
    elif not 0 <= top <= steps:
        raise ValueError("chain_level %r is out of range: levels 0..%d" % (top, steps))
    profile = CalabiProfile(A=A, z_range=z_range, s_range=s_range)

    k0 = 1 if kind == "untwisted" else m
    base, alpha0 = disk_base(k0, radius=radius)

    def coeff(k):
        return 0.5 if kind == "untwisted" else 0.5 * (m - k)

    levels = [ChainLevel(index=0, triple=base, alpha=alpha0, claimed_coeff=coeff(0))]
    for k in range(1, top + 1):
        prev = levels[-1]
        try:
            cal = build_calabi(prev.triple, profile, alpha=prev.alpha)
        except Exception as exc:
            raise type(exc)("step %d: %s" % (k, exc)) from exc
        zpos = {j: pos + 2 for j, pos in prev.z_positions.items()}
        zpos[k] = 1
        n = cal.chart.dim
        tt = build_twist(cal, coordinate_twist(n - 2, n - 1)) if kind == "twisted" else None
        levels.append(ChainLevel(index=k, triple=tt.triple() if tt else cal.triple(),
                                 alpha=_lifted_alpha(cal), cal=cal,
                                 claimed_coeff=coeff(k), z_positions=zpos))
    return levels


def ker_dw_projector(g, w, pe):
    """Jet at pe of the g-orthogonal projector onto Ker dw1 ∩ Ker dw2 of the
    metric field g and the twist field w, from the point's memoised g^{-1}:
    a first-order jet (dw is one, from jet_dcoord), enough for the
    second-fundamental-form residual."""
    dw = jet_dcoord(pe.raw(w))
    ns = dw @ pe.inverse(g).T
    return np.eye(ns.shape[1]) - ns.T @ jinv(dw @ ns.T) @ dw


def ker_dw_geodesic_residual(g, w, pe):
    """Max component of the D-orthogonal second fundamental form of Ker dw at
    pe: (1 - Q) nabla_X (Q Y) restricted to X, Y in Ker dw."""
    Gam = pe.christoffel(g)[0]
    Q = ker_dw_projector(g, w, pe)
    Qv, Qg = Q.value, Q.grad
    covQ = Qg.swapaxes(-1, -2) + contract("Zmia,Zaj->Zmij", Gam, Qv)
    B = contract("Zkm,Zmij->Zkij", np.eye(Qv.shape[-1]) - Qv, covQ)
    Qe = Qv[..., None, :, :]
    return pe.absmax(Qe.swapaxes(-1, -2) @ B @ Qe)
