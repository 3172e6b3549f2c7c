"""Reference implementations of the paper's claims that the acceptance tests
compare live fields against: the Lee form of I0 by least squares over every
3-form component, the single-twist parameter that reproduces a composite
metric, the twist in the conjugate order written densely, the biaxial
rescale of a Calabi chart with its closedness constraint b' + b = a, and
the structure equations of a holomorphic foliation (structure_point), with
the float-layer helpers only they use: the batched least-squares solve, the
Lie derivative of an endomorphism and the wedge of a 1-form with a 2-form.
No command runs them, so they live beside the tests and not in the
library."""

import itertools

import numpy as np

from kahlerkit.jets import Jet2, contract, jlog
from kahlerkit.fields import (Field, NotClosedError, excluded, exterior_from_grad,
                              first_order, worst)
from kahlerkit.foliation import THETA_FLOOR, _columns, theta_jets
from kahlerkit.hermitian import HermitianTriple

RESCALE_T_SAMPLES = 9     # rescale_biaxial: points of the ln z grid
RESCALE_TOL = 1e-9        # rescale_biaxial: largest |b' + b - a| there


def lee_form_of_I0(cal, pe):
    """Solve d omega_I = theta0 ^ omega_I for theta0 by least squares over all
    3-form components.  Returns (theta0 components, fit residual) at each
    point, shapes (B, n) and (B,)."""
    n = cal.chart.dim
    om = pe.omega(cal.g, cal.I0)
    dom = exterior_from_grad(om.grad, 2)
    wedges = np.stack([wedge12(e, om.value) for e in np.eye(n)], axis=-1)
    i, j, k = np.array(list(itertools.combinations(range(n), 3))).T
    Amat, bvec = wedges[:, i, j, k], dom[:, i, j, k]
    th0 = least_squares(Amat, bvec)
    fit = np.abs((Amat @ th0[..., None])[..., 0] - bvec).max(axis=-1)
    return th0, fit


def rescale_biaxial(t, Pp, a, b, profile):
    """Biaxial rescale g_hat = a(ln z) g|D+ + b(ln z) g|D-.

    Pp is the projector field onto D+; a and b are scalar jet closures of
    one variable.  The closedness of the rescaled fundamental form forces
    b' + b = a; the constraint is validated on a grid of the profile's ln z
    range and violations raise NotClosedError.
    Returns (HermitianTriple of the rescaled structure, constraint residual).
    """
    zlo, zhi = profile.z_range
    ts = np.linspace(np.log(zlo), np.log(zhi), RESCALE_T_SAMPLES)
    u = first_order(Jet2.seed(ts[:, None]))[0]   # the grid as one first-order batch
    av, bv = a(u).value, b(u)
    bad = np.flatnonzero((av <= 0) | (bv.value <= 0))
    if bad.size:
        k = bad[0]
        raise ValueError("rescale profiles must stay positive, got a=%.3e b=%.3e at t=%.3f"
                         % (av[k], bv.value[k], ts[k]))
    worst = float(np.abs(bv.grad[:, 0] + bv.value - av).max())
    if not worst <= RESCALE_TOL:
        raise NotClosedError("b' + b - a = %.3e exceeds %.1e; the rescaled form is not closed"
                             % (worst, RESCALE_TOL))

    def ghat(pt):
        g = t.g(pt)
        P = Pp(pt)
        lt = jlog(pt[1])
        gp = P.T @ g @ P
        return a(lt) * gp + b(lt) * (g - gp)

    return HermitianTriple(Field(ghat), t.J, t.chart), worst


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


def conjugate_order_twist(g, endos, Pp, F, B, w1, w2):
    """The twist in the conjugate order of the values g, each E of endos and
    the projector Pp onto D+ ((Z, n, n) each) by the twist values (w1, w2)
    ((Z,) each): (g_w, [E_w, ...]) with g_w = g(A., .), A = 1 + 2 (S + |w|^2
    P+)/(1 - |w|^2), and E_w = (1 - S) E (1 - S)^{-1}, written densely: S is
    n x n, B^{-1} R(w) F on rows 0 and 1 with R = [[w1, w2], [w2, -w1]], F
    the coframe values (Z, 2, n) and B their constant D+ block, and 0 off
    them.  It is the formula of a scenario's twist mode A."""
    one = np.eye(g.shape[-1])
    R = np.stack([np.stack([w1, w2], axis=-1), np.stack([w2, -w1], axis=-1)], axis=-2)
    S = np.zeros(g.shape)
    S[..., :2, :] = np.linalg.inv(B) @ R @ F
    ww = (w1 * w1 + w2 * w2)[..., None, None]
    A = one + 2.0 * (S + ww * Pp) / (1.0 - ww)
    return A.swapaxes(-1, -2) @ g, [(one - S) @ E @ np.linalg.inv(one - S) for E in endos]


def least_squares(A, b):
    """The minimum-norm least-squares solution of A x = b at each point of a
    batch, with np.linalg.lstsq's cutoff: singular values below max(M, N) eps
    times the largest count as zero."""
    cutoff = max(A.shape[-2:]) * np.finfo(A.dtype).eps
    return (np.linalg.pinv(A, cutoff) @ b[..., None])[..., 0]


def lie_endo_from_jets(Xv, Xg, Jv, Jg):
    """(L_X J)^k_j = X^m d_m J^k_j - J^m_j d_m X^k + J^k_m d_j X^m."""
    return (contract("Zm,Zkjm->Zkj", Xv, Jg) - contract("Zmj,Zkm->Zkj", Jv, Xg)
            + contract("Zkm,Zmj->Zkj", Jv, Xg))


def wedge12(theta, om):
    """(theta ^ om)_ijk of a 1-form and a 2-form: T - T_jik + T_kij with
    T_ijk = theta_i om_jk."""
    T = theta[..., :, None, None] * om[..., None, :, :]
    return T - T.swapaxes(-3, -2) + np.moveaxis(T, -3, -1)


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
    theta, _, _, cols = theta_jets(t, Pp, pe)
    V = _columns(P, cols)
    Pmv = np.eye(P.value.shape[-1]) - P.value
    hol = worst(*(pe.absmax(Pmv @ lie_endo_from_jets(V.value[..., a], V.grad[..., a, :], Jv, Jg))
                  for a in (0, 1)))
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
