"""Reference implementations of the paper's claims that the acceptance tests
compare live fields against: the Lee form of I0 by least squares over every
3-form component, the single-twist parameter that reproduces a composite
metric, the twist in the conjugate order written densely, and the biaxial
rescale of a Calabi chart with its closedness constraint b' + b = a.  No command runs them, so they live beside the tests
and not in the library."""

import itertools

import numpy as np

from kahlerkit.jets import Jet2, jlog
from kahlerkit.fields import (Field, NotClosedError, exterior_from_grad, first_order,
                              least_squares, wedge12)
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
