"""Test helpers: a per-point residual function folded over a sample plan,
the Nijenhuis tensor of a structure checked to square to -1, the round
sphere's metric, the flat plane times the disk base as a Kahler product,
a patch that routes every jets.contract call through a wrapper, and the
parts of the twisted-Ricci identity that its check leaves out."""

import sys

import numpy as np

from kahlerkit import jets
from kahlerkit.calabi import disk_base
from kahlerkit.fields import ChartManifold, Field, Fold, PointEval, nijenhuis_from_jets
from kahlerkit.hermitian import HermitianTriple, log_potential_residual, ricci_form
from kahlerkit.jets import jsin

# the standard complex structures of R^2 and of R^2 x R^2
ROTATION = [[0.0, -1.0], [1.0, 0.0]]
J4 = np.array([[0.0, -1.0, 0.0, 0.0],
               [1.0, 0.0, 0.0, 0.0],
               [0.0, 0.0, 0.0, -1.0],
               [0.0, 0.0, 1.0, 0.0]])


def fold_plan(chart, plan, fn):
    """The Fold of fn over the chart's samples of plan, as the scenario runner
    folds it (one batch of all the samples, replayed point by point if it
    fails), except that a domain error is raised.  The fold stops at the
    first NaN or inf residual, which is its max."""
    acc = Fold()
    acc.add(PointEval(chart.samples(plan)), fn)
    if acc.exc is not None:
        raise acc.exc
    return acc


def nijenhuis_at(pe, J):
    """The Nijenhuis tensor of the endomorphism field J at pe, after asserting
    that J squares to -1 there (to 1e-8)."""
    Jj = pe.raw(J)
    Jv = Jj.value
    assert pe.absmax(Jv @ Jv + np.eye(Jv.shape[-1])).max() <= 1e-8
    return nijenhuis_from_jets(Jv, Jj.grad)


def rotation(pt):
    return ROTATION


def sphere_metric(pt):
    """du^2 + sin(u)^2 dphi^2, the unit sphere's metric."""
    su = jsin(pt[0])
    return [[1.0, 0.0], [0.0, su * su]]


def product_triple():
    """The flat plane times the k = 1 disk base, a Kahler product, and the
    projector field onto the plane."""
    disk, _ = disk_base(1)
    chart = ChartManifold(4, [(-1.0, 1.0), (-1.0, 1.0)] + list(disk.chart.domain))

    def g(pt):
        gb = disk.g(pt[2:])
        return [[1.0, 0.0, 0.0, 0.0],
                [0.0, 1.0, 0.0, 0.0],
                [0.0, 0.0, gb[0][0], gb[0][1]],
                [0.0, 0.0, gb[1][0], gb[1][1]]]
    return HermitianTriple(g, lambda pt: J4, chart), Field(lambda pt: np.diag([1.0, 1.0, 0.0, 0.0]))


def patch_contract(monkeypatch, wrap):
    """Route every jets.contract call of the library through wrap(contract):
    in jets itself and in each kahlerkit module that imports the name."""
    contract = jets.contract
    new = wrap(contract)
    for name, mod in list(sys.modules.items()):
        if name.startswith("kahlerkit") and getattr(mod, "contract", None) is contract:
            monkeypatch.setattr(mod, "contract", new)


def log_term_size(t, pe, logs):
    """max |sum c (d J d) ln f| at pe over the pairs (c, f) of logs, J the
    structure of t: the log-potential residual against rho0 = rho."""
    return log_potential_residual(t, pe, logs, ricci_form(t, pe))


def twisted_ricci_parts(cal, tw, pe):
    """The terms of the twisted-Ricci identity at pe, as
    twist.ricci_identity_check forms them: the lifted base Ricci form rho_N,
    the fiber term ((m-1)/2, z) and the disc term (-1/2, 1 - |w|^2)."""
    base = ricci_form(cal.base, pe.sub(2))
    rho_N = np.zeros(base.shape[:-2] + (cal.chart.dim,) * 2)
    rho_N[..., 2:, 2:] = base
    w1, w2 = pe.raw(tw)
    return rho_N, (0.5 * (cal.m - 1), pe[1]), (-0.5, 1.0 - (w1 * w1 + w2 * w2))


def printed_ricci_residual(cal, tw, tt, pe):
    """The residual at pe of the two-term form rho^{g_w} = rho_N(lifted)
    - (1/2)(d J_w d) ln(1-|w|^2), which omits the fiber term."""
    rho_N, _, disc = twisted_ricci_parts(cal, tw, pe)
    return log_potential_residual(tt.triple(), pe, [disc], rho_N)


def fiber_correction_size(cal, tw, tt, pe):
    """max |((m-1)/2)(d J_w d) ln z| at pe: the size of the fiber term that
    the twisted-Ricci identity needs."""
    return log_term_size(tt.triple(), pe, [twisted_ricci_parts(cal, tw, pe)[1]])
