"""Test helpers: a per-point residual function folded over a sample plan,
and the Nijenhuis tensor of a structure checked to square to -1."""

import numpy as np

from kahlerkit.fields import Fold, PointEval, nijenhuis_from_jets


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
    Jv, Jg, _ = pe.jets(J)
    assert pe.absmax(Jv @ Jv + np.eye(Jv.shape[-1])).max() <= 1e-8
    return nijenhuis_from_jets(Jv, Jg)
