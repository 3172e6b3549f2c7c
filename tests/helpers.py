"""Test helper: a per-point residual function folded over a sample plan."""

from kahlerkit.fields import Fold, PointEval


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
