"""Kahler and Hermitian predicates: compatibility, the pointwise Kahler
residuals and Ricci forms.

Orientation conventions pinned here and used everywhere downstream:
  omega(X,Y) = g(JX,Y)
  rho(X,Y)   = Ric(JX,Y)
  ddc(f)     = d(df o J), i.e. the 2-form d(beta) with beta(X) = df(JX).
On flat C with J dx = dy this gives ddc(|z|^2/2) = -2 dx^dy; the sign is
validated against the scaled-disk Ricci-form identity rather than chosen by
orientation fiat.
"""

from dataclasses import dataclass

import numpy as np

from kahlerkit.fields import worst, exterior_from_grad, nijenhuis_from_jets
from kahlerkit.jets import contract, jet_dcoord, jlog


@dataclass
class HermitianTriple:
    g: object
    J: object
    chart: object


def kahler_point(t, pe):
    """Kahler residuals at pe: compatibility (including J^2 = -1), closedness
    of omega, and integrability of J."""
    gv = pe.raw(t.g).value
    J = pe.raw(t.J)
    Jv = J.value
    return {"compatible": worst(pe.absmax(Jv.swapaxes(-1, -2) @ gv @ Jv - gv),
                                pe.absmax(Jv @ Jv + np.eye(gv.shape[-1]))),
            "closed": pe.absmax(exterior_from_grad(pe.omega(t.g, t.J).grad, 2)),
            "integrable": pe.absmax(nijenhuis_from_jets(Jv, J.grad))}


def ricci_form(t, pe):
    """rho(X,Y) = Ric(JX,Y) at pe.  It is the Ricci form only where t is
    Kahler, which kahler_point measures; nothing is checked here."""
    return contract("Zmi,Zmj->Zij", pe.raw(t.J).value, pe.curvature(t.g)[1])


def ddc_from_jets(f, J):
    """ddc(f) = d(df o J) from the jet of the function f and the jet of J:
    df o J is a first-order jet, and d reads its gradient."""
    return exterior_from_grad((jet_dcoord(f) @ J).grad, 1)


def log_potential_residual(t, pe, logs, rho0=0.0):
    """max |rho - rho0 - sum c (d J d) ln f| at pe, rho the Ricci form of t
    (ricci_form) and J its structure, over the pairs (c, f) of logs, f the
    jet of a positive function, subtracted in list order: the claim that rho
    is rho0 plus these log-potential terms."""
    J = pe.raw(t.J)
    rho = ricci_form(t, pe) - rho0
    for c, f in logs:
        rho = rho - c * ddc_from_jets(jlog(f), J)
    return pe.absmax(rho)
