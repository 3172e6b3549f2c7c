"""Kahler and Hermitian predicates: compatibility, fundamental forms, the
pointwise Kahler residuals, Ricci forms, and the omega = omega_plus + omega_minus split.

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

from kahlerkit.fields import (CompatibilityError, Field, NotKahlerError, at, omega_of,
                              worst, exterior_from_grad, nijenhuis_from_jets)


@dataclass
class HermitianTriple:
    g: object
    J: object
    chart: object


def fundamental_form_field(g, J):
    """omega(X,Y) = g(JX,Y) as a jet-level 2-form field."""
    return Field(lambda pt: omega_of(g(pt), J(pt)), degree=2)


def fundamental_form(t, p, tol=1e-8):
    """Value of omega at p; raises if g and J are not compatible there."""
    pe = at(p)
    gv = pe.jets(t.g)[0]
    Jv = pe.jets(t.J)[0]
    resid = pe.absmax(Jv.swapaxes(-1, -2) @ gv @ Jv - gv)
    if np.any(resid > tol):
        raise CompatibilityError(
            f"g(J.,J.) differs from g by {np.max(resid):.2e} at {pe.where.tolist()}")
    return pe.omega(t.g, t.J).value


def kahler_point(t, p):
    """Kahler residuals at p: compatibility (including J^2 = -1), closedness
    of omega, and integrability of J."""
    pe = at(p)
    gv = pe.jets(t.g)[0]
    Jv, Jg, _ = pe.jets(t.J)
    return {"compatible": worst(pe.absmax(Jv.swapaxes(-1, -2) @ gv @ Jv - gv),
                                pe.absmax(Jv @ Jv + np.eye(gv.shape[-1]))),
            "closed": pe.absmax(exterior_from_grad(pe.omega(t.g, t.J).grad, 2)),
            "integrable": pe.absmax(nijenhuis_from_jets(Jv, Jg))}


def ricci_form(t, p, check=True, tol=1e-6):
    """rho(X,Y) = Ric(JX,Y). Only asserted for Kahler inputs, so by default the
    pointwise Kahler residuals are checked at p before computing."""
    pe = at(p)
    if check:
        resid = worst(*kahler_point(t, pe).values())
        if not np.all(resid <= tol):
            raise NotKahlerError(
                f"pointwise Kahler residual {np.max(resid):.2e} exceeds {tol:.1e} "
                f"at {pe.where.tolist()}")
    return ricci_form_from_jets(pe.curvature(t.g)[1], pe.jets(t.J)[0])


def ricci_form_from_jets(Ric, Jv):
    return np.einsum('...mi,...mj->...ij', Jv, Ric)


def split_fundamental(t, Pp, p, tol=1e-8):
    """(omega_plus, omega_minus) with omega_plus the restriction to D+, the
    range of the projector field Pp, and omega_minus = omega - omega_plus, so
    the sum is exact by construction."""
    pe = at(p)
    Jv = pe.jets(t.J)[0]
    Pv = pe.jets(Pp)[0]
    if np.any(pe.absmax(Pv @ Jv - Jv @ Pv) > tol):
        raise ValueError(f"splitting is not J-invariant at {pe.where.tolist()}")
    om = pe.omega(t.g, t.J).value
    om_plus = Pv.swapaxes(-1, -2) @ om @ Pv
    return om_plus, om - om_plus


def ddc(f, J, p):
    """d(df o J) at p for a jet-level scalar field f and endo field J."""
    pe = at(p)
    Jv, Jg, _ = pe.jets(J)
    return ddc_from_jets(pe.raw(f), Jv, Jg)


def ddc_from_jets(fjet, Jv, Jg):
    bg = (np.einsum('...mk,...mi->...ki', fjet.hess, Jv)
          + np.einsum('...m,...mik->...ki', fjet.grad, Jg))
    return bg - bg.swapaxes(-1, -2)
