"""Charts and pointwise tensor calculus.

A chart is a coordinate box; every tensor field is a callable taking the
coordinate jets of a point and returning jet-valued components.  Builders
call their input Fields on the point they are given, so on a PointEval's
point (and on its lifted slices pt[k:]) every field runs once.  All
curvature below is float-layer linear algebra on the packed (value, grad,
hess) arrays, so the only differentiation ever performed is the exact jet
propagation.

Curvature convention: R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z
- nabla_[X,Y] Z, lowered on the last slot as R(X,Y,Z,W) = g(R(X,Y)Z, W), and
Ricci(X,Y) = trace(Z -> R(Z,X)Y). Validated against sphere/hyperbolic oracles.
"""

import functools
import itertools
import math

import numpy as np

from kahlerkit.jets import Jet2, JetDomainError, jinv, pack, sample_points


class DegenerateMetricError(ValueError):
    pass


class NotClosedError(ValueError):
    pass


class AlmostComplexError(ValueError):
    pass


class CompatibilityError(ValueError):
    pass


class ChartManifold:
    """Coordinate box with a dimension and a label; all geometry on it is a
    function of a point expressed in these coordinates."""

    def __init__(self, dim, domain, label=""):
        if dim < 1 or len(domain) != dim:
            raise ValueError("domain must provide one interval per coordinate")
        self.dim = int(dim)
        self.domain = [(float(a), float(b)) for a, b in domain]
        self.label = label

    def samples(self, plan):
        return sample_points(self.domain, plan)

    def contains(self, p):
        p = np.asarray(p, float)
        return all(a <= x <= b for x, (a, b) in zip(p, self.domain))

    def center(self):
        return np.array([0.5 * (a + b) for a, b in self.domain])

    def __repr__(self):
        return f"ChartManifold(dim={self.dim}, label={self.label!r})"


class Field:
    """A tensor field on a chart: fn maps the coordinate jets of a point to
    jet-valued components (a jet, a list, or a nested list).  Called on a
    point it returns them packed into one Jet2, from the memo when the point
    is a PointEval's.  degree is set for differential forms; label names a
    field in reports."""

    def __init__(self, fn, chart=None, degree=None, label=""):
        self.fn = fn
        self.chart = chart
        self.degree = degree
        self.label = label

    def __call__(self, pt):
        if isinstance(pt, Point):
            return pt.raw(self)
        return pack(self.fn(pt))


def _fn(f):
    """The callable behind a field or plain function: what the memo keys on,
    so fresh wrappers around one callable share its memo entry."""
    return getattr(f, "fn", f)


def _memoised(memo, key, compute):
    try:
        return memo[key]
    except KeyError:
        val = memo[key] = compute()
        return val


class Point(Jet2):
    """Coordinate jets of a sample point carrying the point's memo: a Field
    called on them is evaluated once, and the slice pt[k:] (a factor's
    coordinates, still differentiated in all of the point's) is made once, as
    a Point with a memo of its own.  A factor's point (PointEval.sub()) holds
    the lifted slice it came from and reads its fields there, restricted to
    its own derivative columns."""

    __slots__ = ("memo", "lifted")

    def __init__(self, jet, memo, lifted=None):
        self.value, self.grad, self.hess = jet.value, jet.grad, jet.hess
        self.memo = memo
        self.lifted = lifted

    def raw(self, f):
        """f's components here, packed into one Jet2."""
        fn = _fn(f)
        if self.lifted is None:
            return _memoised(self.memo, ("raw", fn), lambda: pack(fn(self)))
        return _memoised(self.memo, ("raw", fn),
                         lambda: _restrict(self.lifted.raw(fn), self.grad.shape[-1]))

    def __getitem__(self, idx):
        if isinstance(idx, slice) and idx.start and idx.stop is None and idx.step is None:
            return _memoised(self.memo, ("lift", idx.start),
                             lambda: Point(Jet2.__getitem__(self, idx), {}))
        return Jet2.__getitem__(self, idx)


def _restrict(j, k):
    """The jet j with its derivatives restricted to the last k coordinates."""
    return Jet2(j.value, j.grad[..., -k:], j.hess[..., -k:, -k:])


def omega_of(g, J):
    """Jet of the fundamental form omega(X, Y) = g(JX, Y) from the components
    of g and J at one point."""
    return pack(J).T @ pack(g)


# ---------------------------------------------------------------------------
# per-point evaluation context and the residual aggregator
# ---------------------------------------------------------------------------

class PointEval:
    """One sample point, seeded once.  Every field evaluated here is evaluated
    once: its jet components, their (value, grad, hess) arrays, its
    curvature and fundamental forms are memoised by the field's callable, and
    library functions memoise derived results (the Lee form, the torsion
    tensor) through cached().  Fields that builders call on x, or on a slice
    x[k:], come from the same memo, which x carries.  Drop it before moving
    to the next point."""

    def __init__(self, p):
        self.p = np.asarray(p, float)
        self._x = None
        self._memo = {}

    @property
    def x(self):
        """Coordinate jets of the point, as a Point sharing this memo."""
        if self._x is None:
            self._x = Point(Jet2.seed(self.p), self._memo)
        return self._x

    def cached(self, tag, parts, compute):
        """compute(), once per point for this tag and these key parts (fields,
        keyed by their callables, or plain values)."""
        return _memoised(self._memo, (tag,) + tuple(_fn(f) for f in parts), compute)

    def raw(self, f):
        """f's components at the point, packed into one Jet2."""
        return self.x.raw(f)

    def jets(self, f):
        """The (value, grad, hess) arrays of f at the point."""
        def arrays():
            j = self.raw(f)
            return j.value, j.grad, j.hess
        return self.cached("jets", (f,), arrays)

    def inverse(self, g):
        """Jet of the matrix g^{-1}."""
        return self.cached("inv", (g,), lambda: jinv(self.raw(g)))

    def christoffel(self, g):
        return self.cached("gamma", (g,),
                           lambda: christoffel_parts(*self.jets(g), self.p))

    def curvature(self, g):
        """(Riemann lowered, Ricci, scalar, g^{-1}) of the metric g."""
        return self.cached("curv", (g,),
                           lambda: curvature_from_jets(*self.jets(g), self.p))

    def omega(self, g, J):
        """Jet of the fundamental form of (g, J)."""
        return self.cached("omega", (g, J), lambda: omega_of(self.raw(g), self.raw(J)))

    def sub(self, start):
        """The point made of coordinates start.. (a factor's own chart).  Its
        fields are read from the lifted slice x[start:], restricted to the
        factor's derivative columns: exact, as a factor's fields do not depend
        on the coordinates before start, and each runs once per point."""
        def make():
            pe = PointEval(self.p[start:])
            lifted = self.x[start:]
            pe._x = Point(_restrict(lifted, lifted.value.size), pe._memo, lifted)
            return pe
        return self.cached("sub", (start,), make)


def at(p):
    """p as a PointEval: every per-point function accepts a bare point or a
    PointEval shared with the other checks at that point."""
    return p if isinstance(p, PointEval) else PointEval(p)


DOMAIN_ERRORS = (JetDomainError, DegenerateMetricError, NotClosedError,
                 AlmostComplexError, CompatibilityError, np.linalg.LinAlgError)


def worst(*residuals):
    """Largest residual, NaN included (max() drops a NaN that is not first)."""
    return float(np.max(residuals))


class Fold:
    """Per-point residuals folded over sample points.

    A per-point function returns one residual, None to exclude the point, or
    a dict of named residuals (None excluding the point for that name).  The
    fold stops at the first domain error, keeping the points before it, and
    at the first NaN or inf residual, which it keeps as its max; either way
    error names the point.
    """

    def __init__(self):
        self.values = {}
        self.excluded = {}
        self.points = 0
        self.error = ""
        self.exc = None

    def add(self, pe, fn):
        if self.error:
            return
        try:
            r = fn(pe)
        except DOMAIN_ERRORS as exc:
            self.exc = exc
            self.error = "%s at point %s: %s" % (type(exc).__name__,
                                                 pe.p.round(8).tolist(), exc)
            return
        self.points += 1
        for key, val in (r.items() if isinstance(r, dict) else ((None, r),)):
            if val is None:
                self.excluded[key] = self.excluded.get(key, 0) + 1
                continue
            self.values.setdefault(key, []).append(float(val))
            if not math.isfinite(val):
                self.error = "non-finite residual at point %s" % pe.p.round(8).tolist()

    def used(self, key=None):
        return len(self.values.get(key, ()))

    def max(self, key=None):
        vals = self.values.get(key)
        if not vals:
            return 0.0
        return vals[-1] if not math.isfinite(vals[-1]) else max(vals)

    def mean(self, key=None):
        vals = self.values.get(key)
        return sum(vals) / len(vals) if vals else 0.0


def fold(points, fn):
    """Fold fn(PointEval(p)) over points; a domain error propagates."""
    acc = Fold()
    for p in points:
        acc.add(PointEval(p), fn)
        if acc.exc is not None:
            raise acc.exc
        if acc.error:
            break
    return acc


def metric_jets(g, p):
    return at(p).jets(g)


def endo_jets(J, p):
    return at(p).jets(J)


# ---------------------------------------------------------------------------
# curvature stack
# ---------------------------------------------------------------------------

def _inverse(gv, p):
    try:
        gi = np.linalg.inv(gv)
    except np.linalg.LinAlgError:
        raise DegenerateMetricError(f"singular metric at point {np.asarray(p).tolist()}")
    return gi

def christoffel_parts(gv, gg, gh, p=None):
    """Gamma[k,i,j] plus its coordinate derivative dGamma[k,i,j,m] and g^{-1}."""
    gi = _inverse(gv, p)
    T = np.einsum('jli->lij', gg) + np.einsum('ilj->lij', gg) - np.einsum('ijl->lij', gg)
    Gam = 0.5 * np.einsum('kl,lij->kij', gi, T)
    dgi = -np.einsum('kbm,bl->klm', np.einsum('ka,abm->kbm', gi, gg), gi)
    dT = (np.einsum('jlim->lijm', gh) + np.einsum('iljm->lijm', gh)
          - np.einsum('ijlm->lijm', gh))
    dGam = (0.5 * np.einsum('klm,lij->kijm', dgi, T)
            + 0.5 * np.einsum('kl,lijm->kijm', gi, dT))
    return Gam, dGam, gi


def curvature_from_jets(gv, gg, gh, p=None):
    Gam, dGam, gi = christoffel_parts(gv, gg, gh, p)
    Rup = (np.einsum('ljki->lijk', dGam) - np.einsum('likj->lijk', dGam)
           + np.einsum('lim,mjk->lijk', Gam, Gam) - np.einsum('ljm,mik->lijk', Gam, Gam))
    Rlow = np.einsum('lm,mijk->ijkl', gv, Rup)
    Ric = np.einsum('il,ijkl->jk', gi, Rlow)
    scal = np.einsum('jk,jk->', gi, Ric)
    return Rlow, Ric, scal, gi


def pull_back(T, A):
    """Components of the covariant tensor T(A., ..., A.).  Each step contracts
    the leading slot with A and appends the result as the last slot, so a
    k-tensor costs k n^(k+1) multiplications, not n^(2k)."""
    for _ in range(T.ndim):
        T = np.tensordot(T, A, axes=(0, 0))
    return T


def riemann(g, p):
    return at(p).curvature(g)[0]


def ricci(g, p):
    return at(p).curvature(g)[1]


def scalar_curvature(g, p):
    return at(p).curvature(g)[2]


# ---------------------------------------------------------------------------
# Lie derivative, exterior derivative, Nijenhuis
# ---------------------------------------------------------------------------

def lie_derivative_metric(g, V, p):
    """(L_V g)_ij = V^k d_k g_ij + g_kj d_i V^k + g_ik d_j V^k."""
    pe = at(p)
    gv, gg, _ = pe.jets(g)
    vv, vg, _ = pe.jets(V)
    return (np.einsum('k,ijk->ij', vv, gg) + np.einsum('kj,ki->ij', gv, vg)
            + np.einsum('ik,kj->ij', gv, vg))


def lie_endo_from_jets(Xv, Xg, Jv, Jg):
    """(L_X J)^k_j = X^m d_m J^k_j - J^m_j d_m X^k + J^k_m d_j X^m."""
    t1 = np.einsum('m,kjm->kj', Xv, Jg)
    t2 = np.einsum('mj,km->kj', Jv, Xg)
    t3 = np.einsum('km,mj->kj', Jv, Xg)
    return t1 - t2 + t3


def exterior_from_grad(grad, k):
    """d of a k-form given the packed component gradients."""
    out = None
    for j in range(k + 1):
        term = np.moveaxis(grad, -1, j)
        out = term if out is None else out + ((-1.0) ** j) * term
    return out


def wedge12(theta, om):
    """(theta ^ om)_ijk of a 1-form and a 2-form."""
    return (np.einsum('i,jk->ijk', theta, om) - np.einsum('j,ik->ijk', theta, om)
            + np.einsum('k,ij->ijk', theta, om))


def exterior_derivative(omega, p, dim=None):
    """(d omega) components at p; degree omega.degree + 1 must not exceed dim."""
    grad = at(p).raw(omega).grad
    if omega.degree == 0:
        return grad
    n = grad.shape[-1]
    if dim is None:
        dim = n
    if omega.degree + 1 > dim:
        raise ValueError(f"exterior derivative of degree {omega.degree} form exceeds dim {dim}")
    return exterior_from_grad(grad, omega.degree)


def nijenhuis_from_jets(Jv, Jg):
    """N^k_ij with Jg[k,j,m] = d_m J^k_j; zero iff the structure is integrable."""
    t1 = np.einsum('mi,kjm->kij', Jv, Jg)
    t2 = np.einsum('mj,kim->kij', Jv, Jg)
    t3 = np.einsum('km,mij->kij', Jv, Jg)
    t4 = np.einsum('km,mji->kij', Jv, Jg)
    return t1 - t2 + t3 - t4


def nijenhuis(J, p, check=True, tol=1e-8):
    pe = at(p)
    Jv, Jg, _ = pe.jets(J)
    if check:
        d = Jv.shape[0]
        sq = np.abs(Jv @ Jv + np.eye(d)).max()
        if sq > tol:
            raise AlmostComplexError(
                f"endomorphism square differs from -1 by {sq:.2e} at {pe.p.tolist()}")
    return nijenhuis_from_jets(Jv, Jg)


# ---------------------------------------------------------------------------
# homotopy primitive (star-shaped chart, center = box center)
# ---------------------------------------------------------------------------

def homotopy_primitive(omega, chart, order=32, check_plan=None, tol=1e-8):
    """One-form alpha with d(alpha) = omega for a closed 2-form omega.

    alpha(x) = integral_0^1 t * omega(c + t(x-c))(x - c, .) dt with c the box
    center. Exact for polynomial omega at the default order. Closedness of
    omega is verified on a small sample first.
    """
    if check_plan is not None:
        for p in chart.samples(check_plan):
            d = exterior_derivative(omega, p, chart.dim)
            r = np.abs(d).max()
            if r > tol:
                raise NotClosedError(f"form is not closed: d-residual {r:.2e} at {p.tolist()}")
    c = chart.center()
    dim = chart.dim
    nodes, weights = np.polynomial.legendre.leggauss(order)

    def alpha_fn(pt):
        diff = pt[:dim] - c
        acc = 0.0
        for x, w in zip(nodes, weights):
            t = 0.5 * (x + 1.0)
            acc = acc + (0.5 * w * t) * (diff @ omega(c + t * diff))
        return acc

    return Field(alpha_fn, chart, degree=1)


# ---------------------------------------------------------------------------
# wedge products of 2-forms (top-degree coefficient)
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _matchings(n):
    """Perfect matchings of range(n), built once per n on first use: their
    signs (that of the permutation a_1 b_1 a_2 b_2 ... listing the pairs), the
    arrays first = a_j and second = b_j, each (count, n // 2) with a_j < b_j,
    and the permutations of the n // 2 pairs."""
    def rec(idx):
        if not idx:
            yield 1, ()
            return
        a, rest = idx[0], idx[1:]
        for k, b in enumerate(rest):
            for sign, pairs in rec(rest[:k] + rest[k + 1:]):
                yield (-1) ** k * sign, ((a, b),) + pairs
    signs, pairs = zip(*rec(tuple(range(n))))
    pairs = np.array(pairs).reshape(len(signs), n // 2, 2)
    slots = np.array(list(itertools.permutations(range(n // 2))))
    return np.array(signs, float), pairs[..., 0], pairs[..., 1], slots


def wedge_top(two_forms):
    """Coefficient of e_0^...^e_{2m-1} in beta_1 ^ ... ^ beta_m (each a 2-form
    value array on a 2m-dimensional chart): the signed sum over the perfect
    matchings of the 2m indices of the permanent of beta_i on the matched
    pairs."""
    m = len(two_forms)
    n = two_forms[0].shape[0]
    if n != 2 * m:
        raise ValueError("wedge_top needs m two-forms on a 2m-dimensional chart")
    signs, first, second, slots = _matchings(n)
    B = np.stack(two_forms)
    # A[i, M, j] = beta_i on pair j of matching M; the permanent sums
    # prod_i A[i, M, s(i)] over the assignments s of pairs to forms
    A = B[:, first, second]
    perm = A[np.arange(m), :, slots].prod(axis=1).sum(axis=0)
    return float(signs @ perm)
