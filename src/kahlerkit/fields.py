"""Charts and pointwise tensor calculus.

A chart is a coordinate box; every tensor field is a callable taking the
coordinate jets of a point and returning its components: jets, with
constant parts written as plain numbers and arrays.  The only
differentiation ever performed is the exact jet propagation, and the jet
rules are the one place a product is differentiated: a formula of second
order (the Christoffel symbols, ddc) is a jet expression on jet_dcoord(u),
the first-order jet of du, whose gradient it reads, so outside jets.py only
metric_jets reads a Hessian.  Curvature is float-layer linear algebra on
the Christoffel symbols' value and gradient.

A point is one object, a PointEval: the coordinate jets (a Jet2) of a batch
of points, a (B, n) stack (one point is a batch of one), holding the points'
memo.  Builders call their input Fields on the PointEval they are given, and
per-point functions read fields from it, both through its one raw(), so
every field runs once for the whole batch, on it or on a lifted slice pt[k:],
a factor's point (PointEval).
A field read is its memoised jet: a reader takes .value or .grad from it.
A constant field reads as a jet at the point's batch with a zero gradient
(affine, a known zero Hessian, at a second-order point), so the rules it
enters run their derivative terms on zeros.
Only curvature is second order, so a field is computed with its Hessian
only where one is read: the metrics, and the fields a metric reads (a
chart's alpha, Theta and P+, the base metric, the twist's w, |w|^2, S+).  A
builder marks first order (Field order 1) the fields whose readers take
values and gradients only (N_J, d omega, omega-invariance, the torsion
(1/2)(nabla J~)J~): a Calabi chart's J, I0 and theta, every twisted
endomorphism E_w, a plane product's J0 and J~0, and U+ = (1-S)^{-1} - 1,
which only the E_w read.  A marked field runs on the
point's first-order view, which reads every other field from the same memo
as the first_order view of its jet.
The Christoffel symbols are built on the point's memoised inverse, a
first-order jet (jinv), so each metric is inverted once per point, behind
_inverse, the one singular-metric guard.
The float layer works on stacks (jets.contract specs with the batch letter
Z in front, transposes and broadcasts, stacked np.linalg solves), so each
result carries the batch axis in front.  Every per-point function takes a
PointEval and returns (B,) residual arrays; metric_jets is the one function
that takes raw coordinates.
The scenario runner evaluates every chart's sample plan as one batch and
folds each check into one Fold (a chain's levels share it), which keeps each
residual name's values as one array and replays a batch point by point when
it fails.

Curvature convention: R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z
- nabla_[X,Y] Z, lowered on the last slot as R(X,Y,Z,W) = g(R(X,Y)Z, W), and
Ricci(X,Y) = trace(Z -> R(Z,X)Y). Validated against sphere/hyperbolic oracles.
"""

import functools
import itertools
import math

import numpy as np

from kahlerkit.jets import (Jet2, JetDomainError, _jet, contract, jeinsum, jet_dcoord, jinv,
                            pack, sample_points)


class DegenerateMetricError(ValueError):
    pass


class NotClosedError(ValueError):
    pass


class ChartManifold:
    """Coordinate box with a dimension and a label; all geometry on it is a
    function of a point expressed in these coordinates.  Each interval (a, b)
    must be finite with a < b."""

    def __init__(self, dim, domain, label=""):
        if dim < 1 or len(domain) != dim:
            raise ValueError("domain must provide one interval per coordinate")
        self.dim = int(dim)
        self.domain = [(float(a), float(b)) for a, b in domain]
        for a, b in self.domain:
            if not (math.isfinite(a) and math.isfinite(b) and a < b):
                raise ValueError("chart interval [%r, %r] must be finite with a < b" % (a, b))
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
    """A tensor field: fn maps the coordinate jets of a point to its
    components (a jet, an array, a number, or a list or nested list of them,
    constants written as plain numbers and arrays).  Called on a point it
    returns them packed into one Jet2 there, from the memo when the point is
    a PointEval.  label names a field in reports.  order is the derivative
    order the field is computed to at a PointEval: 2, or 1 for a field whose
    readers take values and gradients only (see PointEval.raw); a field
    called on a bare Jet2 is computed to that jet's order.  A built field is
    immutable, as the memoised cases that hold it are shared, and two fields
    are equal only when they are the same object."""

    __slots__ = ("fn", "label", "order")

    def __init__(self, fn, *, label="", order=2):
        object.__setattr__(self, "fn", fn)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "order", order)

    def __setattr__(self, name, value):
        raise AttributeError("a Field is immutable: cannot set %r" % name)

    def __delattr__(self, name):
        raise AttributeError("a Field is immutable: cannot delete %r" % name)

    def __call__(self, pt):
        if isinstance(pt, PointEval):
            return pt.raw(self)
        return pack(self.fn(pt), pt)


def _fn(f):
    """The callable behind a field or plain function: what the memo keys on,
    so fresh wrappers around one callable share its memo entry."""
    return getattr(f, "fn", f)


def _memoised(memo, key, compute):
    try:
        return memo[key]
    except KeyError:
        pass
    # computed outside the handler, so that an error raised here carries no
    # KeyError context
    val = memo[key] = compute()
    return val


def _restrict(j, k):
    """The jet j with its derivatives restricted to the last k coordinates
    (a first-order or affine j stays so)."""
    h = j._hess
    return _jet(j.value, j.grad[..., -k:], h[..., -k:, -k:] if isinstance(h, np.ndarray) else h)


def first_order(j):
    """The first-order view of the jet j, its value and gradient.  Seeding a
    PointEval with first_order(Jet2.seed(p)) makes every field read there
    first order."""
    return j if j._hess is None else _jet(j.value, j.grad, None)


def omega_of(g, J):
    """Jet of the fundamental form omega(X, Y) = g(JX, Y) from the jets of g
    and J at a point."""
    return J.T @ g


# ---------------------------------------------------------------------------
# per-point evaluation context and the residual aggregator
# ---------------------------------------------------------------------------

class PointEval(Jet2):
    """A batch of sample points as their coordinate jets, seeded once, with
    the points' memo.  Every field evaluated here is evaluated once: its jet
    (read by raw(), the one read of a field, which builders reach by calling
    a Field on the point), its Christoffel symbols, curvature and
    fundamental forms are memoised by the field's callable, and library
    functions memoise derived results (the Lee form, a per-point dict that
    several checks read) through cached().  Drop it before moving to the next point.

    p is the (B, n) stack of points (one point (n,) is taken as a batch of
    one), batch is B, and every jet and array read here carries a leading
    batch axis of B, a constant field's included: pack lifts it at the
    point's batch.

    jet, when given, is the point's coordinate jet in place of the seeded
    one: the slice pe[k:] (a factor's coordinates, still differentiated in
    all of the point's) is made once, as a PointEval of its own: a factor's
    point.  Its readers take a factor's values as they are, and a metric's
    inverse and Christoffel symbols restrict its jet to the metric's own
    coordinates (_metric): exact, as a factor's fields ignore the others.

    A point's derivative order is the order of its seed: the default seed
    is second order, and a point seeded with first_order(Jet2.seed(p)) (a
    builder's check that reads values and gradients only) computes no
    Hessian, so reading one there (a raw() jet's hess, curvature()) raises
    FirstOrderError.  Its lifted slices are first order too.

    At a second-order point, a field marked first order (Field.order 1)
    runs on the point's first-order view (first_view()): the same points
    and memo, its coordinate jets first_order of the seed, where every
    other field is read as the first_order view of its memoised jet (a
    lifted slice pt[k:] as the view of the point's own slice).  So the
    marked field and the products it forms compute no Hessian, each field
    still runs once per point, and reading a marked field's Hessian raises
    FirstOrderError."""

    __slots__ = ("p", "batch", "memo")

    def __init__(self, p, jet=None):
        self.p = np.atleast_2d(np.asarray(p, float))
        self.batch = len(self.p)
        if jet is None:
            jet = Jet2.seed(self.p)
        self.value, self.grad, self._hess = jet.value, jet.grad, jet._hess
        self.memo = {}

    def cached(self, tag, parts, compute):
        """compute(), once per point for this tag and these key parts (fields,
        keyed by their callables, or plain values)."""
        return _memoised(self.memo, (tag,) + tuple(_fn(f) for f in parts), compute)

    def first_view(self):
        """The point where a first-order field runs: the point itself when it
        is first order, else its first-order view (made anew, as it holds
        the point and the point does not hold it)."""
        return self if self._hess is None else _FirstOrderView(self)

    def raw(self, f):
        """f's components at the point, packed into one Jet2 with the batch
        axis of B (a constant one lifted here, at B), computed on first_view()
        when f is marked first order."""
        fn = _fn(f)
        jet = self.memo.get(("raw", fn))
        if jet is None:
            pt = self.first_view() if getattr(f, "order", 2) == 1 else self
            jet = self.memo["raw", fn] = pack(fn(pt), pt)
        return jet

    def __getitem__(self, idx):
        if isinstance(idx, slice) and idx.start and idx.stop is None and idx.step is None:
            return self.cached("lift", (idx.start,), lambda: PointEval(
                self.p[:, idx.start:], Jet2.__getitem__(self, idx)))
        return Jet2.__getitem__(self, idx)

    def absmax(self, x):
        """max |x| at each point of the batch (over every axis behind the
        batch axis)."""
        return np.abs(x).reshape(self.batch, -1).max(axis=1)

    def _metric(self, g):
        """g's jet, its derivatives restricted to g's own coordinates, the
        trailing ones: a factor's at a lifted slice, all at a chart point."""
        j = self.raw(g)
        return _restrict(j, j.value.shape[-1])

    def inverse(self, g):
        """First-order jet of the matrix g^{-1} (its readers take values and
        first derivatives only)."""
        return self.cached("inv", (g,), lambda: _inverse(self._metric(g)))

    def christoffel(self, g):
        """christoffel_parts of the metric g, from its memoised inverse."""
        return self.cached("gamma", (g,),
                           lambda: christoffel_parts(self._metric(g), self.inverse(g)))

    def curvature(self, g):
        """(Riemann lowered, Ricci, scalar, g^{-1}) of the metric g, from its
        memoised Christoffel symbols."""
        return self.cached("curv", (g,),
                           lambda: curvature_from_parts(self.raw(g).value, *self.christoffel(g)))

    def omega(self, g, J):
        """First-order jet of the fundamental form of (g, J) (its readers take
        values and first derivatives only)."""
        return self.cached("omega", (g, J), lambda: omega_of(first_order(self.raw(g)),
                                                             first_order(self.raw(J))))


class _FirstOrderView(PointEval):
    """The first-order view of the second-order point full: its points and
    memo, its coordinate jets first_order(full).  A field read here is the
    first_order view of full's memoised jet, computed there to the field's
    own order, and a lifted slice pt[k:] is the view of full's."""

    __slots__ = ("full",)

    def __init__(self, full):
        self.p, self.batch, self.memo = full.p, full.batch, full.memo
        self.value, self.grad, self._hess = full.value, full.grad, None
        self.full = full

    def raw(self, f):
        return first_order(self.full.raw(f))

    def __getitem__(self, idx):
        if isinstance(idx, slice) and idx.start and idx.stop is None and idx.step is None:
            return self.full[idx].first_view()
        return Jet2.__getitem__(self, idx)


DOMAIN_ERRORS = (JetDomainError, DegenerateMetricError, NotClosedError,
                 np.linalg.LinAlgError)


def float_checked(fn, arg):
    """fn(arg) with numpy's overflow, invalid operation and division by zero
    raised as a JetDomainError, not warned about (underflow still passes):
    an intermediate that leaves the floats fails where it arises, also
    where no residual reads it (an overflowed Hessian memoised for later)."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return fn(arg)
    except FloatingPointError as exc:
        raise JetDomainError(str(exc)) from None


def worst(*residuals):
    """Largest residual (at each point of a batch), NaN included (max() drops
    a NaN that is not first)."""
    out = residuals[0]
    for r in residuals[1:]:
        out = np.maximum(out, r)
    return out


def excluded(mask, r):
    """The residual r with the points where mask holds excluded from the
    fold: None where the whole batch is excluded, else the batch's array,
    masked (np.ma) where some of its points are."""
    if mask.all():
        return None
    return np.ma.masked_array(r, mask) if mask.any() else r


class Fold:
    """Per-point residuals folded over sample points.

    A per-point function, given a PointEval of a (B, n) stack, returns one
    residual per point, a (B,) array (masked where points are excluded, see
    excluded(); None excludes them all), or a dict of such residuals by
    name.  Anything else raises ValueError.  values[key] is one float array
    of the residuals kept under that name, in point order; excluded[key]
    counts the points excluded from it (a name appears once it has one); and
    points counts the points folded.  used, max and mean read a name: 0 for
    one with no value kept, and KeyError for one that no batch returned,
    unless the fold has stopped at an error.

    Batches add in turn: a chain check's levels share one fold.  fn runs
    under float_checked, so a float overflow, invalid operation or division
    by zero is a domain error.  The fold stops at the first domain error,
    keeping the points before it, and at the first NaN or inf residual,
    which it keeps as its max; either way error names the point, and later
    adds do nothing.  At a domain error, exc is an exception of its type
    whose message is error, for a caller that raises it.  A batch of more
    than one point that raises a domain error or yields a NaN or inf is
    replayed point by point, through the same function on batches of one,
    so error, the points kept, max and mean are those of a fold over single
    points; only failing batches pay for it.
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
            r = float_checked(fn, pe)
        except DOMAIN_ERRORS as exc:
            if pe.batch > 1:
                return self._replay(pe, fn)
            self.error = "%s at point %s: %s" % (type(exc).__name__,
                                                 pe.p[0].round(8).tolist(), exc)
            self.exc = type(exc)(self.error)
            return
        items = r.items() if isinstance(r, dict) else ((None, r),)
        kept = {key: _kept(key, val, pe.batch) for key, val in items}
        finite = all(np.isfinite(v).all() for v in kept.values())
        if not finite and pe.batch > 1:
            return self._replay(pe, fn)
        self.points += pe.batch
        for key, v in kept.items():
            if len(v) < pe.batch:
                self.excluded[key] = self.excluded.get(key, 0) + pe.batch - len(v)
            if len(v):
                self.values[key] = (np.concatenate((self.values[key], v))
                                    if key in self.values else v)
        if not finite:
            self.error = "non-finite residual at point %s" % pe.p[0].round(8).tolist()

    def _replay(self, pe, fn):
        # each point is seeded to the derivative order of the batch
        for p in pe.p:
            jet = Jet2.seed(p)
            self.add(PointEval(p[None], jet if pe._hess is not None else first_order(jet)), fn)

    def _read(self, key):
        """values[key], or None where the name has no value kept: every point
        excluded from it, or the fold stopped at an error before it.  A name
        that no batch returned is a misread and raises KeyError."""
        if key not in self.values and key not in self.excluded and not self.error:
            raise KeyError("no per-point residual named %r was folded here" % (key,))
        return self.values.get(key)

    def used(self, key=None):
        v = self._read(key)
        return 0 if v is None else len(v)

    def max(self, key=None):
        v = self._read(key)
        if v is None:
            return 0.0
        return float(v[-1] if not np.isfinite(v[-1]) else v.max())

    def mean(self, key=None):
        v = self._read(key)
        # summed left to right, as a fold over single points sums
        return sum(v.tolist()) / len(v) if v is not None else 0.0


def _kept(key, val, batch):
    """A batch's residual as the float array of the points kept, in point
    order (a masked point, or every point of a None, is excluded)."""
    if val is None:
        return np.empty(0)
    if np.size(val) != batch:
        raise ValueError("per-point function returned %sshape %s on a batch of %d "
                         "point(s); it must return one residual per point"
                         % ("" if key is None else "residual %r of " % key,
                            np.shape(val), batch))
    kept = np.array(val, float).reshape(batch)
    # a masked array (see excluded()) is read through its mask, so that an
    # unmasked residual does not import numpy.ma
    mask = np.ravel(getattr(val, "mask", False))
    return kept[~mask] if mask.any() else kept


def metric_jets(g, p):
    """The (value, grad, hess) arrays of the metric g at the point or (B, n)
    stack p: the one entry that takes raw coordinates."""
    j = PointEval(p).raw(g)
    return j.value, j.grad, j.hess


# ---------------------------------------------------------------------------
# curvature stack
# ---------------------------------------------------------------------------

def _inverse(g):
    """First-order jet of the inverse of the matrix jet g: the one
    singular-metric guard."""
    try:
        return jinv(g)
    except JetDomainError:
        raise DegenerateMetricError("singular metric") from None


def christoffel_parts(g, gi):
    """Gamma[k,i,j] plus its coordinate derivative dGamma[k,i,j,m] and g^{-1}
    (of each point of a batch) from the metric's jet g and the first-order
    jet gi of its inverse: Gamma is built as a first-order jet, so the jet
    rules differentiate it.  Gamma^k_ij = (1/2) g^kl S_lij for
    S_lij = d_i g_jl + d_j g_il - d_l g_ij, three transposes of dg[a,b,c] =
    d_c g_ab summed, so one product forms it."""
    dg = jet_dcoord(g)
    S = dg.transpose(1, 2, 0) + dg.transpose(1, 0, 2) - dg.transpose(2, 0, 1)
    Gam = jeinsum("kl,lij->kij", 0.5 * gi, S)
    return Gam.value, Gam.grad, gi.value


def curvature_from_jets(gv, gg, gh):
    """(Riemann lowered, Ricci, scalar, g^{-1}) from the metric's jets."""
    g = Jet2(gv, gg, gh)
    return curvature_from_parts(gv, *christoffel_parts(g, _inverse(g)))


def curvature_from_parts(gv, Gam, dGam, gi):
    """curvature_from_jets given the metric's value and christoffel_parts."""
    # R^l_ijk = T^l_ijk - T^l_jik with T^l_ijk = d_i Gamma^l_jk + Gamma^l_im Gamma^m_jk
    T = np.moveaxis(dGam, -1, -3) + contract("Zlim,Zmjk->Zlijk", Gam, Gam)
    Rlow = contract("Zlm,Zmijk->Zijkl", gv, T - T.swapaxes(-3, -2))
    Ric = contract("Zil,Zijkl->Zjk", gi, Rlow)
    scal = contract("Zij,Zij->Z", gi, Ric)
    return Rlow, Ric, scal, gi


def pull_back(T, A):
    """Components of the covariant tensor T(A., ..., A.) (at each point of a
    batch: the axes of A before its last two lead T's as well).  Each step
    contracts the leading slot with A and appends the result as the last
    slot, so a k-tensor costs k n^(k+1) multiplications, not n^(2k)."""
    b = A.ndim - 2
    lead, slots = "ZYXW"[:b], "abcdefgh"[:T.ndim - b]
    spec = "%s%s,%s%sz->%s%sz" % (lead, slots, lead, slots[0], lead, slots[1:])
    for _ in slots:
        T = contract(spec, T, A)
    return T


# ---------------------------------------------------------------------------
# exterior derivative, Nijenhuis
# ---------------------------------------------------------------------------

def exterior_from_grad(grad, k):
    """d of a k-form given the packed component gradients (the k form axes
    and the derivative axis last, behind any batch axis)."""
    out = None
    for j in range(k + 1):
        term = np.moveaxis(grad, -1, j - k - 1)
        out = term if out is None else out + ((-1.0) ** j) * term
    return out


def nijenhuis_from_jets(Jv, Jg):
    """N^k_ij with Jg[k,j,m] = d_m J^k_j; zero iff the structure is integrable:
    S^k_ij - S^k_ji with S^k_ij = J^m_i d_m J^k_j + J^k_m d_j J^m_i."""
    S = contract("Zmi,Zkjm->Zkij", Jv, Jg) + contract("Zkm,Zmij->Zkij", Jv, Jg)
    return S - S.swapaxes(-1, -2)


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
    value array on a 2m-dimensional chart, or a stack of them, one per point
    of a batch): the signed sum over the perfect matchings of the 2m indices
    of the permanent of beta_i on the matched pairs."""
    m = len(two_forms)
    n = two_forms[0].shape[-1]
    if n != 2 * m:
        raise ValueError("wedge_top needs m two-forms on a 2m-dimensional chart")
    signs, first, second, slots = _matchings(n)
    B = np.stack(two_forms, axis=-3)
    # A[..., i, M, j] = beta_i on pair j of matching M; the permanent sums
    # prod_i A[..., i, M, s(i)] over the assignments s of pairs to forms
    A = B[..., first, second]
    perm = A[..., np.arange(m), :, slots].prod(axis=1).sum(axis=0)
    return perm @ signs
