"""Second-order forward jet arithmetic and deterministic sampling.

A Jet2 carries (value, gradient, Hessian) with respect to the chart coordinates
and propagates them exactly, each rule written once: _chain for every scalar
function (1/u, log, sin), _linear for + and -, _product for *, jeinsum and
an integral power, and _map for indexing, .T and transpose, a sign, padding,
a broadcast and embed (a block placed inside a zero jet).
A jet carries B points at once (vectorised Taylor-mode propagation), and a
single point is a batch of one.  Its value has shape (B,) + s for value axes
s of any shape (a scalar jet has s = ()), its gradient (B,) + s + (n,) and
its Hessian (B,) + s + (n, n).  shape, len, indexing, iteration and .T act on
the value axes behind the batch axis, so a builder closure reads as if it ran
at one point.  The elementwise rules broadcast: in a binary rule the operand
with fewer value axes gets unit ones right after its batch axis, so a (B,)
scalar times an (n, n) matrix broadcasts as it does at one point, and a
plain array or a jet of batch axis 1 (a lifted constant) broadcasts against
a batch.
contract is the library's one contraction engine: it runs an explicit
two-operand einsum spec, the batch axis one more letter, as one batched
np.matmul on a plan cached by the spec and the operand shapes, and the float
layer of every module contracts through it.  jeinsum contracts value axes by
the product rule, and jinv inverts each matrix of the stack in closed form, to
first order (its readers take values and gradients only); both run on
contract.
Curvature needs two derivatives of metric components, so second order is the
whole story; there is no truncation error, only roundoff.

The Hessian slot of a jet holds half a Hessian, K, with H = K + K^T: the
rules are linear in K, a product's cross term u' v'^T enters once, and the
Hessian read Jet2.hess forms K + K^T there alone (Jet2's constructor takes a
whole Hessian and keeps half).  The slot holds one of three states:
- an array, the half Hessian;
- None, a first-order jet, which carries no Hessian: jet_dcoord and jinv
  return one (the third derivatives of u that jet_dcoord would need are not
  tracked), and reading its hess raises FirstOrderError;
- AFFINE, a known zero Hessian: the coordinates Jet2.seed returns, which
  allocate no zero array, their sums and constant multiples, and a constant
  lifted at a second-order point (with its zero gradient).
Reading hess gives zeros for AFFINE.  _map, _chain, _linear, _product and
pack skip the terms that a first-order or affine operand would add; _lift
carries the states through.  No other rule tests for them.

A constant is a plain number or array wherever it appears; pack lifts one
that a field returns to a jet (batch axis 1, zero derivatives) in the
coordinates and derivative order of the jets beside it or of the point it
is read at: AFFINE at a second-order point, first order at a first-order
one.

Sample points come from numpy's own algorithm, written here: SeedSequence
turns the seed into a Philox4x64-10 key, and the counter-based stream is
computed for all its blocks at once on uint64 arrays, so the draws are
bit-identical to numpy's Generator(Philox(seed)) and no module imports
numpy's random module.  Each (seed, count, dim) draw is memoised.
"""

import enum
import functools
import math
import numbers
import operator

import numpy as np


class JetDomainError(ValueError):
    """Raised when a jet operation leaves its domain (log of nonpositive value,
    division by zero), and by fields.float_checked for a float overflow or
    invalid operation.  A Fold names the point where it was raised."""


class FirstOrderError(Exception):
    """Raised when the Hessian of a first-order jet is read.  It is a defect
    of the caller, not of the point, so no Fold records it."""


_new = object.__new__


class Zero(enum.Enum):
    """The known-zero state of the Hessian slot, beside None and an array
    (see the module docstring)."""
    AFFINE = "affine"


AFFINE = Zero.AFFINE


def _jet(value, grad, hess):
    """Jet2 of computed arrays, without conversion or copies (hess None for a
    first-order jet, or AFFINE)."""
    j = _new(Jet2)
    j.value = value
    j.grad = grad
    j._hess = hess
    return j


def _hessian(j):
    """The Hessian array of the second-order jet j, zeros for AFFINE."""
    h = j._hess
    return h if isinstance(h, np.ndarray) else np.zeros(j.grad.shape + j.grad.shape[-1:])


def _map(j, f):
    """The jet whose value, gradient and Hessian are f of j's, for a rule that
    acts on the value axes alone; first order or affine when j is."""
    h = j._hess
    return _jet(f(j.value), f(j.grad), f(h) if isinstance(h, np.ndarray) else h)


def embed(j, shape, index):
    """The jet of value axes shape holding j at index (of those axes) and
    zeros elsewhere, without a product by 0/1 selection matrices: a _map, so
    first order or affine when j is."""
    def place(a):
        out = np.zeros(a.shape[:1] + shape + a.shape[j.value.ndim:])
        out[(slice(None),) + np.index_exp[index]] = a
        return out
    return _map(j, place)


def _outer(g):
    """g_i g_j over the last axis, broadcast over the value axes."""
    return g[..., :, None] * g[..., None, :]


def _chain(u, f, d1, d2):
    """The jet of f(u) from the arrays f, f' and f'' at u's value: gradient
    f' du, half Hessian f' K + f''/2 du du^T for u's half Hessian K (first
    order when u is, without f' K when u is affine)."""
    h = u._hess
    d1 = d1[..., None]
    grad = d1 * u.grad
    if h is None:
        return _jet(f, grad, None)
    outer = (0.5 * d2)[..., None, None] * _outer(u.grad)
    if h is AFFINE:
        return _jet(f, grad, outer)
    # summed in place: the Hessian is the largest array
    hess = d1[..., None] * h
    hess += outer
    return _jet(f, grad, hess)


def _pad(j, k):
    """The jet j with unit value axes inserted after its batch axis until it
    has k value axes."""
    d = k + 1 - j.value.ndim
    if d <= 0:
        return j
    head = j.value.shape[:1] + (1,) * d
    return _map(j, lambda a: a.reshape(head + a.shape[1:]))


def _aligned(a, b):
    """Jets a and b, the one with fewer value axes padded to the other's
    count."""
    ka, kb = a.value.ndim, b.value.ndim
    if ka < kb:
        a = _pad(a, kb - 1)
    elif kb < ka:
        b = _pad(b, ka - 1)
    return a, b


def _product(a, b, op):
    """The product rule for jets a and b, one of which may be a plain float
    array (a constant): op(x, y, dx, dy) multiplies arrays with dx and dy
    derivative axes into one with x's, then y's.  The half Hessian
    K_a b + a K_b + a' b'^T takes the cross term once.  A plain array adds
    no derivative term, an affine factor no Hessian term."""
    if not isinstance(b, Jet2):
        h = a._hess
        return _jet(op(a.value, b, 0, 0), op(a.grad, b, 1, 0),
                    op(h, b, 2, 0) if isinstance(h, np.ndarray) else h)
    if not isinstance(a, Jet2):
        h = b._hess
        return _jet(op(a, b.value, 0, 0), op(a, b.grad, 0, 1),
                    op(a, h, 0, 2) if isinstance(h, np.ndarray) else h)
    x, y, ha, hb = a.value, b.value, a._hess, b._hess
    value = op(x, y, 0, 0)
    # summed in place: a Hessian is the largest array
    grad = op(a.grad, y, 1, 0)
    grad += op(x, b.grad, 0, 1)
    if ha is None or hb is None:
        return _jet(value, grad, None)
    hess = op(a.grad, b.grad, 1, 1)
    if ha is not AFFINE:
        hess += op(ha, y, 2, 0)
    if hb is not AFFINE:
        hess += op(x, hb, 0, 2)
    return _jet(value, grad, hess)


# _elementwise's indices by (dx, dy): x gains dy axes behind its own, and y
# gains dx axes in front of its dy derivative axes
_SPREAD = {(dx, dy): ((...,) + (None,) * dy, (...,) + (None,) * dx + (slice(None),) * dy)
           for dx in range(3) for dy in range(3 - dx)}


def _elementwise(x, y, dx, dy):
    """x * y, broadcast, for arrays carrying dx and dy derivative axes: the
    product carries x's, then y's."""
    ix, iy = _SPREAD[dx, dy]
    return (x[ix] if dy else x) * (y[iy] if dx else y)


class Jet2:
    """Second-order jet of an array of functions of the chart coordinates at
    each of a batch of points; with hess None, a first-order jet, and else
    hess is a whole Hessian, of which the slot keeps half.

    Indexing (``h[i][j]``, ``h[:, cols]``) and iteration act on the value
    axes.  ndarray operands defer to Jet2, so ``array * jet`` and
    ``array @ jet`` are jets.
    """

    __slots__ = ("value", "grad", "_hess")
    __array_ufunc__ = None

    def __init__(self, value, grad, hess=None):
        self.value = np.asarray(value, float)
        self.grad = np.asarray(grad, float)
        self._hess = hess if hess is None or isinstance(hess, Zero) else 0.5 * np.asarray(hess)

    @property
    def hess(self):
        """The Hessian array K + K^T of the half Hessian K that the slot holds
        (zeros for a known-zero state); a first-order jet has none."""
        if self._hess is None:
            raise FirstOrderError("a first-order jet carries no Hessian (its value and "
                                  "gradient are exact, its second derivatives unknown)")
        h = _hessian(self)
        return h + h.swapaxes(-1, -2)

    @staticmethod
    def seed(p):
        """Jet of the coordinates at each point of the (B, n) stack p: value
        p, grad the identity, hess AFFINE (a known zero).  One point (n,)
        seeds a batch of one."""
        p = np.atleast_2d(np.asarray(p, float))
        n = p.shape[-1]
        return _jet(p, np.broadcast_to(np.eye(n), p.shape + (n,)), AFFINE)

    @property
    def shape(self):
        """The shape of the value axes, behind the batch axis."""
        return self.value.shape[1:]

    def __len__(self):
        return self.value.shape[1]

    def __getitem__(self, idx):
        idx = (slice(None),) + idx if isinstance(idx, tuple) else (slice(None), idx)
        return _map(self, operator.itemgetter(idx))

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def transpose(self, *axes):
        """The jet of the value axes permuted as np.transpose permutes them
        by axes, behind the batch axis."""
        k = len(axes) + 1
        ax = (0,) + tuple(a + 1 for a in axes)
        return _map(self, lambda a: a.transpose(ax + tuple(range(k, a.ndim))))

    @property
    def T(self):
        """The jet of the transposed value axes."""
        return self.transpose(*range(self.value.ndim - 2, -1, -1))

    def _linear(self, other, op):
        """The jet of op(self, other) for op + or -, termwise; a constant other
        shifts the value, and self's derivatives broadcast to its shape.  An
        affine operand's Hessian term is a zero."""
        if not isinstance(other, Jet2):
            self = _pad(self, np.ndim(other))
            value, k = op(self.value, other), self.value.ndim
            if value.shape != self.value.shape:
                self = _map(self, lambda a: np.broadcast_to(a, value.shape + a.shape[k:]))
            return _jet(value, self.grad, self._hess)
        self, other = _aligned(self, other)
        sh, oh = self._hess, other._hess
        grad = op(self.grad, other.grad)
        if sh is None or oh is None:
            hess = None
        elif sh is AFFINE and oh is AFFINE:
            hess = AFFINE
        else:
            # an affine operand's Hessian is a zero, and the other's is
            # broadcast to the shape of the result
            hess = op(0.0 if sh is AFFINE else sh, 0.0 if oh is AFFINE else oh)
            if hess.shape[:-1] != grad.shape:
                hess = np.broadcast_to(hess, grad.shape + grad.shape[-1:])
        return _jet(op(self.value, other.value), grad, hess)

    def __add__(self, other):
        return self._linear(other, operator.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._linear(other, operator.sub)

    def __rsub__(self, other):
        return (-self)._linear(other, operator.add)

    def __neg__(self):
        return _map(self, operator.neg)

    def __mul__(self, other):
        # the operand with fewer value axes is padded; a number is a 0-d array
        if isinstance(other, Jet2):
            self, other = _aligned(self, other)
        else:
            other = np.asarray(other, float)
            self = _pad(self, other.ndim)
        return _product(self, other, _elementwise)

    __rmul__ = __mul__

    def inv(self):
        if np.count_nonzero(self.value) != self.value.size:
            raise JetDomainError("division by zero in jet arithmetic")
        iv = 1.0 / self.value
        return _chain(self, iv, -(iv * iv), 2.0 * iv ** 3)

    def __truediv__(self, other):
        if not isinstance(other, Jet2):
            c = np.asarray(other, float)
            if np.count_nonzero(c) != c.size:
                raise JetDomainError("division by zero in jet arithmetic")
            return self * (1.0 / c)
        return self * other.inv()

    def __rtruediv__(self, other):
        return self.inv() * other

    def __pow__(self, k):
        # an integral exponent, of any number type, is a product: a negative base is in its domain
        if not isinstance(k, numbers.Real) or not float(k).is_integer():
            raise TypeError("a jet power takes an integral exponent, not %r" % (k,))
        k = int(k)
        if k == 0:
            return 1.0 + _map(self, np.zeros_like)
        base = self if k > 0 else self.inv()
        return functools.reduce(operator.mul, (base for _ in range(abs(k))))

    def __matmul__(self, other):
        return jeinsum(_matmul_spec(self, other), self, other)

    def __rmatmul__(self, other):
        return jeinsum(_matmul_spec(other, self), other, self)

    def __repr__(self):
        return f"Jet2({self.value!r}, grad={self.grad!r})"


def _check_positive(u, what):
    if np.count_nonzero(u.value <= 0.0):
        raise JetDomainError(f"{what} of nonpositive value {float(np.min(u.value))!r}")


def jlog(u):
    _check_positive(u, "log")
    iv = 1.0 / u.value
    return _chain(u, np.log(u.value), iv, -(iv * iv))


def jsin(u):
    s, c = np.sin(u.value), np.cos(u.value)
    return _chain(u, s, c, -s)


# ---------------------------------------------------------------------------
# tensor jets: contraction, inverse, packing
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _letters(spec):
    """What every operand shape shares in the plan of a two-operand spec:
    its letters and, for each order of the matmul f @ g (x @ y, then y @ x),
    the head letters and x's and y's transposes (None for the identity) with
    the letters each axis of their matrix stacks multiplies.  The output
    splits into the head (matmul's leading axes, where a size 1 broadcasts
    and a letter that one operand lacks is a unit axis of it), the rows (a
    run of letters of f alone) and the columns (a run of letters of g
    alone), so the product reshapes to the output without a transpose."""
    ins, out = spec.split("->")
    sx, sy = ins.split(",")
    for s in (sx, sy, out):
        if len(set(s)) != len(s):
            raise ValueError("spec %r repeats a letter within one operand" % spec)
    if (set(sx) ^ set(sy)) - set(out):
        raise ValueError("spec %r sums a letter within a single operand" % spec)
    if set(out) - set(sx) - set(sy):
        raise ValueError("spec %r has an output letter in no operand" % spec)
    summed = "".join(c for c in sx if c not in out)

    def arrange(s, head, inner):
        perm = tuple(s.index(c) for c in head + inner[0] + inner[1] if c in s)
        return None if perm == tuple(range(len(s))) else perm, tuple(head) + inner

    def order(sf, sg):
        r = len(out)
        while r and out[r - 1] not in sf:
            r -= 1
        q = r
        while q and out[q - 1] not in sg:
            q -= 1
        head, rows, cols = out[:q], out[q:r], out[r:]
        return head, arrange(sf, head, (rows, summed)), arrange(sg, head, (summed, cols))
    head, fy, gx = order(sy, sx)
    return sx, sy, out, (order(sx, sy), (head, gx, fy))


@functools.lru_cache(maxsize=None)
def _plan(spec, xs, ys):
    """How contract runs the spec on operands of shapes xs and ys: the order
    of the spec's _letters with fewer head points, whether it is y @ x, and
    each operand's transpose and shape as a stack of matrices; and the
    output shape."""
    sx, sy, out, orders = _letters(spec)
    if len(sx) != len(xs) or len(sy) != len(ys):
        raise ValueError("spec %r does not match operand shapes %s, %s" % (spec, xs, ys))
    xsize, ysize = dict(zip(sx, xs)), dict(zip(sy, ys))
    size = dict(xsize)
    for c, d in ysize.items():
        size[c] = max(size.get(c, 1), d)
    swap = math.prod(size[c] for c in orders[1][0]) < math.prod(size[c] for c in orders[0][0])
    _, (xperm, xparts), (yperm, yparts) = orders[swap]
    return (swap, xperm, tuple(math.prod(xsize.get(c, 1) for c in p) for p in xparts),
            yperm, tuple(math.prod(ysize.get(c, 1) for c in p) for p in yparts),
            tuple(size[c] for c in out))


def contract(spec, x, y):
    """np.einsum(spec, x, y) for an explicit two-operand spec such as
    "Zij,Zjk->Zik", without a letter repeated or summed within one operand,
    as one batched np.matmul on the plan _plan caches for the spec and the
    operand shapes.  A batch axis is one more letter (Z in this library's
    specs), which a constant operand leaves out and along which a batch of
    1 broadcasts."""
    swap, xperm, xshape, yperm, yshape, shape = _plan(spec, x.shape, y.shape)
    if xperm:
        x = x.transpose(xperm)
    if yperm:
        y = y.transpose(yperm)
    x, y = x.reshape(xshape), y.reshape(yshape)
    return (np.matmul(y, x) if swap else np.matmul(x, y)).reshape(shape)


# The batch axis's letter in the library's specs, which use lowercase letters
# (M and P name the derivative axes).
_BATCH = "Z"


@functools.lru_cache(maxsize=None)
def _specs(spec, ja, jb):
    """The contract specs of jeinsum(spec, a, b) by the derivative axes
    (dx, dy) of its factors, lettered M, then P.  ja and jb mark the jet
    operands, which get the batch letter."""
    ins, out = spec.split("->")
    sa, sb = ins.split(",")
    sa = _BATCH + sa if ja else sa
    sb = _BATCH + sb if jb else sb
    out = _BATCH + out
    return tuple(tuple(f"{sa}{'MP'[:dx]},{sb}{'MP'[dx:dx + dy]}->{out}{'MP'[:dx + dy]}"
                       for dy in range(3 - dx)) for dx in range(3))


def jeinsum(spec, a, b):
    """np.einsum(spec, a, b) over the value axes of two jets (one of them may
    be a plain array), differentiated by the product rule.  spec is an
    explicit two-operand einsum spec such as "ij,jk->ik" (no letter repeated
    or summed within one operand); a jet operand's batch axis is one more
    letter, which a batch axis of 1 broadcasts along."""
    ja, jb = isinstance(a, Jet2), isinstance(b, Jet2)
    specs = _specs(spec, ja, jb)
    a = a if ja else np.asarray(a, float)
    b = b if jb else np.asarray(b, float)
    return _product(a, b, lambda x, y, dx, dy: contract(specs[dx][dy], x, y))


_MATMUL = {(1, 1): "i,i->", (1, 2): "j,jk->k", (2, 1): "ij,j->i", (2, 2): "ij,jk->ik"}


def _matmul_spec(a, b):
    return _MATMUL[a.value.ndim - 1 if isinstance(a, Jet2) else np.ndim(a),
                   b.value.ndim - 1 if isinstance(b, Jet2) else np.ndim(b)]


def jinv(A):
    """First-order jet of the closed-form inverse of the square matrix jet A
    at each point (a (B, d, d) stack): value A^{-1} and grad_m
    -A^{-1} (d_m A) A^{-1}.  Its readers take values and gradients only, so
    A's Hessian, when it has one, is not read."""
    try:
        Ai = np.linalg.inv(A.value)
    except np.linalg.LinAlgError:
        raise JetDomainError("singular jet matrix") from None
    X = contract("Zik,ZkjM->ZijM", Ai, A.grad)
    return _jet(Ai, -contract("ZikM,Zkj->ZijM", X, Ai), None)


def jet_dcoord(u):
    """First-order jet of every d_k u, on a new last value axis, extracted
    from a second-order jet: its value and gradient are exact, and it
    carries no Hessian, as the third derivatives of u are not tracked."""
    return _jet(u.grad, u.hess, None)


def _lift(x, like):
    """The constant x (a number or an array of any shape) as a jet in the
    coordinates and derivative order of the jet like, with a batch axis of 1
    that broadcasts against any batch: AFFINE (its zero gradient and
    Hessian), or first order when like is."""
    if like is None:
        raise TypeError("a constant component needs the point it is read at")
    x = np.asarray(x, float)[None]
    return _jet(x, np.zeros(x.shape + like.grad.shape[-1:]),
                None if like._hess is None else AFFINE)


def _batch_of(j, batch):
    """The jet j at each of batch points: j itself when its batch axis has
    them, else j's arrays repeated as read-only views (a first-order j stays
    first order)."""
    if len(j.value) == batch:
        return j
    return _map(j, lambda a: np.broadcast_to(a, (batch,) + a.shape[1:]))


def pack(M, point=None):
    """Components nested in lists or tuples (a vector, matrix or k-form)
    stacked into one Jet2 of the nesting shape; a Jet2 comes back as it is.
    A constant component, a number or an array, is lifted to the coordinates
    and derivative order of the jet components beside it, or, when M holds
    no jet (a bare number or array included), of the jet point, the point
    it is read at.  A component of batch 1 is repeated over the batch of the
    others.  The stack is first order when a component is, and affine when
    every component is."""
    if isinstance(M, Jet2):
        return M
    if not isinstance(M, (list, tuple)):
        return _lift(M, point)
    shape, flat = [len(M)], list(M)
    while isinstance(flat[0], (list, tuple)):
        shape.append(len(flat[0]))
        flat = [e for row in flat for e in row]
    like = next((e for e in flat if isinstance(e, Jet2)), point)
    flat = [e if isinstance(e, Jet2) else _lift(e, like) for e in flat]
    batch = max(len(e.value) for e in flat)
    flat = [_batch_of(e, batch) for e in flat]
    s = (batch,) + tuple(shape) + flat[0].shape
    n = flat[0].grad.shape[-1:]

    def stacked(parts, tail):
        # the component axis moves behind the batch axis: a view for one point
        a = np.array(parts)
        return a.transpose((1, 0) + tuple(range(2, a.ndim))).reshape(s + tail)
    hs = [e._hess for e in flat]
    if any(h is None for h in hs):
        hess = None
    elif np.ndarray in set(map(type, hs)):
        hess = stacked([_hessian(e) for e in flat], n + n)
    else:
        hess = AFFINE
    return _jet(stacked([e.value for e in flat], ()), stacked([e.grad for e in flat], n), hess)


# ---------------------------------------------------------------------------
# deterministic sampling
# ---------------------------------------------------------------------------

# The draws are those of numpy's Generator(Philox(seed)).random, bit for
# bit, computed here on plain uint64 arrays so that sampling never imports
# numpy's random module: numpy's SeedSequence hashes the seed into a 128-bit
# key, Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as
# 1, 2, 3", SC'11) maps the counters 1, 2, ... under that key to four 64-bit
# words each, and the words, read in order, give one double each from their
# top 53 bits.
_MASK32 = 0xFFFFFFFF
# SeedSequence: its pool of 4 32-bit words, the hash constants of the pool
# (A) and of the state drawn from it (B), and the pool's mix multipliers
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# Philox4x64-10: the round multipliers, the Weyl increments of the key
# between rounds, and the rounds
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_ROUNDS = 10

# Uniform draws kept per process, one per (seed, shape), more than the
# bundled scenarios use; the bound keeps generated plans from growing the
# memo without limit.
SAMPLE_MEMO = 32


def _hashmix(const, mult):
    """SeedSequence's hash of 32-bit words, one word per call, its constant
    starting at const and multiplied by mult at each word; the arithmetic is
    on Python ints reduced mod 2**32."""
    def hashmix(value):
        nonlocal const
        value ^= const
        const = const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16
    return hashmix


def _seed_key(seed):
    """numpy's SeedSequence(seed).generate_state(2, uint64) for an int seed
    >= 0: the Philox key, as two ints.  The seed enters as its 32-bit words,
    least significant first (one word for 0)."""
    words = [seed & _MASK32]
    while seed > _MASK32:
        seed >>= 32
        words.append(seed & _MASK32)

    def mix(x, y):
        r = (_MIX_L * x - _MIX_R * y) & _MASK32
        return r ^ r >> 16

    hashmix = _hashmix(_INIT_A, _MULT_A)
    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    draw = _hashmix(_INIT_B, _MULT_B)
    state = [draw(pool[i % _POOL]) for i in range(4)]
    return state[0] | state[1] << 32, state[2] | state[3] << 32


def _mulhilo(a, m):
    """The high and low 64-bit words of the 128-bit products a * m of uint64
    arrays, from 32-bit halves: no product exceeds 64 bits, and the array
    arithmetic wraps where it shifts."""
    a_lo, a_hi = a & _MASK32, a >> 32
    m_lo, m_hi = m & _MASK32, m >> 32
    ll, lh, hl = a_lo * m_lo, a_lo * m_hi, a_hi * m_lo
    mid = (ll >> 32) + (lh & _MASK32) + (hl & _MASK32)
    return a_hi * m_hi + (lh >> 32) + (hl >> 32) + (mid >> 32), (ll & _MASK32) | (mid << 32)


def _philox(key, blocks):
    """Philox4x64-10 of the counters (1, 0, 0, 0) ... (blocks, 0, 0, 0) under
    key, all blocks at once: a (blocks, 4) uint64 array.  A block's words
    (c0, c1, c2, c3) are held as even = (c0, c2) and odd = (c1, c3), so each
    round is one product of even with the two multipliers:
    (c0, c1, c2, c3) <- (hi(M1 c2) ^ c1 ^ k0, lo(M1 c2), hi(M0 c0) ^ c3 ^ k1, lo(M0 c0))."""
    even = np.zeros((2, blocks), np.uint64)
    even[0] = np.arange(1, blocks + 1, dtype=np.uint64)
    odd = np.zeros((2, blocks), np.uint64)
    mult = np.array(_PHILOX_M, np.uint64)[:, None]
    weyl = np.array(_PHILOX_W, np.uint64)[:, None]
    key = np.array(key, np.uint64)[:, None]
    for _ in range(_ROUNDS):
        hi, lo = _mulhilo(even, mult)
        even, odd = hi[::-1] ^ odd ^ key, lo[::-1]
        key = key + weyl
    return np.stack((even, odd), axis=2).transpose(1, 0, 2).reshape(blocks, 4)


@functools.lru_cache(maxsize=SAMPLE_MEMO)
def uniform_draw(seed, shape):
    """The doubles in [0, 1) that numpy's Generator(Philox(seed)).random(shape)
    draws, bit for bit, as a read-only array: word i of the Philox4x64-10
    stream gives (word >> 11) * 2**-53.  Memoised per (seed, shape), at most
    SAMPLE_MEMO of them."""
    n = math.prod(shape)
    words = _philox(_seed_key(seed), -(-n // 4)).reshape(-1)[:n]
    u = ((words >> 11) * 2.0 ** -53).reshape(shape)
    u.flags.writeable = False
    return u


class SamplePlan:
    """Reproducible point sampling: numpy's SeedSequence of seed keys a
    Philox4x64-10 stream, bit-identical to numpy's Generator(Philox(seed))
    but computed without importing numpy's random module and memoised per
    (seed, count, dim) (uniform_draw); its doubles map affinely into the
    margin-shrunk chart box."""

    def __init__(self, seed=0, count=30, margin=0.15):
        if not (0.0 < margin < 0.5):
            raise ValueError("margin must lie in (0, 0.5)")
        if count < 1:
            raise ValueError("count must be positive")
        if seed < 0:
            raise ValueError("seed must be non-negative")
        self.seed = int(seed)
        self.count = int(count)
        self.margin = float(margin)

    def __repr__(self):
        return f"SamplePlan(seed={self.seed}, count={self.count}, margin={self.margin})"


def sample_points(domain, plan):
    """Sample plan.count points strictly inside the margin-shrunk box, as a
    fresh (count, dim) array.

    domain is a sequence of (lo, hi) pairs with positive volume. Identical
    (seed, count, margin, domain) always yields the identical sequence: the
    uniform doubles of numpy's Generator(Philox(seed)), computed by
    uniform_draw (numpy's SeedSequence and Philox4x64-10, bit for bit,
    without importing numpy's random module) and memoised per plan; the
    memo's read-only draw is never handed out.
    """
    lo = np.array([a for a, _ in domain], float)
    hi = np.array([b for _, b in domain], float)
    if not (hi > lo).all():
        raise ValueError("domain box must have positive volume")
    span = hi - lo
    lo_m = lo + plan.margin * span
    hi_m = hi - plan.margin * span
    u = uniform_draw(plan.seed, (plan.count, lo.size))
    return lo_m + u * (hi_m - lo_m)
