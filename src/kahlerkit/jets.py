"""Second-order forward jet arithmetic plus quadrature and deterministic sampling.

A Jet2 carries (value, gradient, Hessian) with respect to the chart coordinates
and propagates them exactly, each rule written once: _chain for every scalar
function (1/u, log, exp, sin, cos, tan, a non-integer power), _linear for +
and -, __mul__ for *, and _map for indexing, .T, a sign, padding, a broadcast.
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
the product rule, and jinv inverts each matrix of the stack in closed form;
both run on contract.
Curvature needs two derivatives of metric components, so second order is the
whole story; there is no truncation error, only roundoff.

The Hessian slot of a jet is in one of four states:
- an array;
- None, a first-order jet, which carries no Hessian: jet_dcoord returns one
  (the third derivatives of u it would need are not tracked), and reading
  its hess raises FirstOrderError;
- AFFINE, a known zero Hessian: the coordinates Jet2.seed returns, which
  allocate no zero array, and their sums and constant multiples;
- CONSTANT, a known zero gradient and Hessian, with one value at every point
  of the batch: a constant lifted at a second-order point (so a constant
  field read through PointEval.raw), and the rules applied to constants.
Reading hess gives zeros for the two known-zero states.  _map, _chain,
_linear, __mul__, jeinsum, jinv and pack skip the terms that a first-order
or known-zero operand would add, and a constant jet acts by its value,
through the rules' constant paths; _lift and gauss_integrate carry the
states through.  No other rule tests for them, so only the degrees that are
read, and not known to be zero, are propagated, each by the same formula
and in the same summation order as the full rule.

A constant is a plain number or array wherever it appears; pack lifts one
that a field returns to a jet (batch axis 1, zero derivatives) in the
coordinates and derivative order of the jets beside it or of the point it
is read at, so a constant read on a first-order point has no Hessian.
"""

import enum
import functools
import math
import operator

import numpy as np


class JetDomainError(ValueError):
    """Raised when a jet operation leaves its domain (log of nonpositive value,
    division by zero, a non-finite integrand).  A Fold names the point where
    it was raised."""


class FirstOrderError(Exception):
    """Raised when the Hessian of a first-order jet is read.  It is a defect
    of the caller, not of the point, so no Fold records it."""


_new = object.__new__


class Zero(enum.Enum):
    """The known-zero states of the Hessian slot, beside None and an array
    (see the module docstring)."""
    AFFINE = "affine"
    CONSTANT = "constant"


AFFINE, CONSTANT = Zero


def _jet(value, grad, hess):
    """Jet2 of computed arrays, without conversion or copies (hess None for a
    first-order jet, or a Zero state)."""
    j = _new(Jet2)
    j.value = value
    j.grad = grad
    j._hess = hess
    return j


def _hessian(j):
    """The Hessian array of the second-order jet j, zeros for a known-zero
    state."""
    h = j._hess
    return h if isinstance(h, np.ndarray) else np.zeros(j.grad.shape + j.grad.shape[-1:])


def _map(j, f):
    """The jet whose value, gradient and Hessian are f of j's, for a rule that
    acts on the value axes alone; first order, affine or constant when j
    is."""
    h = j._hess
    return _jet(f(j.value), f(j.grad), f(h) if isinstance(h, np.ndarray) else h)


def _outer(g):
    """g_i g_j over the last axis, broadcast over the value axes."""
    return g[..., :, None] * g[..., None, :]


def _chain(u, f, d1, d2):
    """The jet of f(u) from the arrays f, f' and f'' at u's value: gradient
    f' du and Hessian f' d2u + f'' du du^T (first order when u is, without
    its first term when u is affine, and constant when u is)."""
    h = u._hess
    if h is CONSTANT:
        return _jet(f, u.grad, h)
    d1 = d1[..., None]
    grad = d1 * u.grad
    if h is None:
        return _jet(f, grad, None)
    outer = d2[..., None, None] * _outer(u.grad)
    if h is AFFINE:
        return _jet(f, grad, outer)
    # summed in place: the Hessian is the largest array
    hess = d1[..., None] * h
    hess += outer
    return _jet(f, grad, hess)


def _by_value(j, c, rule):
    """rule(j, v) for the value v of the constant jet c, which is one at every
    point, so c's batch axis is dropped; over the larger batch of j and c."""
    return _batch_of(rule(j, c.value[0]), max(len(j.value), len(c.value)))


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


class Jet2:
    """Second-order jet of an array of functions of the chart coordinates at
    each of a batch of points; with hess None, a first-order jet.

    Indexing (``h[i][j]``, ``h[:, cols]``) and iteration act on the value
    axes.  ndarray operands defer to Jet2, so ``array * jet`` and
    ``array @ jet`` are jets.
    """

    __slots__ = ("value", "grad", "_hess")
    __array_ufunc__ = None

    def __init__(self, value, grad, hess=None):
        self.value = np.asarray(value, float)
        self.grad = np.asarray(grad, float)
        self._hess = hess if hess is None or isinstance(hess, Zero) else np.asarray(hess, float)

    @property
    def hess(self):
        """The Hessian array (zeros for a known-zero state); a first-order jet
        has none."""
        if self._hess is None:
            raise FirstOrderError("a first-order jet carries no Hessian (its value and "
                                  "gradient are exact, its second derivatives unknown)")
        return _hessian(self)

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

    @property
    def T(self):
        """The jet of the transposed value axes."""
        k = self.value.ndim
        ax = (0,) + tuple(range(k - 1, 0, -1))
        return _map(self, lambda a: a.transpose(ax + tuple(range(k, a.ndim))))

    def _linear(self, other, op):
        """The jet of op(self, other) for op + or -, termwise; a constant other
        shifts the value, and self's derivatives broadcast to its shape.  A
        constant jet acts by its value, and an affine one's Hessian term is
        a zero."""
        if not isinstance(other, Jet2):
            self = _pad(self, np.ndim(other))
            value, k = op(self.value, other), self.value.ndim
            if value.shape != self.value.shape:
                self = _map(self, lambda a: np.broadcast_to(a, value.shape + a.shape[k:]))
            return _jet(value, self.grad, self._hess)
        if other._hess is CONSTANT:
            return _by_value(self, other, lambda j, c: j._linear(c, op))
        if self._hess is CONSTANT:
            # c + x, and c - x as (-x) + c
            x = other if op is operator.add else -other
            return _by_value(x, self, lambda j, c: j._linear(c, operator.add))
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
        if not isinstance(other, Jet2):
            # a number is a 0-d array
            c = np.asarray(other, float)
            self = _pad(self, c.ndim)
            h, c = self._hess, c[..., None]
            return _jet(self.value * other, self.grad * c,
                        h * c[..., None] if isinstance(h, np.ndarray) else h)
        # a constant jet acts by its value
        if other._hess is CONSTANT:
            return _by_value(self, other, operator.mul)
        if self._hess is CONSTANT:
            return _by_value(other, self, operator.mul)
        self, other = _aligned(self, other)
        sv, ov = self.value[..., None], other.value[..., None]
        grad = sv * other.grad + ov * self.grad
        sh, oh = self._hess, other._hess
        if sh is None or oh is None:
            return _jet(self.value * other.value, grad, None)
        cross = self.grad[..., :, None] * other.grad[..., None, :]
        if sh is AFFINE and oh is AFFINE:
            return _jet(self.value * other.value, grad, cross + cross.swapaxes(-1, -2))
        # summed in place, left to right, without an affine operand's zero
        # term: the Hessian is the largest array
        hess = ov[..., None] * sh if oh is AFFINE else sv[..., None] * oh
        if oh is not AFFINE and sh is not AFFINE:
            hess += ov[..., None] * sh
        hess += cross
        hess += cross.swapaxes(-1, -2)
        return _jet(self.value * other.value, grad, hess)

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
        # an integral exponent, of any type, is a product: a negative base is in its domain
        if float(k).is_integer():
            k = int(k)
            if k == 0:
                return 1.0 + _map(self, np.zeros_like)
            base = self if k > 0 else self.inv()
            return functools.reduce(operator.mul, (base for _ in range(abs(k))))
        _check_positive(self, "power")
        v = self.value
        d1 = k * v ** (k - 1.0)
        return _chain(self, v ** k, d1, (k - 1.0) * d1 / v)

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


def jexp(u):
    e = np.exp(u.value)
    return _chain(u, e, e, e)


def jsin(u):
    s, c = np.sin(u.value), np.cos(u.value)
    return _chain(u, s, c, -s)


def jcos(u):
    s, c = np.sin(u.value), np.cos(u.value)
    return _chain(u, c, -s, -c)


def jtan(u):
    t = np.tan(u.value)
    sec2 = 1.0 + t * t
    return _chain(u, t, sec2, 2.0 * t * sec2)


def jsqrt(u):
    _check_positive(u, "sqrt")
    return u ** 0.5


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
    """The _contract specs of jeinsum(spec, a, b): the value, the left and
    right product rule terms of the gradient (derivative axis M) and of the
    Hessian (axes M, P), and the cross term.  ja and jb mark the jet
    operands, which get the batch letter."""
    ins, out = spec.split("->")
    sa, sb = ins.split(",")
    sa = _BATCH + sa if ja else sa
    sb = _BATCH + sb if jb else sb
    out = _BATCH + out
    return (f"{sa},{sb}->{out}", f"{sa}M,{sb}->{out}M", f"{sa},{sb}M->{out}M",
            f"{sa}MP,{sb}->{out}MP", f"{sa},{sb}MP->{out}MP", f"{sa}M,{sb}P->{out}MP")


def jeinsum(spec, a, b):
    """np.einsum(spec, a, b) over the value axes of two jets (one of them may
    be a plain array), differentiated by the product rule.  spec is an
    explicit two-operand einsum spec such as "ij,jk->ik" (no letter repeated
    or summed within one operand); a jet operand's batch axis is one more
    letter, which a batch axis of 1 broadcasts along.  The result is first
    order when a jet operand is; a constant jet operand, like a plain array,
    adds no derivative term, and an affine one no Hessian term."""
    ja, jb = isinstance(a, Jet2), isinstance(b, Jet2)
    av = a.value if ja else np.asarray(a, float)
    bv = b.value if jb else np.asarray(b, float)
    vs, gl, gr, hl, hr, cross = _specs(spec, ja, jb)
    value = contract(vs, av, bv)
    # a plain array reads as a constant jet; the terms are summed in place,
    # left to right, and a Hessian is the largest array
    ha, hb = a._hess if ja else CONSTANT, b._hess if jb else CONSTANT
    if ha is CONSTANT and hb is CONSTANT:
        return _jet(value, np.zeros(value.shape + (a if ja else b).grad.shape[-1:]), CONSTANT)
    if ha is CONSTANT:
        grad = contract(gr, av, b.grad)
    else:
        grad = contract(gl, a.grad, bv)
        if hb is not CONSTANT:
            grad += contract(gr, av, b.grad)
    if ha is None or hb is None:
        return _jet(value, grad, None)
    terms = [contract(hl, ha, bv)] if isinstance(ha, np.ndarray) else []
    if isinstance(hb, np.ndarray):
        terms.append(contract(hr, av, hb))
    if ha is not CONSTANT and hb is not CONSTANT:
        c = contract(cross, a.grad, b.grad)
        terms += [c, c.swapaxes(-1, -2)]
    if not terms:
        return _jet(value, grad, AFFINE)
    hess = terms[0]
    for t in terms[1:]:
        hess += t
    return _jet(value, grad, hess)


_MATMUL = {(1, 1): "i,i->", (1, 2): "j,jk->k", (2, 1): "ij,j->i", (2, 2): "ij,jk->ik"}


def _matmul_spec(a, b):
    return _MATMUL[a.value.ndim - 1 if isinstance(a, Jet2) else np.ndim(a),
                   b.value.ndim - 1 if isinstance(b, Jet2) else np.ndim(b)]


def jinv(A):
    """Closed-form inverse of the square matrix jet A at each point (a
    (B, d, d) stack): value A^{-1}, grad_m -A^{-1} (d_m A) A^{-1}, and hess_mp
    A^{-1} (d_m A) A^{-1} (d_p A) A^{-1} + (m <-> p) - A^{-1} (d_m d_p A) A^{-1}
    (first order when A is, without its last term when A is affine, and
    constant when A is)."""
    try:
        Ai = np.linalg.inv(A.value)
    except np.linalg.LinAlgError:
        raise JetDomainError("singular jet matrix") from None
    h = A._hess
    if h is CONSTANT:
        return _jet(Ai, A.grad, h)
    X = contract("Zik,ZkjM->ZijM", Ai, A.grad)
    grad = -contract("ZikM,Zkj->ZijM", X, Ai)
    if h is None:
        return _jet(Ai, grad, None)
    c = -contract("ZikM,ZkjP->ZijMP", X, grad)
    hess = c + c.swapaxes(-1, -2)
    if h is not AFFINE:
        hess -= contract("ZikMP,Zkj->ZijMP", contract("Zik,ZkjMP->ZijMP", Ai, h), Ai)
    return _jet(Ai, grad, hess)


def jet_dcoord(u, k=slice(None)):
    """First-order jet of d_k u extracted from a second-order jet (of every
    d_k u, on a new last value axis, when k is omitted): its value and
    gradient are exact, and it carries no Hessian, as the third derivatives
    of u are not tracked."""
    return _jet(u.grad[..., k], u.hess[..., k, :], None)


def _lift(x, like):
    """The constant x (a number or an array of any shape) as a jet in the
    coordinates and derivative order of the jet like, with a batch axis of 1
    that broadcasts against any batch: a CONSTANT jet, or a first-order one
    when like is."""
    if like is None:
        raise TypeError("a constant component needs the point it is read at")
    x = np.asarray(x, float)[None]
    return _jet(x, np.zeros(x.shape + like.grad.shape[-1:]),
                None if like._hess is None else CONSTANT)


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
    others.  The stack is first order when a component is, constant when
    every component is, and affine when every component is known zero."""
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
    hs = [e._hess for e in flat]
    if any(h is None for h in hs):
        hess = None
    elif np.ndarray in set(map(type, hs)):
        # the component axis moves behind the batch axis: a view for one point
        hess = np.array([_hessian(e) for e in flat]).swapaxes(0, 1).reshape(s + n + n)
    else:
        hess = CONSTANT if all(h is CONSTANT for h in hs) else AFFINE
    return _jet(np.array([e.value for e in flat]).swapaxes(0, 1).reshape(s),
                np.array([e.grad for e in flat]).swapaxes(0, 1).reshape(s + n), hess)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def gauss_integrate(f, order=32):
    """Fixed Gauss-Legendre rule on [0,1] applied to a jet-valued integrand.

    f maps a float t in [0,1] to a Jet2 (or plain float); the rule is applied
    componentwise to value/grad/hess. Deterministic for fixed order.  A
    non-finite integrand is a domain error.
    """
    if order < 2:
        raise ValueError("quadrature order must be >= 2")
    nodes, weights = np.polynomial.legendre.leggauss(order)
    total = None
    for x, w in zip(nodes, weights):
        t = 0.5 * (x + 1.0)
        val = f(t)
        parts = (val.value, val.grad, val._hess) if isinstance(val, Jet2) else (val,)
        if not all(x is None or isinstance(x, Zero) or np.isfinite(x).all() for x in parts):
            raise JetDomainError(f"non-finite integrand at t={t}")
        term = (0.5 * w) * val
        total = term if total is None else total + term
    return total


# ---------------------------------------------------------------------------
# deterministic sampling
# ---------------------------------------------------------------------------

class SamplePlan:
    """Reproducible point sampling: counter-based generator keyed by seed,
    mapped affinely into the margin-shrunk chart box."""

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
    """Sample plan.count points strictly inside the margin-shrunk box.

    domain is a sequence of (lo, hi) pairs with positive volume. Identical
    (seed, count, margin, domain) always yields the identical sequence.
    """
    lo = np.array([a for a, _ in domain], float)
    hi = np.array([b for _, b in domain], float)
    if not (hi > lo).all():
        raise ValueError("domain box must have positive volume")
    span = hi - lo
    lo_m = lo + plan.margin * span
    hi_m = hi - plan.margin * span
    gen = np.random.Generator(np.random.Philox(plan.seed))
    u = gen.random((plan.count, lo.size))
    return lo_m + u * (hi_m - lo_m)
