"""Second-order forward jet arithmetic plus quadrature and deterministic sampling.

A Jet2 carries (value, gradient, Hessian) with respect to the chart coordinates
and propagates them exactly through +, -, *, /, powers, exp, log and trig.
The value may be an array of any shape s (a scalar jet has shape ()), with
gradient of shape s + (n,) and Hessian of shape s + (n, n); the elementwise
rules broadcast over s, jeinsum contracts value axes by the product rule, and
jinv inverts a matrix jet in closed form.  Curvature needs two derivatives of
metric components, so second order is the whole story; there is no
truncation error, only roundoff.
"""

import numpy as np


class JetDomainError(ValueError):
    """Raised when a jet operation leaves its domain (log of nonpositive value,
    division by zero). The evaluation wrapper attaches the offending point."""

    def __init__(self, msg, point=None):
        super().__init__(msg)
        self.point = point


def _outer(g):
    """g_i g_j over the last axis, broadcast over the value axes."""
    return g[..., :, None] * g[..., None, :]


_new = object.__new__


def _jet(value, grad, hess):
    """Jet2 of computed arrays, without conversion or copies."""
    j = _new(Jet2)
    j.value = value
    j.grad = grad
    j.hess = hess
    return j


class Jet2:
    """Second-order jet of an array of functions of the chart coordinates.

    Indexing (``h[i][j]``, ``h[:, cols]``) and iteration act on the value
    axes.  ndarray operands defer to Jet2, so ``array * jet`` and
    ``array @ jet`` are jets.
    """

    __slots__ = ("value", "grad", "hess")
    __array_ufunc__ = None

    def __init__(self, value, grad, hess):
        self.value = np.asarray(value, float)
        self.grad = np.asarray(grad, float)
        self.hess = np.asarray(hess, float)

    @staticmethod
    def const(x, n):
        """Constant jet of the value x (any shape) in n coordinates."""
        x = np.asarray(x, float)
        return _jet(x, np.zeros(x.shape + (n,)), np.zeros(x.shape + (n, n)))

    @staticmethod
    def seed(p):
        """Jet of the coordinates at p: value p, grad the identity, hess 0."""
        p = np.asarray(p, float)
        n = p.size
        return _jet(p, np.eye(n), np.zeros((n, n, n)))

    @property
    def shape(self):
        return self.value.shape

    def __len__(self):
        return len(self.value)

    def __getitem__(self, idx):
        return _jet(self.value[idx], self.grad[idx], self.hess[idx])

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    @property
    def T(self):
        """The jet of the transposed value axes."""
        k = self.value.ndim
        ax = tuple(range(k - 1, -1, -1))
        return _jet(self.value.transpose(ax), self.grad.transpose(ax + (k,)),
                    self.hess.transpose(ax + (k, k + 1)))

    def _shifted(self, value, negate=False):
        """The jet of value = (+/-) self + a constant: self's derivatives
        (negated with negate), broadcast to the shape of value."""
        grad, hess = (-self.grad, -self.hess) if negate else (self.grad, self.hess)
        s = np.shape(value)
        if s != self.value.shape:
            grad = np.broadcast_to(grad, s + grad.shape[-1:])
            hess = np.broadcast_to(hess, s + hess.shape[-2:])
        return _jet(value, grad, hess)

    def __add__(self, other):
        if not isinstance(other, Jet2):
            return self._shifted(self.value + other)
        return _jet(self.value + other.value, self.grad + other.grad, self.hess + other.hess)

    __radd__ = __add__

    def __neg__(self):
        return _jet(-self.value, -self.grad, -self.hess)

    def __sub__(self, other):
        if not isinstance(other, Jet2):
            return self._shifted(self.value - other)
        return _jet(self.value - other.value, self.grad - other.grad, self.hess - other.hess)

    def __rsub__(self, other):
        return self._shifted(other - self.value, negate=True)

    def __mul__(self, other):
        if not isinstance(other, Jet2):
            c = np.asarray(other, float)[..., None]
            return _jet(self.value * other, self.grad * c, self.hess * c[..., None])
        a, b = self.value[..., None], other.value[..., None]
        cross = self.grad[..., :, None] * other.grad[..., None, :]
        return _jet(self.value * other.value, a * other.grad + b * self.grad,
                    a[..., None] * other.hess + b[..., None] * self.hess
                    + cross + cross.swapaxes(-1, -2))

    __rmul__ = __mul__

    def inv(self):
        if np.count_nonzero(self.value) != self.value.size:
            raise JetDomainError("division by zero in jet arithmetic")
        iv = 1.0 / self.value
        return _jet(iv, (-iv * iv)[..., None] * self.grad,
                    (2.0 * iv ** 3)[..., None, None] * _outer(self.grad)
                    - (iv * iv)[..., None, None] * self.hess)

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
        if isinstance(k, int):
            if k == 0:
                return Jet2.const(np.ones(self.shape), self.grad.shape[-1])
            base = self if k > 0 else self.inv()
            out = base
            for _ in range(abs(k) - 1):
                out = out * base
            return out
        return jexp(k * jlog(self))

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
    return _jet(np.log(u.value), iv[..., None] * u.grad,
                iv[..., None, None] * u.hess - (iv * iv)[..., None, None] * _outer(u.grad))


def jexp(u):
    e = np.exp(u.value)
    c = e[..., None]
    return _jet(e, c * u.grad, c[..., None] * (u.hess + _outer(u.grad)))


def jsin(u):
    s, c = np.sin(u.value), np.cos(u.value)
    return _jet(s, c[..., None] * u.grad,
                c[..., None, None] * u.hess - s[..., None, None] * _outer(u.grad))


def jcos(u):
    s, c = np.sin(u.value), np.cos(u.value)
    return _jet(c, -s[..., None] * u.grad,
                -s[..., None, None] * u.hess - c[..., None, None] * _outer(u.grad))


def jtan(u):
    return jsin(u) / jcos(u)


def jsqrt(u):
    _check_positive(u, "sqrt")
    return u ** 0.5


def jet_eval(f, p):
    """Evaluate a scalar-field expression f on the jet seed of point p.

    f receives the coordinate jets and must return a Jet2 built from them by
    arithmetic and the elementary functions above.
    """
    p = np.asarray(p, float)
    try:
        return f(Jet2.seed(p))
    except JetDomainError as err:
        raise JetDomainError(f"{err} at point {p.tolist()}", point=p) from None


# ---------------------------------------------------------------------------
# tensor jets: constants, contraction, inverse, packing
# ---------------------------------------------------------------------------

jconst = Jet2.const


def jsize(pt):
    """Jet dimension of a seeded point (may exceed the field's own slot count
    when a low-dimensional field is embedded in a larger chart)."""
    return pt[0].grad.size


def jeinsum(spec, a, b):
    """np.einsum(spec, a, b) over the value axes of two jets (one of them may
    be a plain array), differentiated by the product rule.  spec is an
    explicit two-operand einsum spec such as "ij,jk->ik"; the derivative axes
    ride along as the einsum ellipsis."""
    ins, out = spec.split("->")
    sa, sb = ins.split(",")
    ja, jb = isinstance(a, Jet2), isinstance(b, Jet2)
    av = a.value if ja else np.asarray(a, float)
    bv = b.value if jb else np.asarray(b, float)
    grad = hess = 0.0
    if ja:
        left = f"{sa}...,{sb}->{out}..."
        grad, hess = np.einsum(left, a.grad, bv), np.einsum(left, a.hess, bv)
    if jb:
        right = f"{sa},{sb}...->{out}..."
        grad = grad + np.einsum(right, av, b.grad)
        hess = hess + np.einsum(right, av, b.hess)
    if ja and jb:
        c = np.einsum(f"{sa}...,{sb}...->{out}...", a.grad[..., :, None], b.grad[..., None, :])
        hess = hess + c + c.swapaxes(-1, -2)
    return _jet(np.einsum(spec, av, bv), grad, hess)


_MATMUL = {(1, 1): "i,i->", (1, 2): "j,jk->k", (2, 1): "ij,j->i", (2, 2): "ij,jk->ik"}


def _matmul_spec(a, b):
    return _MATMUL[np.ndim(a.value if isinstance(a, Jet2) else a),
                   np.ndim(b.value if isinstance(b, Jet2) else b)]


def jinv(A):
    """Closed-form inverse of a square matrix jet A:
    value A^{-1}, grad_m -A^{-1} (d_m A) A^{-1}, and hess_mp
    A^{-1} (d_m A) A^{-1} (d_p A) A^{-1} + (m <-> p) - A^{-1} (d_m d_p A) A^{-1}."""
    try:
        Ai = np.linalg.inv(A.value)
    except np.linalg.LinAlgError:
        raise JetDomainError("singular jet matrix") from None
    X = np.einsum("ik,kjm->ijm", Ai, A.grad)
    grad = -np.einsum("ikm,kj->ijm", X, Ai)
    c = -np.einsum("ikm,kjp->ijmp", X, grad)
    H = np.einsum("ikmp,kj->ijmp", np.einsum("ik,kjmp->ijmp", Ai, A.hess), Ai)
    return _jet(Ai, grad, c + c.swapaxes(-1, -2) - H)


def jet_dcoord(u, k=slice(None)):
    """First-order jet of d_k u extracted from a second-order jet (of every
    d_k u, on a new last value axis, when k is omitted): the value and
    gradient are exact, the returned hessian is zero padding (third
    derivatives are not tracked). Use only where downstream consumers read
    value and grad."""
    n = u.grad.shape[-1]
    value = u.grad[..., k]
    return _jet(value, u.hess[..., k, :], np.zeros(value.shape + (n, n)))


def pack(M):
    """Jets nested in lists (a vector, matrix or k-form of components) stacked
    into one Jet2 of the nesting shape; a Jet2 comes back as it is."""
    if isinstance(M, Jet2):
        return M
    shape, flat = [len(M)], list(M)
    while not isinstance(flat[0], Jet2):
        shape.append(len(flat[0]))
        flat = [e for row in flat for e in row]
    s = tuple(shape) + flat[0].shape
    return _jet(np.array([e.value for e in flat]).reshape(s),
                np.array([e.grad for e in flat]).reshape(s + flat[0].grad.shape[-1:]),
                np.array([e.hess for e in flat]).reshape(s + flat[0].hess.shape[-2:]))


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def gauss_integrate(f, order=32):
    """Fixed Gauss-Legendre rule on [0,1] applied to a jet-valued integrand.

    f maps a float t in [0,1] to a Jet2 (or plain float); the rule is applied
    componentwise to value/grad/hess. Deterministic for fixed order.
    """
    if order < 2:
        raise ValueError("quadrature order must be >= 2")
    nodes, weights = np.polynomial.legendre.leggauss(order)
    total = None
    for x, w in zip(nodes, weights):
        t = 0.5 * (x + 1.0)
        val = f(t)
        parts = (val.value, val.grad, val.hess) if isinstance(val, Jet2) else (val,)
        if not all(np.isfinite(x).all() for x in parts):
            raise ArithmeticError(f"non-finite integrand at t={t}")
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
