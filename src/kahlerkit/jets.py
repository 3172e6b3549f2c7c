"""Second-order forward jet arithmetic plus quadrature and deterministic sampling.

A Jet2 carries (value, gradient, Hessian) with respect to the chart coordinates
and propagates them exactly through +, -, *, /, powers, exp, log and trig.
Curvature needs two derivatives of metric components, so second order is the
whole story; there is no truncation error, only roundoff.
"""

import numpy as np


class JetDomainError(ValueError):
    """Raised when a jet operation leaves its domain (log of nonpositive value,
    division by zero). The evaluation wrapper attaches the offending point."""

    def __init__(self, msg, point=None):
        super().__init__(msg)
        self.point = point


class Jet2:
    __slots__ = ("value", "grad", "hess")

    def __init__(self, value, grad, hess):
        self.value = float(value)
        self.grad = np.asarray(grad, float)
        self.hess = np.asarray(hess, float)

    @staticmethod
    def const(x, n):
        return Jet2(float(x), np.zeros(n), np.zeros((n, n)))

    @staticmethod
    def seed(p):
        """Identity jets of the coordinates at p: value p[i], grad e_i, hess 0."""
        p = np.asarray(p, float)
        n = p.size
        eye = np.eye(n)
        zero = np.zeros((n, n))
        return [Jet2(p[i], eye[i], zero) for i in range(n)]

    def _lift(self, other):
        if isinstance(other, Jet2):
            return other
        return Jet2.const(other, self.grad.size)

    def __add__(self, other):
        o = self._lift(other)
        return Jet2(self.value + o.value, self.grad + o.grad, self.hess + o.hess)

    __radd__ = __add__

    def __neg__(self):
        return Jet2(-self.value, -self.grad, -self.hess)

    def __sub__(self, other):
        o = self._lift(other)
        return Jet2(self.value - o.value, self.grad - o.grad, self.hess - o.hess)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._lift(other)
        cross = np.outer(self.grad, o.grad)
        return Jet2(self.value * o.value,
                    self.value * o.grad + o.value * self.grad,
                    self.value * o.hess + o.value * self.hess + cross + cross.T)

    __rmul__ = __mul__

    def inv(self):
        if self.value == 0.0:
            raise JetDomainError("division by zero in jet arithmetic")
        iv = 1.0 / self.value
        outer = np.outer(self.grad, self.grad)
        return Jet2(iv, -iv * iv * self.grad, 2.0 * iv ** 3 * outer - iv * iv * self.hess)

    def __truediv__(self, other):
        o = self._lift(other)
        return self * o.inv()

    def __rtruediv__(self, other):
        return self.inv() * other

    def __pow__(self, k):
        if isinstance(k, int):
            if k == 0:
                return Jet2.const(1.0, self.grad.size)
            base = self if k > 0 else self.inv()
            out = base
            for _ in range(abs(k) - 1):
                out = out * base
            return out
        return jexp(k * jlog(self))

    def __repr__(self):
        return f"Jet2({self.value!r}, grad={self.grad!r})"


def jlog(u):
    if u.value <= 0.0:
        raise JetDomainError(f"log of nonpositive value {u.value!r}")
    iv = 1.0 / u.value
    return Jet2(np.log(u.value), iv * u.grad,
                iv * u.hess - iv * iv * np.outer(u.grad, u.grad))


def jexp(u):
    e = np.exp(u.value)
    return Jet2(e, e * u.grad, e * (u.hess + np.outer(u.grad, u.grad)))


def jsin(u):
    s, c = np.sin(u.value), np.cos(u.value)
    return Jet2(s, c * u.grad, c * u.hess - s * np.outer(u.grad, u.grad))


def jcos(u):
    s, c = np.sin(u.value), np.cos(u.value)
    return Jet2(c, -s * u.grad, -s * u.hess - c * np.outer(u.grad, u.grad))


def jtan(u):
    return jsin(u) / jcos(u)


def jsqrt(u):
    if u.value <= 0.0:
        raise JetDomainError(f"sqrt of nonpositive value {u.value!r}")
    return u ** 0.5


def jet_eval(f, p):
    """Evaluate a scalar-field expression f on the jet seed of point p.

    f receives the list of coordinate jets and must return a Jet2 built from
    them by arithmetic and the elementary functions above.
    """
    p = np.asarray(p, float)
    try:
        return f(Jet2.seed(p))
    except JetDomainError as err:
        raise JetDomainError(f"{err} at point {p.tolist()}", point=p) from None


# ---------------------------------------------------------------------------
# object-matrix helpers for jet-valued tensors
# ---------------------------------------------------------------------------

def jconst(x, n):
    return Jet2.const(x, n)


def jsize(pt):
    """Jet dimension of a seeded point (may exceed the field's own slot count
    when a low-dimensional field is embedded in a larger chart)."""
    return pt[0].grad.size


def jeye(d, n):
    return [[Jet2.const(1.0 if i == j else 0.0, n) for j in range(d)] for i in range(d)]


def jmatmul(A, B):
    m, k, p = len(A), len(B), len(B[0])
    return [[sum((A[i][t] * B[t][j] for t in range(k)), 0.0) for j in range(p)] for i in range(m)]


def jmat_add(A, B):
    return [[A[i][j] + B[i][j] for j in range(len(A[0]))] for i in range(len(A))]


def jmat_scale(s, A):
    return [[s * A[i][j] for j in range(len(A[0]))] for i in range(len(A))]


def jmat_inv(A):
    """Gauss-Jordan inverse of a jet matrix with partial pivoting on values."""
    d = len(A)
    n = A[0][0].grad.size
    M = [row[:] for row in A]
    I = jeye(d, n)
    for col in range(d):
        piv = max(range(col, d), key=lambda r: abs(M[r][col].value))
        if M[piv][col].value == 0.0:
            raise JetDomainError("singular jet matrix")
        if piv != col:
            M[col], M[piv] = M[piv], M[col]
            I[col], I[piv] = I[piv], I[col]
        inv_p = M[col][col].inv()
        M[col] = [inv_p * e for e in M[col]]
        I[col] = [inv_p * e for e in I[col]]
        for r in range(d):
            if r == col:
                continue
            f = M[r][col]
            if f.value == 0.0 and not f.grad.any() and not f.hess.any():
                continue
            M[r] = [M[r][j] - f * M[col][j] for j in range(d)]
            I[r] = [I[r][j] - f * I[col][j] for j in range(d)]
    return I


def jet_dcoord(u, k):
    """First-order jet of d_k u extracted from a second-order jet: the value and
    gradient are exact, the returned hessian is zero padding (third derivatives
    are not tracked). Use only where downstream consumers read value and grad."""
    return Jet2(u.grad[k], u.hess[k], np.zeros((u.grad.size, u.grad.size)))


def pack(M):
    """Jets nested as a vector, matrix or k-form -> (value, grad, hess) float
    arrays of shapes s, s + (n,), s + (n, n) for the nesting shape s."""
    arr = np.array(M, dtype=object)
    flat = arr.ravel()
    n = flat[0].grad.size
    return (np.array([e.value for e in flat]).reshape(arr.shape),
            np.array([e.grad for e in flat]).reshape(arr.shape + (n,)),
            np.array([e.hess for e in flat]).reshape(arr.shape + (n, n)))


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
        if isinstance(val, Jet2):
            if not (np.isfinite(val.value) and np.isfinite(val.grad).all()
                    and np.isfinite(val.hess).all()):
                raise ArithmeticError(f"non-finite integrand at t={t}")
        elif not np.isfinite(val):
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
