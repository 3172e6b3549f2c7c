"""Independent oracles for the jet rules.

Random elementary expressions are differentiated by sympy and compared with
their jets; array-valued jets, jeinsum and jinv are recomputed element by
element with scalar jets.  Each rule is fed through a map into its domain
(log and sqrt of 1 + u^2, exp and tan of u / (1 + u^2), division by
1 + v^2), applied identically on both sides.
"""

import itertools

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from kahlerkit.jets import (Jet2, jconst, jcos, jeinsum, jexp, jinv, jlog, jsin,
                            jsqrt, jtan, pack)

N = 3
SYMS = sp.symbols("x0:%d" % N)


def lift(u, shape=()):
    """A constant subexpression as a jet, broadcast to shape."""
    return u if isinstance(u, Jet2) else jconst(np.asarray(u) + np.zeros(shape), N)


SYMPY = {"exp": sp.exp, "log": sp.log, "sin": sp.sin, "cos": sp.cos,
         "tan": sp.tan, "sqrt": sp.sqrt}
JETS = {name: (lambda f: lambda u: f(lift(u)))(f) for name, f in
        (("exp", jexp), ("log", jlog), ("sin", jsin), ("cos", jcos),
         ("tan", jtan), ("sqrt", jsqrt))}


def squash(u):
    return u / (1.0 + u * u)


UNARY = {
    "neg": lambda a, f: -a,
    "exp": lambda a, f: f["exp"](squash(a)),
    "log": lambda a, f: f["log"](1.0 + a * a),
    "sin": lambda a, f: f["sin"](a),
    "cos": lambda a, f: f["cos"](a),
    "tan": lambda a, f: f["tan"](squash(a)),
    "sqrt": lambda a, f: f["sqrt"](1.0 + a * a),
    "square": lambda a, f: a ** 2,
    "cube": lambda a, f: a ** 3,
    "recip": lambda a, f: (1.0 + a * a) ** -1,
    "recip2": lambda a, f: (1.0 + a * a) ** -2,
    "real_power": lambda a, f: (1.0 + a * a) ** 0.7,
}
BINARY = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a / (1.0 + b * b),
}

leaves = st.one_of(
    st.tuples(st.just("x"), st.integers(0, N - 1)),
    st.tuples(st.just("c"), st.integers(-200, 200).map(lambda k: k / 100.0)))
exprs = st.recursive(leaves, lambda kids: st.one_of(
    st.tuples(st.sampled_from(sorted(UNARY)), kids),
    st.tuples(st.sampled_from(sorted(BINARY)), kids, kids)), max_leaves=4)
# an argument of the rule under test: a random expression plus x_a x_b, so
# that its gradient and Hessian are not zero
args = st.builds(lambda t, a, b: ("add", t, ("mul", ("x", a), ("x", b))),
                 exprs, st.integers(0, N - 1), st.integers(0, N - 1))
OPS = sorted(UNARY) + sorted(BINARY)
points = st.lists(st.integers(-100, 100).map(lambda k: k / 100.0), min_size=N, max_size=N)


def build(tree, x, f):
    """tree evaluated on the variables x with the elementary functions f."""
    op = tree[0]
    if op == "x":
        return x[tree[1]]
    if op == "c":
        return tree[1]
    if op in UNARY:
        return UNARY[op](build(tree[1], x, f), f)
    return BINARY[op](build(tree[1], x, f), build(tree[2], x, f))


def sympy_jet(expr, p):
    """Value, gradient and Hessian of expr at p by sympy differentiation."""
    at = dict(zip(SYMS, map(sp.Float, p)))

    def num(e):
        return float(e.xreplace(at).evalf())
    grad = [sp.diff(expr, s) for s in SYMS]
    hess = np.zeros((N, N))
    for i in range(N):
        for j in range(i, N):
            hess[i, j] = hess[j, i] = num(sp.diff(grad[i], SYMS[j]))
    return num(expr), [num(g) for g in grad], hess


def assert_close(got, want, rtol):
    got, want = np.asarray(got, float), np.asarray(want, float)
    assert np.abs(got - want).max() <= rtol * (1.0 + np.abs(want).max()), (got, want)


def rooted(op, a, b):
    """The rule op applied to the arguments a (and b)."""
    return (op, a) if op in UNARY else (op, a, b)


@pytest.mark.parametrize("op", OPS)
@settings(max_examples=6)
@given(a=args, b=args, p=points)
def test_jet_rules_match_sympy_derivatives(op, a, b, p):
    tree = rooted(op, a, b)
    value, want_grad, want_hess = sympy_jet(sp.sympify(build(tree, SYMS, SYMPY)), p)
    jet = lift(build(tree, Jet2.seed(p), JETS))
    assert_close(jet.value, value, 1e-9)
    assert_close(jet.grad, want_grad, 1e-9)
    assert_close(jet.hess, want_hess, 1e-9)


@given(st.sampled_from(OPS), args, args, st.lists(points, min_size=2, max_size=4))
def test_array_jet_equals_the_scalar_jets_it_stacks(op, a, b, pts):
    tree = rooted(op, a, b)
    seeds = [Jet2.seed(p) for p in pts]
    stacked = [pack([x[i] for x in seeds]) for i in range(N)]
    arr = lift(build(tree, stacked, JETS) + np.zeros(len(pts)))
    assert arr.shape == (len(pts),)
    for k, x in enumerate(seeds):
        one = lift(build(tree, x, JETS))
        for got, want in zip((arr.value[k], arr.grad[k], arr.hess[k]),
                             (one.value, one.grad, one.hess)):
            assert_close(got, want, 1e-12)


def random_jet(rng, shape):
    h = rng.normal(size=shape + (N, N))
    return Jet2(rng.normal(size=shape), rng.normal(size=shape + (N,)),
                h + np.swapaxes(h, -1, -2))


def scalar_einsum(spec, a, b):
    """spec evaluated one output component at a time with scalar jets."""
    ins, out = spec.split("->")
    sa, sb = ins.split(",")
    size = dict(zip(sa, a.shape))
    size.update(zip(sb, b.shape))
    letters = sorted(size)
    total = {}
    for combo in itertools.product(*(range(size[c]) for c in letters)):
        at = dict(zip(letters, combo))
        key = tuple(at[c] for c in out)
        term = a[tuple(at[c] for c in sa)] * b[tuple(at[c] for c in sb)]
        total[key] = total[key] + term if key in total else term
    return total


SPECS = ["ij,jk->ik", "ij,j->i", "i,ij->j", "i,i->", "i,j->ij",
         "ka,ijk->aij", "kj,kai->aij", "aij,ji->a"]


@given(st.sampled_from(SPECS), st.integers(0, 2 ** 32 - 1), st.booleans())
def test_jeinsum_matches_scalar_jets(spec, seed, const_first):
    rng = np.random.default_rng(seed)
    size = {c: int(rng.integers(1, 4)) for c in set(spec) - set(",->")}
    sa, sb = spec.split("->")[0].split(",")
    a = random_jet(rng, tuple(size[c] for c in sa))
    b = random_jet(rng, tuple(size[c] for c in sb))
    if const_first:
        a = a.value             # a plain array operand contributes no derivatives
    got = jeinsum(spec, a, b)
    for key, want in scalar_einsum(spec, lift(a), b).items():
        for g, w in zip((got.value[key], got.grad[key], got.hess[key]),
                        (want.value, want.grad, want.hess)):
            assert_close(g, w, 1e-12)


def cofactor_det(M):
    """Laplace expansion of a nested list of scalar jets."""
    if len(M) == 1:
        return M[0][0]
    return sum(((-1.0) ** j * M[0][j] * cofactor_det([row[:j] + row[j + 1:] for row in M[1:]])
                for j in range(len(M))), jconst(0.0, N))


@given(st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_jinv_matches_the_scalar_cofactor_inverse(d, seed):
    rng = np.random.default_rng(seed)
    A = random_jet(rng, (d, d)) + 3.0 * d * np.eye(d)
    M = [[A[i, j] for j in range(d)] for i in range(d)]
    det = cofactor_det(M)
    got = jinv(A)
    for i in range(d):
        for j in range(d):
            minor = [row[:i] + row[i + 1:] for k, row in enumerate(M) if k != j]
            cof = (-1.0) ** (i + j) * (cofactor_det(minor) if minor else jconst(1.0, N))
            want = cof / det
            for g, w in zip((got.value[i, j], got.grad[i, j], got.hess[i, j]),
                            (want.value, want.grad, want.hess)):
                assert_close(g, w, 1e-10)
