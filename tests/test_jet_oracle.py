"""Independent oracles for the jet rules.

Random elementary expressions are differentiated by sympy and compared with
their jets, whose Hessians read exactly symmetric; array-valued jets,
jeinsum and jinv are recomputed element by element with scalar jets;
jets.contract is recomputed with np.einsum, embed as the product by
selection matrices, and every rule on first-order operands with the full
rule, and on known-zero operands (a constant, an affine jet) with the zeros
written out.  Each rule is fed through a map into its domain (log and the
reciprocal of 1 + u^2, division by 1 + v^2), applied identically on both
sides.  The curvature stack is checked on random surface metrics against
the Brioschi formula.
"""

import functools
import itertools
import math

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from kahlerkit import jets
from kahlerkit.fields import DOMAIN_ERRORS, Field, Fold, PointEval
from kahlerkit.jets import (AFFINE, FirstOrderError, Jet2, contract, embed, jeinsum,
                            jet_dcoord, jinv, jlog, jsin, pack)
from kahlerkit.scenarios import bundled_names, load_scenario, run_scenario_obj
from helpers import patch_contract

N = 3
SYMS = sp.symbols("x0:%d" % N)


# a second-order point whose coordinates a constant subexpression takes
ORIGIN = Jet2.seed(np.zeros(N))


def lift(u, shape=()):
    """A constant subexpression as a jet, broadcast to shape."""
    return u if isinstance(u, Jet2) else pack(np.asarray(u) + np.zeros(shape), ORIGIN)


SYMPY = {"log": sp.log, "sin": sp.sin}
JETS = {name: (lambda f: lambda u: f(lift(u)))(f) for name, f in
        (("log", jlog), ("sin", jsin))}


UNARY = {
    "neg": lambda a, f: -a,
    "rsub": lambda a, f: 2.0 - a,
    "log": lambda a, f: f["log"](1.0 + a * a),
    "sin": lambda a, f: f["sin"](a),
    "square": lambda a, f: a ** 2,
    "cube": lambda a, f: a ** 3,
    "recip": lambda a, f: (1.0 + a * a) ** -1,
    "recip2": lambda a, f: (1.0 + a * a) ** -2,
    "rdiv": lambda a, f: 2.0 / (1.0 + a * a),
    "pow0": lambda a, f: a ** 0,
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


# a rule argument that may carry a known-zero Hessian: a lifted constant
# ("k", on the jet side an AFFINE jet with a zero gradient), a bare
# coordinate (AFFINE), an affine combination k + c x_a, or an args
# expression
consts = st.integers(-200, 200).map(lambda k: k / 100.0)
known_zero_args = st.one_of(
    st.tuples(st.just("k"), consts),
    st.tuples(st.just("x"), st.integers(0, N - 1)),
    st.builds(lambda k, c, a: ("add", ("k", k), ("mul", ("c", c), ("x", a))),
              consts, consts, st.integers(0, N - 1)),
    args)


def build(tree, x, f):
    """tree evaluated on the variables x with the elementary functions f; a
    lifted constant leaf is lifted on the jet side only."""
    op = tree[0]
    if op == "x":
        return x[tree[1]]
    if op == "c":
        return tree[1]
    if op == "k":
        return lift(tree[1]) if f is JETS else tree[1]
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
    # the slot's half Hessian is not seen from outside
    assert np.array_equal(jet.hess, jet.hess.swapaxes(-1, -2))


@pytest.mark.parametrize("op", OPS)
@settings(max_examples=6)
@given(a=known_zero_args, b=known_zero_args, p=points)
def test_jet_rules_match_sympy_derivatives_on_known_zero_arguments(op, a, b, p):
    # the rules' affine branches against sympy: a lifted constant and a
    # coordinate add no Hessian term
    tree = rooted(op, a, b)
    value, want_grad, want_hess = sympy_jet(sp.sympify(build(tree, SYMS, SYMPY)), p)
    jet = lift(build(tree, Jet2.seed(p), JETS))
    assert_close(jet.value, value, 1e-9)
    assert_close(jet.grad, want_grad, 1e-9)
    assert_close(jet.hess, want_hess, 1e-9)
    # the slot's half Hessian is not seen from outside
    assert np.array_equal(jet.hess, jet.hess.swapaxes(-1, -2))


@given(st.sampled_from(OPS), args, args, st.lists(points, min_size=2, max_size=4))
def test_array_jet_equals_the_scalar_jets_it_stacks(op, a, b, pts):
    tree = rooted(op, a, b)
    seeds = [Jet2.seed(p) for p in pts]
    stacked = [pack([x[i] for x in seeds]) for i in range(N)]
    arr = lift(build(tree, stacked, JETS) + np.zeros(len(pts)))
    assert arr.shape == (len(pts),)
    for k, x in enumerate(seeds):
        one = lift(build(tree, x, JETS))
        for got, want in zip((arr.value[:, k], arr.grad[:, k], arr.hess[:, k]),
                             (one.value, one.grad, one.hess)):
            assert_close(got, want, 1e-12)


def random_jet(rng, shape, batch=1):
    """A jet of value shape shape at a batch of batch points (one by
    default)."""
    h = rng.normal(size=(batch,) + shape + (N, N))
    return Jet2(rng.normal(size=(batch,) + shape), rng.normal(size=(batch,) + shape + (N,)),
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
        a = a.value[0]          # a plain array operand contributes no derivatives
    got = jeinsum(spec, a, b)
    for key, want in scalar_einsum(spec, lift(a), b).items():
        one = got[key]
        for g, w in zip((one.value, one.grad, one.hess), (want.value, want.grad, want.hess)):
            assert_close(g, w, 1e-12)


def cofactor_det(M):
    """Laplace expansion of a nested list of scalar jets."""
    if len(M) == 1:
        return M[0][0]
    return sum(((-1.0) ** j * M[0][j] * cofactor_det([row[:j] + row[j + 1:] for row in M[1:]])
                for j in range(len(M))))


@given(st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_jinv_matches_the_scalar_cofactor_inverse(d, seed):
    rng = np.random.default_rng(seed)
    A = random_jet(rng, (d, d)) + 3.0 * d * np.eye(d)
    M = [[A[i, j] for j in range(d)] for i in range(d)]
    det = cofactor_det(M)
    got = jinv(A)
    # first order: its readers take values and gradients only
    with pytest.raises(FirstOrderError):
        got.hess
    for i in range(d):
        for j in range(d):
            minor = [row[:i] + row[i + 1:] for k, row in enumerate(M) if k != j]
            cof = (-1.0) ** (i + j) * (cofactor_det(minor) if minor else 1.0)
            want = cof / det
            one = got[i, j]
            for g, w in zip((one.value, one.grad), (want.value, want.grad)):
                assert_close(g, w, 1e-10)


# ---------------------------------------------------------------------------
# contract against np.einsum
# ---------------------------------------------------------------------------

def assert_contract_matches_einsum(spec, x, y):
    """contract(spec, x, y) equals np.einsum to 1e-13 of the magnitude
    bound sum |x| |y|."""
    got, want = contract(spec, x, y), np.einsum(spec, x, y)
    assert got.shape == want.shape, spec
    scale = np.einsum(spec, np.abs(x), np.abs(y))
    assert np.all(np.abs(got - want) <= 1e-13 * scale), spec


@st.composite
def contractions(draw):
    """A two-operand spec with every kind of letter, and operands for it: a
    batch axis Z of B or 1 on jet-like operands (a plain-array operand has
    none), letters shared by both operands and the output, letters of one
    operand in the output and summed letters (none makes an outer product),
    each of size 1, 2 or n, n in {2, 4, 6}."""
    n = draw(st.sampled_from([2, 4, 6]))
    shared, xo, yo, summed = ([c for c in pool[:draw(st.integers(0, 2))]]
                              for pool in ("ab", "cd", "ef", "gh"))
    size = {c: draw(st.sampled_from([1, 2, n])) for c in shared + xo + yo + summed}
    sx = draw(st.permutations(shared + xo + summed))
    sy = draw(st.permutations(shared + yo + summed))
    out = draw(st.permutations(shared + xo + yo))
    xshape, yshape = [size[c] for c in sx], [size[c] for c in sy]
    jets = draw(st.sampled_from(["both", "x", "y"]))
    if jets != "y":
        sx, xshape, out = ["Z"] + sx, [5] + xshape, ["Z"] + out
    if jets != "x":
        sy, yshape = ["Z"] + sy, [5] + yshape
        out = out if jets == "both" else ["Z"] + out
    if jets == "both":
        one = draw(st.sampled_from(["", "x", "y"]))
        xshape[0] = 1 if one == "x" else 5
        yshape[0] = 1 if one == "y" else 5
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    spec = "%s,%s->%s" % ("".join(sx), "".join(sy), "".join(out))
    return spec, rng.normal(size=xshape), rng.normal(size=yshape)


@given(contractions())
def test_contract_matches_einsum_on_random_specs(case):
    assert_contract_matches_einsum(*case)


@pytest.mark.parametrize("spec, xs, ys", [
    ("Zi,Zj->Zij", (5, 4), (1, 4)),                  # outer product, batch of 1
    ("Zij,jk->Zik", (5, 6, 6), (6, 6)),               # plain right operand
    ("ij,ZjkM->ZikM", (2, 2), (1, 2, 2, 2)),          # plain left, batch of 1
    ("ZijM,ZjkP->ZikMP", (1, 4, 4, 4), (5, 4, 4, 4)),  # the cross term
    ("Zaij,Zji->Za", (5, 2, 6, 6), (5, 6, 6)),        # every letter summed
    ("i,i->", (4,), (4,)),
])
def test_contract_matches_einsum_on_chosen_specs(spec, xs, ys):
    rng = np.random.default_rng(7)
    assert_contract_matches_einsum(spec, rng.normal(size=xs), rng.normal(size=ys))


@pytest.mark.parametrize("spec, xs, ys, needle", [
    ("ii,i->i", (2, 2), (2,), "repeats a letter"),
    ("ij,j->", (2, 3), (3,), "sums a letter within a single operand"),
    ("ij,jk->ikq", (2, 3), (3, 2), "output letter in no operand"),
    ("ij,jk->ik", (2, 3, 1), (3, 2), "does not match"),
])
def test_contract_rejects_specs_it_cannot_express(spec, xs, ys, needle):
    with pytest.raises(ValueError, match=needle):
        contract(spec, np.ones(xs), np.ones(ys))


def test_contract_matches_einsum_on_every_spec_of_the_bundled_runs(monkeypatch):
    # every contraction that jeinsum, jinv and the float layer run in one
    # bundled run of each scenario, recomputed with np.einsum
    seen = {}

    def recording(contract):
        def record(spec, x, y):
            key = (spec, x.shape, y.shape)
            if key not in seen:
                seen[key] = (np.array(x), np.array(y))
            return contract(spec, x, y)
        return record
    patch_contract(monkeypatch, recording)
    for name in bundled_names():
        run_scenario_obj(load_scenario(name))
    # no bundled run multiplies a second-order matrix jet by a constant
    # matrix jet, as the J family is first order: that product runs here as
    # a J_w's E[:, :2] @ S+ ran it
    x = Jet2.seed(np.linspace(0.1, 0.6, 12).reshape(2, 6))
    A = np.eye(6) + 0.1 * jeinsum("i,j->ij", x, x * x)
    A[:, :2] @ PointEval(x.value).raw(Field(lambda pt: np.arange(12.0).reshape(2, 6)))
    monkeypatch.undo()
    assert {spec for spec, _, _ in seen} >= {"ZijMP,Zjk->ZikMP", "Zlim,Zmjk->Zlijk",
                                             "Zil,Zijkl->Zjk"}
    for (spec, _, _), (x, y) in seen.items():
        assert_contract_matches_einsum(spec, x, y)


def test_each_spec_is_analysed_once(monkeypatch):
    # _plan derives each operand-shape plan from its spec's one letter
    # analysis: over the bundled runs, with both caches cold, _letters runs
    # once per distinct spec and _plan once per spec and operand shapes
    for name in ("_letters", "_plan"):
        monkeypatch.setattr(jets, name, functools.lru_cache(maxsize=None)(
            getattr(jets, name).__wrapped__))
    seen = set()

    def recording(contract):
        def record(spec, x, y):
            seen.add((spec, x.shape, y.shape))
            return contract(spec, x, y)
        return record
    patch_contract(monkeypatch, recording)
    for name in bundled_names():
        run_scenario_obj(load_scenario(name))
    specs = {spec for spec, _, _ in seen}
    assert len(seen) > len(specs)
    assert jets._letters.cache_info().misses == len(specs)
    assert jets._plan.cache_info().misses == len(seen)


# ---------------------------------------------------------------------------
# first-order jets
# ---------------------------------------------------------------------------

def first_order(j):
    """The jet j without its Hessian."""
    return Jet2(j.value, j.grad)


# each rule with the operands it reads
FIRST_ORDER_RULES = {
    "neg": ("a", lambda a, b: -a),
    "add": ("ab", lambda a, b: a + b), "sub": ("ab", lambda a, b: a - b),
    "mul": ("ab", lambda a, b: a * b), "div": ("ab", lambda a, b: a / (2.0 + b * b)),
    "add_const": ("a", lambda a, b: 1.5 + a - 0.5), "rsub": ("a", lambda a, b: 2.0 - a),
    "mul_array": ("a", lambda a, b: a * np.array([[2.0, -1.0], [0.5, 3.0]])),
    "scale": ("a", lambda a, b: 3.0 * a / 4.0),
    "broadcast": ("ab", lambda a, b: a[0, 0] * b),
    "inv": ("a", lambda a, b: (2.0 + a * a).inv()),
    "rdiv": ("a", lambda a, b: 1.0 / (2.0 + a * a)),
    "pow": ("a", lambda a, b: a ** 3), "pow0": ("a", lambda a, b: a ** 0),
    "pow_neg": ("a", lambda a, b: (2.0 + a * a) ** -2),
    "log": ("a", lambda a, b: jlog(1.0 + a * a)), "sin": ("a", lambda a, b: jsin(a)),
    "index": ("a", lambda a, b: a[1]), "slice": ("a", lambda a, b: a[:, 1:]),
    "T": ("a", lambda a, b: a.T),
    "embed": ("a", lambda a, b: embed(a, (3, 4), np.s_[1:, 2:])),
    "matmul": ("ab", lambda a, b: a @ b),
    "rmatmul": ("b", lambda a, b: np.array([[1.0, 2.0], [3.0, 4.0]]) @ b),
    "jeinsum": ("ab", lambda a, b: jeinsum("ij,kj->ik", a, b)),
    "outer": ("ab", lambda a, b: jeinsum("ij,kl->ijkl", a, b)),
    "jinv": ("a", lambda a, b: jinv(a + 4.0 * np.eye(2))),
    "pack": ("ab", lambda a, b: pack([[a[0, 0], b[1, 1]], [a[1, 0] * b[0, 1], a[1, 1]]])),
}


@given(st.sampled_from(sorted(FIRST_ORDER_RULES)), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["a", "b", "ab"]))
def test_first_order_rules_give_the_value_and_gradient_of_the_full_rule(rule, seed, drop):
    # dropping the Hessian of one or both operands changes nothing the
    # result's value and gradient read, and the result is first order when
    # the rule reads a dropped operand or is itself first order (jinv)
    rng = np.random.default_rng(seed)
    a, b = random_jet(rng, (2, 2)), random_jet(rng, (2, 2))
    reads, f = FIRST_ORDER_RULES[rule]
    want = f(a, b)
    got = f(first_order(a) if "a" in drop else a, first_order(b) if "b" in drop else b)
    for g, w in ((got.value, want.value), (got.grad, want.grad)):
        assert g.shape == w.shape
        assert_close(g, w, 1e-14)
    assert (got._hess is None) == (want._hess is None or bool(set(reads) & set(drop)))


# the states of an operand's Hessian slot
KINDS = ("array", "first", "affine", "constant")


def operand(rng, kind, batch):
    """A random (2, 2) jet at batch points whose Hessian slot is of kind: a
    constant is affine, its value one at every point and its gradient
    zero."""
    j = random_jet(rng, (2, 2), batch)
    if kind == "first":
        return first_order(j)
    if kind == "affine":
        return Jet2(j.value, j.grad, AFFINE)
    if kind == "constant":
        return Jet2(np.broadcast_to(j.value[:1], j.value.shape), np.zeros(j.grad.shape),
                    AFFINE)
    return j


def written_out(j):
    """The jet j with a known-zero Hessian slot written out as arrays."""
    return Jet2(j.value, j.grad, j.hess) if isinstance(j._hess, jets.Zero) else j


@pytest.mark.parametrize("rule", sorted(FIRST_ORDER_RULES))
@settings(max_examples=3)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_known_zero_rules_equal_the_rules_on_written_out_zeros(rule, seed):
    # each rule on constant and affine operands, first-order and array ones
    # mixed in, at batches of 1 and 3, gives the bits of the same rule with
    # the zeros written out: skipping a zero term moves no bit, and a known
    # zero result reads as zeros; on two constants every rule gives a zero
    # gradient and Hessian.  pack stacks components at one batch, so its
    # operands share theirs
    _, f = FIRST_ORDER_RULES[rule]
    rng = np.random.default_rng(seed)
    batches = ((1, 1), (3, 3)) if rule == "pack" else itertools.product((1, 3), (1, 3))
    for ka, kb, (ba, bb) in itertools.product(KINDS, KINDS, batches):
        a, b = operand(rng, ka, ba), operand(rng, kb, bb)
        got, want = f(a, b), f(written_out(a), written_out(b))
        where = (rule, ka, kb, ba, bb)
        for g, w in ((got.value, want.value), (got.grad, want.grad)):
            assert g.shape == w.shape and np.array_equal(g, w), where
        assert (got._hess is None) == (want._hess is None), where
        if want._hess is not None:
            assert got.hess.shape == want.hess.shape, where
            assert np.array_equal(got.hess, want.hess), where
        if ka == kb == "constant":
            assert not got.grad.any(), where
            assert got._hess is None or not got.hess.any(), where


@pytest.mark.parametrize("kind", KINDS)
def test_embed_equals_the_product_by_selection_matrices(kind):
    # embed places a jet in a zero jet as the product by the 0/1 selection
    # matrices of the block does, a matrix into a block and a vector into a
    # slice, and keeps a known-zero Hessian
    rng = np.random.default_rng(KINDS.index(kind))
    a = operand(rng, kind, 3)
    for got, want in ((embed(a, (4, 5), np.s_[2:, 1:3]),
                       np.eye(4)[:, 2:] @ written_out(a) @ np.eye(5)[1:3]),
                      (embed(a[:, 0], (4,), np.s_[2:]), np.eye(4)[:, 2:] @ written_out(a[:, 0]))):
        for g, w in ((got.value, want.value), (got.grad, want.grad)):
            assert g.shape == w.shape and np.array_equal(g, w)
        if kind == "array":
            assert got.hess.shape == want.hess.shape and np.array_equal(got.hess, want.hess)
        else:
            assert got._hess is a._hess


def test_reading_the_hessian_of_a_first_order_jet_raises():
    x = Jet2.seed([0.3, -0.4])
    du = jet_dcoord(x[0] * x[0] * x[1])
    assert du._hess is None
    with pytest.raises(FirstOrderError, match="first-order"):
        du.hess
    with pytest.raises(FirstOrderError):
        jet_dcoord(du)
    # a defect of the caller, not a domain error of the point: a Fold does
    # not record it, it ends the run
    assert not issubclass(FirstOrderError, DOMAIN_ERRORS)
    for p in ([0.3, -0.4], [[0.3, -0.4], [0.1, 0.2]]):
        acc = Fold()
        with pytest.raises(FirstOrderError):
            acc.add(PointEval(p), lambda pe: jet_dcoord(pe * pe).hess.sum(axis=(1, 2, 3)))
        assert acc.error == "" and acc.points == 0


# ---------------------------------------------------------------------------
# Gaussian curvature by the Brioschi formula
# ---------------------------------------------------------------------------

UV = sp.symbols("u v")
PLAIN = {"log": math.log, "sin": math.sin}
# a constant subexpression stays a number, which the metric's pack lifts
JETS_2D = {name: (lambda f, g: lambda u: f(u) if isinstance(u, Jet2) else g(u))(f, PLAIN[name])
           for name, f in (("log", jlog), ("sin", jsin))}
exprs_2d = st.recursive(
    st.one_of(st.tuples(st.just("x"), st.integers(0, 1)),
              st.tuples(st.just("c"), st.integers(-200, 200).map(lambda k: k / 100.0))),
    lambda kids: st.one_of(st.tuples(st.sampled_from(sorted(UNARY)), kids),
                           st.tuples(st.sampled_from(sorted(BINARY)), kids, kids)),
    max_leaves=3)


def surface(trees, x, f):
    """E, F, G of a metric E du^2 + 2F du dv + G dv^2 built from three
    expression trees a, b, c: 1 + w w^T + c^2 e_1 e_1^T for w = (a, b), so
    positive definite."""
    a, b, c = (build(t, x, f) for t in trees)
    return 1.0 + a * a + c * c, a * b, 1.0 + b * b


def brioschi(E, F, G, p):
    """The Gaussian curvature at p from the first and second partials of E,
    F and G alone (do Carmo, Differential Geometry of Curves and Surfaces,
    section 4-3)."""
    u, v = UV
    at = dict(zip(UV, map(sp.Float, p)))
    Ev, Fu, Gu = sp.diff(E, v), sp.diff(F, u), sp.diff(G, u)
    e, f, g, Eu, Ev, Fu, Fv, Gu, Gv, Evv, Fuv, Guu = (float(x.xreplace(at).evalf()) for x in (
        E, F, G, sp.diff(E, u), Ev, Fu, sp.diff(F, v), Gu, sp.diff(G, v),
        sp.diff(Ev, v), sp.diff(Fu, v), sp.diff(Gu, u)))
    A = [[-Evv / 2 + Fuv - Guu / 2, Eu / 2, Fu - Ev / 2], [Fv - Gu / 2, e, f], [Gv / 2, f, g]]
    B = [[0.0, Ev / 2, Gu / 2], [Ev / 2, e, f], [Gu / 2, f, g]]
    return (np.linalg.det(A) - np.linalg.det(B)) / (e * g - f * f) ** 2


@settings(max_examples=20)
@given(st.tuples(exprs_2d, exprs_2d, exprs_2d), st.lists(
    st.integers(-100, 100).map(lambda k: k / 100.0), min_size=2, max_size=2))
def test_scalar_curvature_is_twice_the_brioschi_gaussian_curvature(trees, p):
    E, F, G = (sp.sympify(c) for c in surface(trees, UV, SYMPY))

    def metric(pt):
        E, F, G = surface(trees, pt, JETS_2D)
        return [[E, F], [F, G]]
    scal = PointEval(p).curvature(metric)[2][0]
    assert_close(scal / 2.0, brioschi(E, F, G, p), 1e-8)
