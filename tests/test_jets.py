"""Jet arithmetic against finite differences, and sampling."""

import numpy as np
import pytest

from kahlerkit.jets import (SAMPLE_MEMO, FirstOrderError, Jet2, JetDomainError, SamplePlan,
                            jet_dcoord, jinv, jlog, jsin, pack, sample_points, uniform_draw)
from kahlerkit.fields import Fold, PointEval, first_order
from kahlerkit.cli import main


def fd_gradient(f, p, h=1e-4):
    """Richardson-extrapolated central differences, good to ~1e-9."""
    p = np.asarray(p, float)
    out = np.zeros(p.size)
    for k in range(p.size):
        e = np.zeros(p.size)
        e[k] = 1.0

        def d(step):
            return (f(p + step * e) - f(p - step * e)) / (2.0 * step)
        out[k] = (4.0 * d(h / 2.0) - d(h)) / 3.0
    return out


def fd_hessian(f, p, h=1e-3):
    p = np.asarray(p, float)
    n = p.size
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            ei = np.zeros(n)
            ej = np.zeros(n)
            ei[i] = 1.0
            ej[j] = 1.0

            def d2(step):
                return (f(p + step * (ei + ej)) - f(p + step * (ei - ej))
                        - f(p + step * (ej - ei)) + f(p - step * (ei + ej))) / (4.0 * step * step)
            out[i, j] = (4.0 * d2(h / 2.0) - d2(h)) / 3.0
    return out


def scalar_cases():
    def f1(x):
        return jsin(jsin(x[0]) * x[1]) + x[1] * x[1] * jlog(x[2])

    def f1f(p):
        return np.sin(np.sin(p[0]) * p[1]) + p[1] ** 2 * np.log(p[2])

    def f2(x):
        return jlog(x[0] * x[0] + x[1] * x[1] + 1.0) * jsin(x[2])

    def f2f(p):
        return np.log(p[0] ** 2 + p[1] ** 2 + 1.0) * np.sin(p[2])

    def f3(x):
        return jlog(x[0] * 0.3 + 1.0) / (x[1] + 2.0) + (x[2] ** 3)

    def f3f(p):
        return np.log(0.3 * p[0] + 1.0) / (p[1] + 2.0) + p[2] ** 3
    return [(f1, f1f), (f2, f2f), (f3, f3f)]


def test_jets_match_finite_differences():
    rng = np.random.default_rng(11)
    for fj, ff in scalar_cases():
        for _ in range(5):
            p = rng.uniform(0.3, 0.9, size=3)
            jet = fj(Jet2.seed(p))
            assert abs(jet.value - ff(p)) < 1e-12
            assert np.abs(jet.grad - fd_gradient(ff, p)).max() < 1e-6
            assert np.abs(jet.hess - fd_hessian(ff, p)).max() < 1e-5


def test_polynomial_jets_are_exact():
    rng = np.random.default_rng(5)
    for _ in range(10):
        p = rng.uniform(-2.0, 2.0, size=2)
        x = Jet2.seed(p)
        u = (x[0] + 2.0 * x[1]) ** 3
        a, b = p
        s = a + 2.0 * b
        assert abs(u.value - s ** 3) < 1e-13 * max(1.0, abs(s) ** 3)
        grad = 3.0 * s ** 2 * np.array([1.0, 2.0])
        assert np.abs(u.grad - grad).max() < 1e-12 * max(1.0, s ** 2)
        hess = 6.0 * s * np.outer([1.0, 2.0], [1.0, 2.0])
        assert np.abs(u.hess - hess).max() < 1e-12 * max(1.0, abs(s))


def test_an_integer_power_is_a_product_whatever_the_integer_type():
    # a NumPy integer exponent takes the product path of a Python int: no
    # log, so a negative base is in the domain, and the same bits
    x = Jet2.seed(np.array([-0.5, 0.3]))
    for u in (x[0], x[1], x[0] * x[1]):
        for k in (0, 1, 2, 3, -2):
            for typed in (np.int64(k), np.int32(k)):
                got, want = u ** typed, u ** k
                for part in ("value", "grad", "hess"):
                    assert np.array_equal(getattr(got, part), getattr(want, part))
    assert (x[0] ** np.int64(2)).value[0] == 0.25


def test_an_integral_float_power_is_a_product():
    # 2.0 and np.float64(3.0) are integers too: the product path, bit for
    # bit, where exp(k log u) left the domain at a negative base
    x = Jet2.seed(np.array([-2.0, 0.7]))
    for u in (x[0], x[1], x[0] * x[1]):
        for got, want in ((u ** 2.0, u * u), (u ** np.float64(3.0), u * u * u),
                          (u ** -2.0, u.inv() * u.inv())):
            for part in ("value", "grad", "hess"):
                assert same_bits(getattr(got, part), getattr(want, part))
    assert (x[0] ** 2.0).value[0] == 4.0


def test_a_non_integral_power_is_refused():
    # only an integral exponent, a number, is a jet power (a product); any
    # other, at a positive base too, raises TypeError, and so does a string
    # that float() would read as an integer
    x = Jet2.seed(np.array([0.5, 0.3]))
    for k in (0.5, 0.7, -1.5, np.float64(2.5), float("inf"), float("nan"), "2"):
        with pytest.raises(TypeError, match="integral exponent"):
            x[0] ** k


def test_division_and_inverse_consistency():
    x = Jet2.seed(np.array([0.7, -0.4]))
    u = (x[0] * x[1] + 2.0)
    w = u * u.inv()
    assert abs(w.value - 1.0) < 1e-15
    assert np.abs(w.grad).max() < 1e-15
    assert np.abs(w.hess).max() < 1e-14
    q = 1.0 / u
    assert abs(q.value - 1.0 / u.value) < 1e-15


def test_constant_operands_act_on_the_value():
    # jet + c, jet - c, c - jet and jet / c give the bits of the product rule
    # with a zero-derivative constant, without building one
    x = Jet2.seed([0.3, -0.7, 1.9])
    u = x[0] * x[1] + x[2] * x[2]
    M = pack([[u, x[0]], [x[1] * u, -u]])
    for jet in (u, M):
        for c in (1.5, -0.25, np.array([[2.0, 0.5], [-1.0, 3.0]])):
            k = pack(c, jet)
            pairs = ((jet + c, jet + k), (c + jet, k + jet), (jet - c, jet - k),
                     (c - jet, k - jet), (jet / c, jet * k.inv()))
            for got, want in pairs:
                for a, b in zip((got.value, got.grad, got.hess),
                                (want.value, want.grad, want.hess)):
                    assert a.shape == b.shape and np.array_equal(a, b)
    assert (u + 1.0).grad is u.grad and (u - 1.0)._hess is u._hess
    with pytest.raises(JetDomainError):
        u / 0.0
    with pytest.raises(JetDomainError):
        M / np.array([[1.0, 0.0], [1.0, 1.0]])


def same_bits(a, b):
    return np.shape(a) == np.shape(b) and np.asarray(a).tobytes() == np.asarray(b).tobytes()


def test_numbers_among_jets_pack_as_constant_jets():
    # a number beside jets takes their coordinates and derivative order: the
    # stack holds the bits of the constant jet (the value, a zero gradient
    # and Hessian) repeated over the batch, and first order when the jets
    # are; a list with no jet needs the point it is read at
    x = Jet2.seed([[0.3, -0.7, 1.9], [0.2, 0.4, -0.1]])
    u = x[1] * x[2]
    M = pack([[x[0], 2.0], [0.0, u]])
    for (i, j), e in (((0, 0), x[0]), ((0, 1), 2.0), ((1, 0), 0.0), ((1, 1), u)):
        want = ((e.value, e.grad, e.hess) if isinstance(e, Jet2) else
                (np.full(2, e), np.zeros((2, 3)), np.zeros((2, 3, 3))))
        for got, w in zip((M.value, M.grad, M.hess), want):
            assert same_bits(got[:, i, j], w)
    lo = pack([[first_order(x[0]), 2.0], [0.0, first_order(u)]])
    assert lo._hess is None
    assert same_bits(lo.value, M.value) and same_bits(lo.grad, M.grad)
    with pytest.raises(TypeError, match="point"):
        pack([[1.0, 0.0], [0.0, 1.0]])


def test_jet_matrix_inverse():
    rng = np.random.default_rng(3)
    p = rng.uniform(0.2, 0.8, size=3)
    x = Jet2.seed(p)
    A = [[x[0] + 2.0, x[1] * 0.3, 0.0],
         [x[1] * 0.3, jlog(x[2] * 0.1 + 2.0), x[0] * x[1]],
         [0.0, x[0] * x[1], 2.0 + jsin(x[0])]]
    # the inverse is first order: a value and a gradient, no Hessian
    Ai = jinv(pack(A))
    with pytest.raises(FirstOrderError):
        Ai.hess
    prod = pack(A) @ Ai
    assert np.abs(prod.value - np.eye(3)).max() < 1e-13
    assert np.abs(prod.grad).max() < 1e-12


def test_singular_matrix_raises():
    x = Jet2.seed(np.array([0.5]))
    A = [[x[0], x[0]], [x[0], x[0]]]
    with pytest.raises(JetDomainError):
        jinv(pack(A))


def test_domain_errors_carry_the_point():
    # a Fold names the point where a jet operation left its domain
    for f, p in ((lambda x: jlog(x[0]), [-1.0, 2.0]),
                 (lambda x: (x[0] - 1.0).inv(), [1.0])):
        acc = Fold()
        acc.add(PointEval(p), f)
        assert isinstance(acc.exc, JetDomainError)
        assert acc.error.startswith("JetDomainError at point %s: " % p)


def test_jet_dcoord_extracts_first_order_jet():
    p = np.array([0.4, 1.3])
    x = Jet2.seed(p)
    u = x[0] * x[0] * x[1]
    du0 = jet_dcoord(u)[0]
    assert abs(du0.value - 2.0 * p[0] * p[1]) < 1e-14
    assert np.abs(du0.grad - np.array([2.0 * p[1], 2.0 * p[0]])).max() < 1e-14


def test_sampling_is_deterministic_and_margined():
    dom = [(-1.0, 3.0), (0.5, 2.5)]
    plan = SamplePlan(seed=42, count=25)
    a = sample_points(dom, plan)
    b = sample_points(dom, plan)
    assert np.array_equal(a, b)
    c = sample_points(dom, SamplePlan(seed=43, count=25))
    assert not np.array_equal(a, c)
    span0 = 4.0
    assert a[:, 0].min() >= -1.0 + 0.15 * span0 - 1e-12
    assert a[:, 0].max() <= 3.0 - 0.15 * span0 + 1e-12


def test_sample_plan_validation():
    with pytest.raises(ValueError):
        SamplePlan(margin=0.6)
    with pytest.raises(ValueError):
        SamplePlan(count=0)
    with pytest.raises(ValueError):
        sample_points([(1.0, 1.0)], SamplePlan())


# every seed below 64, the 32-bit word boundary, a three-word seed above
# 2**64, a four-word one and seeds of more words than SeedSequence's pool
# holds; shapes from one double to 1000 six-dim points, whole Philox blocks
# of 4 words and partial ones
ORACLE_SEEDS = (list(range(64)) + [2 ** 32 - 1, 2 ** 32, 2 ** 64 + 3, 10 ** 30]
                + [2 ** 128, 10 ** 400])
ORACLE_SHAPES = [(1, 1), (1, 2), (3, 3), (7, 5), (10, 6), (50, 4), (1000, 6)]


@pytest.mark.parametrize("shape", ORACLE_SHAPES)
def test_the_draws_are_numpys_philox_bit_for_bit(shape):
    # SeedSequence and Philox4x64-10 written in jets.py against numpy's own
    # (imported here, in the tests, only)
    for seed in ORACLE_SEEDS:
        ref = np.random.Generator(np.random.Philox(seed)).random(shape)
        assert np.array_equal(uniform_draw(seed, shape), ref), seed


def test_sample_points_map_the_oracle_draws_into_the_box():
    dom = [(-1.0, 3.0), (0.5, 2.5), (-2.0, -1.0)]
    lo, hi = np.array(dom).T
    lo_m, hi_m = lo + 0.2 * (hi - lo), hi - 0.2 * (hi - lo)
    for seed, count in ((0, 1), (2 ** 32, 7), (10 ** 30, 50)):
        u = np.random.Generator(np.random.Philox(seed)).random((count, 3))
        got = sample_points(dom, SamplePlan(seed=seed, count=count, margin=0.2))
        assert np.array_equal(got, lo_m + u * (hi_m - lo_m))


def test_a_seed_above_two_to_the_64_verifies(capsys):
    # SeedSequence takes any non-negative int as entropy, in 32-bit words
    assert main(["verify", "flat", "--seed", str(2 ** 64 + 3)]) == 0
    assert '"seed": 18446744073709551619' in capsys.readouterr().out


def test_the_memoised_draw_is_read_only_and_each_sample_fresh():
    dom = [(0.0, 1.0), (-2.0, 2.0)]
    plan = SamplePlan(seed=5, count=9)
    u = uniform_draw(5, (9, 2))
    assert uniform_draw(5, (9, 2)) is u and not u.flags.writeable
    with pytest.raises(ValueError):
        u[0, 0] = 0.5
    a = sample_points(dom, plan)
    b = sample_points(dom, plan)
    assert a is not b and a.flags.writeable and b.flags.writeable
    assert not np.shares_memory(a, b) and not np.shares_memory(a, u)
    assert np.array_equal(a, b)
    a[:] = 0.0
    assert np.array_equal(sample_points(dom, plan), b)


def test_the_sample_memo_is_bounded():
    for count in range(1, 2 * SAMPLE_MEMO + 2):
        uniform_draw(7, (count, 2))
        assert uniform_draw.cache_info().currsize <= SAMPLE_MEMO
    assert uniform_draw.cache_info().currsize == SAMPLE_MEMO
