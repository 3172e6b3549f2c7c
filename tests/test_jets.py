"""Jet arithmetic against finite differences, quadrature, and sampling."""

import numpy as np
import pytest

from kahlerkit.jets import (Jet2, JetDomainError, SamplePlan, gauss_integrate,
                            jconst, jcos, jet_dcoord, jet_eval, jexp, jinv, jlog,
                            jsin, jsqrt, jtan, pack, sample_points)


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
        return jexp(jsin(x[0]) * x[1]) + x[1] * x[1] * jlog(x[2])

    def f1f(p):
        return np.exp(np.sin(p[0]) * p[1]) + p[1] ** 2 * np.log(p[2])

    def f2(x):
        return jsqrt(x[0] * x[0] + x[1] * x[1] + jconst(1.0, 3)) * jcos(x[2])

    def f2f(p):
        return np.sqrt(p[0] ** 2 + p[1] ** 2 + 1.0) * np.cos(p[2])

    def f3(x):
        return jtan(x[0] * 0.3) / (x[1] + 2.0) + (x[2] ** 3)

    def f3f(p):
        return np.tan(0.3 * p[0]) / (p[1] + 2.0) + p[2] ** 3
    return [(f1, f1f), (f2, f2f), (f3, f3f)]


def test_jets_match_finite_differences():
    rng = np.random.default_rng(11)
    for fj, ff in scalar_cases():
        for _ in range(5):
            p = rng.uniform(0.3, 0.9, size=3)
            jet = jet_eval(fj, p)
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
        n = jet.grad.shape[-1]
        for c in (1.5, -0.25, np.array([[2.0, 0.5], [-1.0, 3.0]])):
            k = jconst(c, n)
            pairs = ((jet + c, jet + k), (c + jet, k + jet), (jet - c, jet - k),
                     (c - jet, k - jet), (jet / c, jet * k.inv()))
            for got, want in pairs:
                for a, b in zip((got.value, got.grad, got.hess),
                                (want.value, want.grad, want.hess)):
                    assert a.shape == b.shape and np.array_equal(a, b)
    assert (u + 1.0).grad is u.grad and (u - 1.0).hess is u.hess
    with pytest.raises(JetDomainError):
        u / 0.0
    with pytest.raises(JetDomainError):
        M / np.array([[1.0, 0.0], [1.0, 1.0]])


def test_jet_matrix_inverse():
    rng = np.random.default_rng(3)
    p = rng.uniform(0.2, 0.8, size=3)
    x = Jet2.seed(p)
    A = [[x[0] + 2.0, x[1] * 0.3, jconst(0.0, 3)],
         [x[1] * 0.3, jexp(x[2] * 0.1), x[0] * x[1]],
         [jconst(0.0, 3), x[0] * x[1], jconst(2.0, 3) + jsin(x[0])]]
    prod = pack(A) @ jinv(pack(A))
    val, grad, hess = prod.value, prod.grad, prod.hess
    assert np.abs(val - np.eye(3)).max() < 1e-13
    assert np.abs(grad).max() < 1e-12
    assert np.abs(hess).max() < 1e-11


def test_singular_matrix_raises():
    x = Jet2.seed(np.array([0.5]))
    A = [[x[0], x[0]], [x[0], x[0]]]
    with pytest.raises(JetDomainError):
        jinv(pack(A))


def test_domain_errors_carry_the_point():
    with pytest.raises(JetDomainError) as err:
        jet_eval(lambda x: jlog(x[0]), [-1.0, 2.0])
    assert "-1.0" in str(err.value)
    with pytest.raises(JetDomainError):
        jet_eval(lambda x: jsqrt(x[0] - 5.0), [1.0])


def test_jet_dcoord_extracts_first_order_jet():
    p = np.array([0.4, 1.3])
    x = Jet2.seed(p)
    u = x[0] * x[0] * x[1]
    du0 = jet_dcoord(u, 0)
    assert abs(du0.value - 2.0 * p[0] * p[1]) < 1e-14
    assert np.abs(du0.grad - np.array([2.0 * p[1], 2.0 * p[0]])).max() < 1e-14


def test_gauss_integrate_polynomial_and_sine():
    val = gauss_integrate(lambda t: t ** 3)
    assert abs(val - 0.25) < 1e-14
    val = gauss_integrate(lambda t: np.pi * np.sin(np.pi * t))
    assert abs(val - 2.0) < 1e-12


def test_gauss_integrate_jet_valued():
    # integrand x -> jets in a 1-dim chart: integral of t*x0 dt = x0/2
    x = Jet2.seed(np.array([0.8]))
    out = gauss_integrate(lambda t: x[0] * t)
    assert abs(out.value - 0.4) < 1e-14
    assert abs(out.grad[0] - 0.5) < 1e-14


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
