"""Oracles for the float-layer contractions.

Each pairwise contraction is compared, on random inputs drawn from fixed
seeds, with the direct formula it replaced: the curvature rotation with the
five-operand einsum, wedge_top with the sum over all permutations, and the
D+ frame choice with one determinant per column pair.  The cost guard runs
every bundled scenario and fails if any einsum gets more than two operands,
which numpy evaluates as one nested loop over every index at once.
"""

import itertools
import math

import numpy as np
import pytest

from kahlerkit.fields import pull_back, wedge_top
from kahlerkit.foliation import _frame_columns, dplus_geodesic_residual
from kahlerkit.scenarios import bundled_names, load_scenario, run_scenario_obj


def _perm_sign(perm):
    perm = list(perm)
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, cyc = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            cyc += 1
        if cyc % 2 == 0:
            sign = -sign
    return sign


def wedge_top_by_permutations(two_forms):
    """The top coefficient of beta_1 ^ ... ^ beta_m as the sum over all n!
    permutations, divided by 2^m."""
    n = two_forms[0].shape[0]
    total = 0.0
    for perm in itertools.permutations(range(n)):
        term = 1.0
        for i, beta in enumerate(two_forms):
            term *= beta[perm[2 * i], perm[2 * i + 1]]
        total += _perm_sign(perm) * term
    return total / 2.0 ** len(two_forms)


def frame_columns_by_det(Pv):
    """The first column pair (i, j) of largest |det(U^T U)|, U = Pv[:, [i, j]]."""
    n = Pv.shape[0]
    best = None
    for i in range(n):
        for j in range(i + 1, n):
            U = Pv[:, [i, j]]
            d = abs(np.linalg.det(U.T @ U))
            if best is None or d > best[0]:
                best = (d, (i, j))
    return best[1]


def _two_form(rng, n):
    a = rng.normal(size=(n, n))
    return a - a.T


@pytest.mark.parametrize("n", [4, 6, 8])
def test_pull_back_matches_the_five_operand_einsum(n):
    rng = np.random.default_rng(100 + n)
    R = rng.normal(size=(n, n, n, n))
    J = rng.normal(size=(n, n))
    want = np.einsum('ai,bj,ck,dl,abcd->ijkl', J, J, J, J, R)
    got = pull_back(R, J)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("n", [2, 4, 6, 8])
@pytest.mark.parametrize("repeated", [False, True])
def test_wedge_top_matches_the_permutation_sum(n, repeated):
    rng = np.random.default_rng(200 + n + 50 * repeated)
    m = n // 2
    forms = [_two_form(rng, n) for _ in range(m)]
    if repeated:
        forms = [forms[0]] * (m - 1) + [forms[-1]]
    want = wedge_top_by_permutations(forms)
    got = wedge_top(forms)
    scale = math.factorial(m) * np.prod([np.abs(b).max() for b in forms])
    assert abs(got - want) <= 1e-12 * scale


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_wedge_power_squares_to_the_determinant(n):
    # omega^m / m! = Pf(omega) e_0^...^e_{n-1}, and Pf^2 = det
    rng = np.random.default_rng(300 + n)
    m = n // 2
    b = _two_form(rng, n)
    top = wedge_top([b] * m)
    want = math.factorial(m) ** 2 * np.linalg.det(b)
    assert abs(top ** 2 - want) <= 1e-12 * abs(want)


def _rank2_projectors(rng, count):
    for k in range(count):
        n = int(rng.integers(3, 9))
        U = rng.normal(size=(n, 2))
        if k % 2:
            V = rng.normal(size=(2, n))
            yield U @ np.linalg.inv(V @ U) @ V      # oblique
        else:
            Q = np.linalg.qr(U)[0]
            yield Q @ Q.T                           # orthogonal


def test_frame_columns_pick_the_pair_of_the_determinant_loop():
    rng = np.random.default_rng(400)
    for P in _rank2_projectors(rng, 400):
        assert _frame_columns(P) == frame_columns_by_det(P)
    # ties go to the first pair in (i, j) order
    P = np.diag([0.0, 1.0, 1.0, 0.0, 0.0])
    P[3, 3] = 1.0
    assert _frame_columns(P) == frame_columns_by_det(P) == (1, 2)


def test_frame_columns_reject_rank_one():
    with pytest.raises(ValueError):
        _frame_columns(np.diag([1.0, 0.0, 0.0]))


def test_sandwich_contraction_matches_the_three_operand_einsum():
    rng = np.random.default_rng(500)
    xi = rng.normal(size=(6, 6, 6))
    P = rng.normal(size=(6, 6))
    want = np.abs(np.einsum('kab,ai,bj->kij', xi, P, P)).max()
    assert abs(dplus_geodesic_residual(xi, P) - want) <= 1e-13 * want


def test_no_einsum_takes_more_than_two_operands(monkeypatch):
    # an einsum of three or more operands runs one loop over all its indices
    # (n^8 for the four-fold curvature rotation); every float-layer
    # contraction must be pairwise
    einsum = np.einsum
    widest = {}

    def counting(*args, **kwargs):
        ops = len(args) - 1
        spec = args[0]
        widest[spec] = max(widest.get(spec, 0), ops)
        return einsum(*args, **kwargs)
    monkeypatch.setattr(np, "einsum", counting)
    for name in bundled_names():
        scn = load_scenario(name)
        scn.count = 2
        run_scenario_obj(scn)
    assert widest, "no einsum ran"
    assert {s: k for s, k in widest.items() if k > 2} == {}
