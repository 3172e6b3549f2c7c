"""Oracles for the float-layer contractions.

Each pairwise contraction is compared, on random inputs drawn from fixed
seeds, with the direct formula it replaced: every jets.contract spec that
src/ names, the float layer's and jinv's, every one the test oracles
of paper_claims name, and the Hessian specs jeinsum builds for a matrix
product of two second-order jets, with np.einsum, on batched,
unbatched and batch-of-one operands; the curvature, Nijenhuis and wedge formulas that
became transposes and broadcasts with the einsums they replaced; the
curvature rotation with the five-operand einsum, wedge_top with the sum
over all permutations, and the D+ frame choice with one determinant per
column pair.  The cost guard runs every bundled scenario and fails if any
contraction gets more than two operands, which np.einsum evaluates as one
nested loop over every index at once.
"""

import ast
import itertools
import math
import os

import numpy as np
import pytest

from kahlerkit.fields import curvature_from_parts, nijenhuis_from_jets, pull_back, wedge_top
from kahlerkit.foliation import _frame_columns, dplus_geodesic_residual
from kahlerkit.jets import _specs, contract
from kahlerkit.scenarios import bundled_names, load_scenario, run_scenario_obj
from helpers import patch_contract
from paper_claims import lie_endo_from_jets, wedge12

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src", "kahlerkit")


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
    # a batch of tensors and maps, as the ak3 check pulls back (numpy's
    # pairwise einsum path as the oracle, which is fast enough at n = 8)
    Rs, Js = rng.normal(size=(3, n, n, n, n)), rng.normal(size=(3, n, n))
    want = np.einsum('...ai,...bj,...ck,...dl,...abcd->...ijkl', Js, Js, Js, Js, Rs,
                     optimize=True)
    assert np.abs(pull_back(Rs, Js) - want).max() <= 1e-12 * np.abs(want).max()


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
    # (n^8 for the four-fold curvature rotation); every contraction must be
    # pairwise: each bundled scenario contracts through jets.contract, every
    # spec it runs has two operands, and an einsum, should one run, too
    einsum = np.einsum
    widest, calls, running = {}, {}, [None]

    def counting(*args, **kwargs):
        widest[args[0]] = max(widest.get(args[0], 0), len(args) - 1)
        return einsum(*args, **kwargs)

    def counting_contract(contract):
        def count(spec, x, y):
            calls[running[0]] = calls.get(running[0], 0) + 1
            widest[spec] = max(widest.get(spec, 0), spec.split("->")[0].count(",") + 1)
            return contract(spec, x, y)
        return count
    monkeypatch.setattr(np, "einsum", counting)
    patch_contract(monkeypatch, counting_contract)
    for name in bundled_names():
        running[0] = name
        scn = load_scenario(name)
        scn.count = 2
        run_scenario_obj(scn)
    assert sorted(calls) == sorted(bundled_names()), "a scenario ran no contraction"
    assert {s: k for s, k in widest.items() if k > 2} == {}


def _float_specs():
    """Every spec that src/ or the test oracles (tests/paper_claims.py) pass
    to contract as a literal."""
    specs = set()
    paths = [os.path.join(SRC, name) for name in sorted(os.listdir(SRC)) if name.endswith(".py")]
    for path in paths + [os.path.join(TESTS, "paper_claims.py")]:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
            specs |= {node.args[0].value for node in ast.walk(tree)
                      if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "contract"
                      and isinstance(node.args[0], ast.Constant)}
    return sorted(specs)


# jeinsum builds the product rule's specs rather than naming them as
# literals; its Hessian terms of a matrix product A_ik B_kj of two
# second-order jets put both derivative axes on one operand or one on each
MATMUL_HESSIAN_SPECS = sorted(s for row in _specs("ik,kj->ij", True, True)
                              for s in row if s.endswith("MP"))
FLOAT_SPECS = sorted(set(_float_specs()) | set(MATMUL_HESSIAN_SPECS))


def test_the_float_layer_names_its_specs():
    # the AST walk behind the spec oracle below finds the float layer's specs
    # and jinv's: an empty walk would leave that oracle no cases, passing
    # vacuously
    assert len(_float_specs()) >= 20
    assert MATMUL_HESSIAN_SPECS == ["Zik,ZkjMP->ZijMP", "ZikM,ZkjP->ZijMP", "ZikMP,Zkj->ZijMP"]
    assert {"Zlim,Zmjk->Zlijk", "Zil,Zijkl->Zjk", "Zij,Zij->Z", "Zij,Zj->Zi",
            "Zik,ZkjM->ZijM", "ZikM,Zkj->ZijM"} <= set(_float_specs())


@pytest.mark.parametrize("batch", [(5, 5), None, (1, 5), (5, 1)],
                         ids=["batched", "unbatched", "x-of-one", "y-of-one"])
@pytest.mark.parametrize("spec", FLOAT_SPECS)
def test_float_contractions_match_einsum(spec, batch):
    # each letter gets a random size; the batch letter Z is 5 on both
    # operands, left out of the spec, or 1 on one operand, which broadcasts
    rng = np.random.default_rng(900 + FLOAT_SPECS.index(spec))
    if batch is None:
        spec = spec.replace("Z", "")
    ins = spec.split("->")[0].split(",")
    size = {c: int(rng.integers(1, 7)) for c in "".join(ins)}
    x, y = (rng.normal(size=[batch[k] if c == "Z" else size[c] for c in s])
            for k, s in enumerate(ins))
    got, want = contract(spec, x, y), np.einsum(spec, x, y)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-13 * np.einsum(spec, np.abs(x), np.abs(y)))


def _close(got, want):
    return np.abs(got - want).max() <= 1e-13 * max(np.abs(want).max(), 1.0)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_curvature_matches_its_einsum_formula(n):
    # Rup = T - T with i and j swapped, and its contractions, against the
    # four einsums and three contractions it replaced
    rng = np.random.default_rng(600 + n)
    gv, gi = rng.normal(size=(2, 3, n, n))
    Gam, dGam = rng.normal(size=(3, n, n, n)), rng.normal(size=(3, n, n, n, n))
    Rup = (np.einsum('...ljki->...lijk', dGam) - np.einsum('...likj->...lijk', dGam)
           + np.einsum('...lim,...mjk->...lijk', Gam, Gam)
           - np.einsum('...ljm,...mik->...lijk', Gam, Gam))
    Rlow = np.einsum('...lm,...mijk->...ijkl', gv, Rup)
    Ric = np.einsum('...il,...ijkl->...jk', gi, Rlow)
    scal = np.einsum('...jk,...jk->...', gi, Ric)
    got = curvature_from_parts(gv, Gam, dGam, gi)
    for g, w in zip(got, (Rlow, Ric, scal, gi)):
        assert g.shape == w.shape and _close(g, w)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_nijenhuis_and_lie_derivative_match_their_einsum_formulas(n):
    rng = np.random.default_rng(700 + n)
    Jv, Jg = rng.normal(size=(3, n, n)), rng.normal(size=(3, n, n, n))
    Xv, Xg = rng.normal(size=(3, n)), rng.normal(size=(3, n, n))
    N = (np.einsum('...mi,...kjm->...kij', Jv, Jg) - np.einsum('...mj,...kim->...kij', Jv, Jg)
         + np.einsum('...km,...mij->...kij', Jv, Jg) - np.einsum('...km,...mji->...kij', Jv, Jg))
    assert _close(nijenhuis_from_jets(Jv, Jg), N)
    L = (np.einsum('...m,...kjm->...kj', Xv, Jg) - np.einsum('...mj,...km->...kj', Jv, Xg)
         + np.einsum('...km,...mj->...kj', Jv, Xg))
    assert _close(lie_endo_from_jets(Xv, Xg, Jv, Jg), L)


@pytest.mark.parametrize("lead", [(), (3,)])
def test_wedge12_matches_its_einsum_formula(lead):
    # three outer products became one broadcast and two transposes; an
    # unbatched theta against a batch of forms is how lee_form_of_I0 calls it
    rng = np.random.default_rng(800 + len(lead))
    theta, om = rng.normal(size=lead + (6,)), rng.normal(size=(3, 6, 6))
    want = (np.einsum('...i,...jk->...ijk', theta, om) - np.einsum('...j,...ik->...ijk', theta, om)
            + np.einsum('...k,...ij->...ijk', theta, om))
    got = wedge12(theta, om)
    assert got.shape == want.shape and np.array_equal(got, want)
