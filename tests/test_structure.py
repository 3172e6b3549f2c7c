"""Structural guards: where the library walks a sample plan, that every jet has
a batch axis, that the library contracts only through jets.contract (no
einsum anywhere in src/) and jet_dcoord is first order, that per-point
functions take a PointEval with no raw-point adapter beside it, that the
PointEval is the point's one object, how often each case seeds, that a build
seeds first order only and builds only the chain levels it reads, that a
constant is a plain number or array with no jet constructor beside it and a
Field only its callable and label, that a field read is its jet with a
Hessian read only through jet_dcoord (and the raw-coordinate metric read),
that each matrix is inverted once per point, that a twisted metric runs no
J field, that one Fold per check, holding arrays, is the one aggregator and
its replay the one per-point walk,
that each builder declares each parameter once, with its default and its
reader, and each check once, in the call that makes it, that thresholds no
caller sets are module constants and not parameters, that no builder takes
an alpha or an expected verdict, that each jet rule is
written once (one chain rule for the scalar functions, one linear rule, one
product rule for * and jeinsum, one map for the shape-only rules, and the
first-order case decided in the named rule bodies alone), that a Hessian is made symmetric only where it is read, that
the D+ frame is computed once per point, that a built case and its Fields
cannot change, that no module names numpy's random module and no command
imports it, that every function and lambda src/ defines runs in a bundled
command and every key a per-point function returns is read by a check,
that each per-point dict and each twist's |w|^2 runs once per batch, and
the README's library example run as written."""

import ast
import contextlib
import dataclasses
import importlib
import inspect
import io
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from kahlerkit.jets import FirstOrderError, Jet2, SamplePlan, jet_dcoord
import kahlerkit.cli
import kahlerkit.scenarios
import kahlerkit.twist
from kahlerkit.fields import Field, Fold, PointEval, excluded
from kahlerkit.scenarios import (BUILDER_MAP, ScenarioError, build_case, built_case, bundled_names,
                                 load_scenario, make_case, parse_scenario, run_scenario_obj)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "kahlerkit")
TESTS = os.path.join(ROOT, "tests")
README = os.path.join(ROOT, "README.md")


def _modules(folder=SRC):
    """(file name, parsed tree) of each Python file in folder."""
    for name in sorted(os.listdir(folder)):
        if name.endswith(".py"):
            with open(os.path.join(folder, name), encoding="utf-8") as fh:
                yield name, ast.parse(fh.read())


def test_only_the_runner_and_the_alpha_guard_walk_a_sample_plan():
    # each claim is one per-point function, folded over a plan's samples by
    # the scenario runner alone; build_calabi checks its alpha at a few base
    # points.  A plan-level wrapper beside them would be one more entry point
    # to move to point-batched evaluation
    walkers = set()
    for name, tree in _modules():
        for top in tree.body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "samples"):
                    walkers.add("%s.%s" % (name[:-3], getattr(top, "name", "<module>")))
    assert walkers == {"scenarios.run_scenario_obj", "calabi.build_calabi"}


def _batch_name(node):
    return ((isinstance(node, ast.Name) and node.id == "batch")
            or (isinstance(node, ast.Attribute) and node.attr == "batch"))


def test_one_jet_layout_every_jet_has_a_batch_axis():
    # a point is a batch of one: no module keeps a second, unbatched layout
    # behind a flag or a batch of None
    found = []
    for name, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "batched":
                found.append("%s:%d reads .batched" % (name, node.lineno))
            if isinstance(node, ast.Compare):
                sides = [node.left] + node.comparators
                if (any(_batch_name(s) for s in sides)
                        and any(isinstance(s, ast.Constant) and s.value is None for s in sides)):
                    found.append("%s:%d compares batch with None" % (name, node.lineno))
    assert found == []
    assert Jet2.__slots__ == ("value", "grad", "_hess")
    x = Jet2.seed(np.array([0.1, 0.2, 0.3]))
    assert x.value.shape == (1, 3) and x.grad.shape == (1, 3, 3) and x.hess.shape == (1, 3, 3, 3)
    assert x.shape == (3,) and len(x) == 3
    # a Hessian given to the constructor is read back bit for bit
    h = np.random.default_rng(5).normal(size=(2, 3, 3))
    h = h + h.swapaxes(-1, -2)
    assert Jet2(np.zeros(2), np.zeros((2, 3)), h).hess.tobytes() == h.tobytes()


def test_jets_contract_only_through_contract_and_dcoord_is_first_order():
    # jets.contract (one batched matmul on a cached plan) is the library's one
    # contraction routine, for jets and floats alike: an einsum anywhere in
    # src/, called, read as an attribute or imported, would be a second path
    found = ["%s:%d" % (name, node.lineno) for name, tree in _modules()
             for node in ast.walk(tree)
             if (isinstance(node, ast.Attribute) and node.attr == "einsum")
             or (isinstance(node, ast.Name) and node.id == "einsum")
             or (isinstance(node, ast.alias) and "einsum" in (node.name.rsplit(".", 1)[-1],
                                                              node.asname))]
    assert found == []
    # jet_dcoord carries no Hessian array, and reading its Hessian raises
    x = Jet2.seed(np.array([0.1, 0.2, 0.3]))
    du = jet_dcoord(x[0] * x[1] * x[2])
    assert du._hess is None and du.grad.shape == (1, 3, 3)
    with pytest.raises(FirstOrderError):
        du.hess


# the rule bodies of jets.py that decide the first-order case: the shape-only
# map, the chain rule, the linear rule, the products, the constant lift, the
# stack, and the Jet2 constructor and its Hessian read (the products *,
# jeinsum and an integral power run on the one product rule, _product; the
# inverse is always first order)
FIRST_ORDER_BODIES = {"_map", "_chain", "_linear", "_product", "_lift", "pack",
                      "__init__", "hess"}
# the jets.py name compared with None that is not a Hessian: the point a
# constant is lifted at
NOT_A_HESSIAN = {"like"}
# the rules that build a jet from its arrays: every other rule calls them
JET_BUILDERS = {"_map", "_chain", "_linear", "_product", "seed", "jinv", "jet_dcoord", "_lift",
                "pack"}
SCALAR_RULES = {"inv", "jlog", "jsin"}


def _calls(fn):
    """The names of the functions fn calls by name or as an attribute."""
    return {getattr(node.func, "id", getattr(node.func, "attr", None))
            for node in ast.walk(fn) if isinstance(node, ast.Call)}


def test_each_jet_rule_is_written_once():
    # one chain rule f' du, f' d2u + f'' du du^T carries every scalar
    # function, one linear rule + and -, and one map the rules that act on
    # the value axes alone; so the first-order case (hess None) is decided
    # in a handful of bodies, where a lazy Hessian would put its thunk
    tree = dict(_modules())["jets.py"]
    funcs = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    none_tests = set()
    for fn in funcs:
        for node in ast.walk(fn):
            if (isinstance(node, ast.Compare) and isinstance(node.ops[0], (ast.Is, ast.IsNot))
                    and isinstance(node.comparators[0], ast.Constant)
                    and node.comparators[0].value is None):
                none_tests.add((fn.name, node.lineno, getattr(node.left, "id", None)))
    # every listed name is live: a deleted rule left in a list would pass the
    # subset checks below vacuously
    assert FIRST_ORDER_BODIES | JET_BUILDERS | SCALAR_RULES <= {fn.name for fn in funcs}
    assert NOT_A_HESSIAN <= {left for _, _, left in none_tests}
    none_tests = {(name, line) for name, line, left in none_tests if left not in NOT_A_HESSIAN}
    assert {name for name, _ in none_tests} <= FIRST_ORDER_BODIES
    assert len({line for _, line in none_tests}) <= 8
    assert {fn.name for fn in funcs if "_outer" in _calls(fn)} == {"_chain"}
    assert {fn.name for fn in funcs if "_jet" in _calls(fn)} <= JET_BUILDERS
    # * and jeinsum are _product with their own multiplication: neither reads
    # a Hessian slot or a known-zero state
    products = [fn for fn in funcs if "_product" in _calls(fn)]
    assert sorted(fn.name for fn in products) == ["__mul__", "jeinsum"]
    assert not [node for fn in products for node in ast.walk(fn)
                if getattr(node, "attr", None) == "_hess"
                or getattr(node, "id", None) in ("AFFINE", "CONSTANT", "Zero")]
    # a scalar function's derivatives reach a jet only through the chain rule
    elementary = {"exp", "log", "sin", "cos", "tan", "sqrt", "power"}
    assert {fn.name for fn in funcs if _calls(fn) & elementary} <= SCALAR_RULES
    assert all("_chain" in _calls(fn) for fn in funcs if fn.name in SCALAR_RULES)
    # a power is a product of its base (or of 1/base): integral only, it
    # has no chain rule of its own
    power = next(fn for fn in funcs if fn.name == "__pow__")
    assert "reduce" in _calls(power) and not _calls(power) & (elementary | {"_chain"})


def test_a_hessian_is_made_symmetric_once_where_it_is_read():
    # the slot holds half a Hessian, K, and the Hessian read forms K + K^T:
    # a swapaxes anywhere else in jets.py would be a second symmetrization
    tree = dict(_modules())["jets.py"]
    where = {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
             for node in ast.walk(fn) if getattr(node, "attr", None) == "swapaxes"}
    count = sum(getattr(node, "attr", None) == "swapaxes" for node in ast.walk(tree))
    assert where == {"hess"} and count == 1


# One-point accessors that re-wrapped a *_from_jets function, and the error
# classes only they raised: each was a second way in beside PointEval; and
# the constant jet constructor with its coordinate count, a second way to
# write a constant beside a plain number or array
CONSTANT_BUILDERS = {"jconst", "jsize"}
DELETED = {"fundamental_form", "split_fundamental", "ddc", "nijenhuis",
           "exterior_derivative", "CompatibilityError", "AlmostComplexError"} | CONSTANT_BUILDERS
# a second way to an alpha disk_base already supplies: the homotopy integral
# of the base form, its quadrature and the form field it integrated
DELETED |= {"homotopy_primitive", "gauss_integrate", "fundamental_form_field"}
# capabilities no command ran, deleted with the tests that exercised only
# them: the Mobius map, a Lie derivative that foliation.theta_jets restates,
# the triples tests build inline, the profile's H forms of closed-form Lee
# data, the jet rules no field used, and a one-line Ricci-form helper; and
# the paper-claim oracles that moved to tests/paper_claims.py
DELETED |= {"mobius", "mobius_inv", "lie_derivative_metric", "triple_I", "triple_tilde",
            "H", "H_prime", "lee_dr_coefficient", "lee_norm_sq",
            "jexp", "jcos", "jtan", "jsqrt", "ricci_form_from_jets",
            "lee_form_of_I0", "solve_single_twist", "rescale_biaxial",
            "RESCALE_T_SAMPLES", "RESCALE_TOL"}
# the structure equations of the holomorphic verdict, which no verdict read,
# moved to tests/paper_claims.py with the helpers only they used; the D+
# frame's memo went with its second reader
DELETED |= {"structure_point", "least_squares", "lie_endo_from_jets", "wedge12", "_frame"}
# a second known-zero Hessian state beside AFFINE, and the rule that let a
# constant jet act by its value: a constant is an affine jet with a zero
# gradient
DELETED |= {"CONSTANT", "_by_value"}


def _names(node):
    """The names node defines, binds, imports or reads."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.alias):
        return [node.name.rsplit(".", 1)[-1], node.asname]
    if isinstance(node, ast.arg):
        return [node.arg]
    return []


def test_per_point_functions_take_a_point_eval_with_no_adapter():
    # every per-point function takes a PointEval; a raw-point adapter at(),
    # or an accessor that wraps one, would be a second entry beside it
    found = []
    for name, tree in _modules():
        for node in ast.walk(tree):
            for ident in _names(node):
                if ident == "at":
                    found.append("%s:%d defines, binds or calls at" % (name, node.lineno))
                elif ident in DELETED:
                    found.append("%s:%d names %s" % (name, getattr(node, "lineno", 0), ident))
    assert found == []


def test_a_constant_is_a_plain_value_and_a_field_its_callable_and_label():
    # pack lifts a number or array at the point it is read; no module or
    # test builds a constant jet beside it, from a coordinate count or
    # otherwise, and a Field holds nothing that nothing reads
    found = []
    for folder in (SRC, TESTS):
        for name, tree in _modules(folder):
            for node in ast.walk(tree):
                if (set(_names(node)) & CONSTANT_BUILDERS
                        or isinstance(node, ast.Attribute) and node.attr == "const"):
                    found.append("%s:%d" % (name, getattr(node, "lineno", 0)))
    assert found == []
    assert not hasattr(Jet2, "const")
    assert list(inspect.signature(Field.__init__).parameters) == ["self", "fn", "label", "order"]
    f = Field(lambda pt: 1.0)
    assert not hasattr(f, "chart") and not hasattr(f, "degree")


# Names that only re-stated what their readers already held: the classifier's
# report dataclass (the fold's keys renamed), a second twist guard beside the
# |w|^2 field's, and an alias of disk_base(0)
RESTATED = {"FoliationReport", "validate_twist", "flat_base"}

# The functions that read a Hessian: d_k u as a first-order jet, the one
# way second derivatives reach a formula (the Christoffel symbols, ddc of a
# potential and the derivative of the D+ frame all take it), and the
# raw-coordinate metric read
HESSIAN_READERS = {"fields.metric_jets", "jets.jet_dcoord"}


def _defs(tree):
    """(qualified name, node) of each top-level statement: a function or a
    method by its name, any other statement by its class or <module>."""
    for top in tree.body:
        if isinstance(top, ast.ClassDef):
            for node in top.body:
                yield "%s.%s" % (top.name, getattr(node, "name", "<body>")), node
        else:
            yield getattr(top, "name", "<module>"), top


def test_a_field_read_is_its_jet_and_a_hessian_is_read_where_a_formula_needs_one():
    # pe.raw(f), the memoised jet, is the one read of a field at a point, and
    # a reader takes .value, .grad or .hess from it: a tuple accessor beside
    # it read every Hessian, needed or not
    assert not hasattr(PointEval, "jets")
    found = []
    for folder in (SRC, TESTS):
        for name, tree in _modules(folder):
            for node in ast.walk(tree):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "jets"):
                    found.append("%s:%d calls .jets()" % (name, node.lineno))
                elif set(_names(node)) & RESTATED:
                    found.append("%s:%d names %s" % (name, getattr(node, "lineno", 0),
                                                     set(_names(node)) & RESTATED))
    assert found == []
    readers = {"%s.%s" % (name[:-3], qual)
               for name, tree in _modules() for qual, fn in _defs(tree)
               for node in ast.walk(fn)
               if isinstance(node, ast.Attribute) and node.attr == "hess"
               and isinstance(node.ctx, ast.Load)}
    assert readers == HESSIAN_READERS


def test_one_point_object_point_eval_is_the_coordinate_jet():
    # a point is one PointEval, a Jet2 of its coordinates holding its memo:
    # a Point class beside it, or a .x attribute reaching one, would be a
    # second object and a second field read
    found = []
    for name, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, (ast.ClassDef, ast.alias)) and "Point" in _names(node):
                found.append("%s:%d defines or imports Point" % (name, getattr(node, "lineno", 0)))
            if isinstance(node, ast.Attribute) and node.attr == "x":
                found.append("%s:%d reads .x" % (name, node.lineno))
    assert found == []
    assert issubclass(PointEval, Jet2)
    pe = PointEval([0.1, 0.2, 0.3])
    assert np.array_equal(pe.value, pe.p) and pe.grad.shape == (1, 3, 3)


# The aggregator's second and third ways: a per-point loop beside the
# array fold, and a record that merged the per-level folds of a chain again
AGGREGATORS = {"_keep", "_levels_record"}


def _python_events(fn):
    """The number of Python and builtin calls that fn() makes."""
    events = []
    sys.setprofile(lambda frame, event, arg: events.append(event))
    try:
        fn()
    finally:
        sys.setprofile(None)
    return len(events)


def test_one_aggregator_one_fold_per_check_holding_arrays(monkeypatch):
    # a check folds into one Fold, which keeps each residual name's values
    # as one array: only the replay of a failing batch walks its points
    found = []
    for folder in (SRC, TESTS):
        for name, tree in _modules(folder):
            for node in ast.walk(tree):
                if set(_names(node)) & AGGREGATORS:
                    found.append("%s:%d names %s" % (name, getattr(node, "lineno", 0),
                                                     set(_names(node)) & AGGREGATORS))
    assert found == []
    tree = dict(_modules())["fields.py"]
    walkers = {qual for qual, fn in _defs(tree) if qual.startswith("Fold.")
               for node in ast.walk(fn) if isinstance(node, (ast.For, ast.comprehension))
               for sub in ast.walk(node.iter)
               if isinstance(sub, ast.Attribute) and sub.attr == "p"}
    assert walkers == {"Fold._replay"}
    # nor does a per-point solve beside it: the least-squares fits run on
    # the batch
    solves = ["%s:%d" % (name, node.lineno) for name, tree in _modules()
              for node in ast.walk(tree) if "lstsq" in _names(node)]
    assert solves == []

    # folding a batch makes as many calls for 300 points as for 3
    def fold(batch):
        pe = PointEval(np.linspace(-1.0, 1.0, 2 * batch).reshape(batch, 2))
        acc = Fold()
        return lambda: acc.add(pe, lambda pe: {"a": pe.p[:, 0],
                                               "b": excluded(pe.p[:, 1] > 0.5, pe.p[:, 1])})
    fold(3)()
    assert _python_events(fold(3)) == _python_events(fold(300))

    # the runner makes one Fold per check, a chain check's levels included
    made = []

    class Counting(Fold):
        def __init__(self):
            super().__init__()
            made.append(self)
    monkeypatch.setattr(kahlerkit.scenarios, "Fold", Counting)
    scn = load_scenario("calabi_chain_twisted")
    scn.count = 2
    case = build_case(scn)
    assert max(len(ck.parts) for ck in case.checks) == 3
    run_scenario_obj(scn, case=case)
    assert len(made) == len(case.checks)
    assert all(isinstance(v, np.ndarray) for acc in made for v in acc.values.values())


def test_readme_library_example_runs():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text[text.index("## Library example"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    scope = {}
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), scope)
    assert out.getvalue().startswith("True ")
    assert set(scope["residuals"]) == {"compatible", "closed", "integrable"}


BUNDLED = ["flat", "sphere", "calabi_flat", "calabi_twist_zeta", "calabi_chain_untwisted",
           "calabi_chain_twisted", "ak_flat", "ak_disk", "ak_disk_chain2"]


@pytest.mark.parametrize("name", BUNDLED)
def test_batched_cases_seed_each_chart_once_per_plan(name, monkeypatch):
    # every case evaluates a chart's whole sample plan as one batch: one
    # seeding per chart (per level chart of a chain), whatever the sample count
    scn = load_scenario(name)
    case = build_case(scn)
    seeds = []
    seed = Jet2.seed

    def counting(p):
        seeds.append(np.shape(p))
        return seed(p)
    monkeypatch.setattr(Jet2, "seed", staticmethod(counting))
    run_scenario_obj(scn, case=case)
    charts = []
    for ck in case.checks:
        for chart, _ in ck.parts:
            if all(chart is not seen for seen in charts):
                charts.append(chart)
    assert len(charts) == (3 if name == "calabi_chain_twisted" else
                           2 if name == "calabi_chain_untwisted" else 1)
    assert seeds == [(scn.count, chart.dim) for chart in charts]


@pytest.mark.parametrize("name", [n for n in BUNDLED if n.startswith("calabi")])
def test_each_matrix_is_inverted_once_per_point(name, monkeypatch):
    # the Christoffel symbols read the point's memoised inverse, so no stack
    # (a metric's value stack above all) reaches np.linalg.inv twice in a run;
    # a float inverse beside jinv's inverted every metric a second time where
    # a check reads both, as the Calabi checks do
    scn = load_scenario(name)
    case = build_case(scn)
    seen = []
    inv = np.linalg.inv

    def recording(a):
        seen.append((a.shape, a.tobytes()))
        return inv(a)
    monkeypatch.setattr(np.linalg, "inv", recording)
    run_scenario_obj(scn, case=case)
    assert seen
    twice = sorted({shape for shape, data in seen if seen.count((shape, data)) > 1})
    assert twice == []


@pytest.mark.parametrize("name", [n for n in BUNDLED if n.startswith("calabi")])
def test_the_d_plus_frame_is_computed_once_per_point(name, monkeypatch):
    # the Lee-form extraction, which runs once per point, is the frame's one
    # reader: the column pick runs once per batch
    import kahlerkit.foliation as fol
    calls = []
    frame_columns = fol._frame_columns

    def counting(Pv, *args):
        calls.append(len(Pv))
        return frame_columns(Pv, *args)
    monkeypatch.setattr(fol, "_frame_columns", counting)
    scn = load_scenario(name)
    run_scenario_obj(scn, case=build_case(scn))
    assert calls == [scn.count]


@pytest.mark.parametrize("name", ["calabi_chain_twisted", "ak_disk_chain2"])
def test_a_twisted_metric_runs_no_complex_structure(name):
    # the twist reads its builder's coframe, not J: a read of the case
    # metric runs no J field (a chart's Jfn, a twisted E_w's Ewfn) at any
    # level, while the scenario's checks, which read J, run both
    scn = load_scenario(name)
    case = build_case(scn)
    seen = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name in ("Jfn", "Ewfn"):
            seen.add(frame.f_code.co_name)

    def runs(fn):
        seen.clear()
        sys.setprofile(profile)
        try:
            fn()
        finally:
            sys.setprofile(None)
        return sorted(seen)
    p = case.chart.samples(SamplePlan(scn.seed, scn.count, scn.margin))
    assert runs(lambda: PointEval(p).raw(case.metric)) == []
    assert runs(lambda: run_scenario_obj(scn, case=case)) == ["Ewfn", "Jfn"]


@pytest.mark.parametrize("name", BUNDLED)
def test_builds_seed_first_order_points_only(name, unbuilt, monkeypatch):
    # every check a builder runs (the alpha guard, the Killing probe of the
    # twist) reads values and gradients only: each point seeded while the
    # case is built is a first-order PointEval, so no field computes a
    # Hessian there
    seeds, points = [], []
    seed, init = Jet2.seed, PointEval.__init__

    def seeding(p):
        seeds.append(seed(p))
        return seeds[-1]

    def making(self, p, jet=None):
        init(self, p, jet)
        points.append(self)
    monkeypatch.setattr(Jet2, "seed", staticmethod(seeding))
    monkeypatch.setattr(PointEval, "__init__", making)
    build_case(load_scenario(name))
    assert [pe for pe in points if pe._hess is not None] == []
    # each seeded jet is the coordinate jet of such a point
    assert all(any(pe.value is j.value for pe in points) for j in seeds)
    assert len(seeds) == {"calabi_flat": 1, "calabi_twist_zeta": 1,
                          "calabi_chain_untwisted": 1, "calabi_chain_twisted": 2,
                          "ak_flat": 1, "ak_disk": 1, "ak_disk_chain2": 2}.get(name, 0)


@pytest.mark.parametrize("name, builds", [("calabi_chain_untwisted", 1),
                                          ("calabi_chain_twisted", 2),
                                          ("ak_disk_chain2", 1)])
def test_a_chain_builds_only_the_levels_its_case_reads(name, builds, unbuilt, monkeypatch):
    # ak_disk_chain2 reads level 1 of a chain of height 2: the chain stops
    # there, and the level above it is never built
    import kahlerkit.almost_kahler as ak
    calls = []
    build = ak.build_calabi

    def counting(*args, **kw):
        calls.append(1)
        return build(*args, **kw)
    monkeypatch.setattr(ak, "build_calabi", counting)
    build_case(load_scenario(name))
    assert len(calls) == builds


def _counting_builds(monkeypatch, builder):
    """The list that gets one entry each time builder's make runs."""
    entry, runs = BUILDER_MAP[builder], []
    make = entry.make

    def counting(params):
        runs.append(params)
        return make(params)
    monkeypatch.setattr(entry, "make", counting)
    return runs


def _scenario(builder, params):
    return parse_scenario({"name": "memo", "builder": builder, "params": params})


def test_a_case_is_built_once_per_builder_and_params(unbuilt, monkeypatch):
    # a case depends only on its builder and read params: a second query of
    # the same scenario reads the first build, chart chain and all
    runs = _counting_builds(monkeypatch, "calabi_chain")
    scn = load_scenario("calabi_chain_twisted")
    first, second = build_case(scn), build_case(scn)
    assert len(runs) == 1
    assert second.chart is first.chart and second.metric is first.metric
    assert [ck.name for ck in second.checks] == [ck.name for ck in first.checks]


def test_params_that_read_alike_share_one_build(unbuilt, monkeypatch):
    # the memo is keyed on the values the readers return: "k": 1 and 1.0,
    # and a default and the same value written out, are one build
    runs = _counting_builds(monkeypatch, "ak_product")
    cases = [build_case(_scenario("ak_product", params))
             for params in ({"z": "disk", "k": 1}, {"z": "disk", "k": 1.0}, {"z": "disk"})]
    assert len(runs) == 1
    assert all(case.chart is cases[0].chart for case in cases)
    # 0.0 and -0.0 compare equal, but a const twist prints them apart
    zero, minus_zero = (build_case(_scenario("ak_product", {"twist": {"id": "const",
                                                                      "c": [c, 0.0]}}))
                        for c in (0.0, -0.0))
    assert len(runs) == 3
    assert "const(0,0)" in zero.label and "const(-0,0)" in minus_zero.label


def test_a_build_that_raises_is_not_kept(unbuilt, monkeypatch):
    # a rejected build raises each time it is asked for, running its builder
    # again; a build that succeeds is kept
    runs = _counting_builds(monkeypatch, "flat")
    for _ in range(2):
        with pytest.raises(ScenarioError, match="flat builder needs dim in 2..12"):
            build_case(_scenario("flat", {"dim": 13}))
    assert len(runs) == 2
    for _ in range(2):
        build_case(_scenario("flat", {"dim": 12}))
    assert len(runs) == 3


def test_a_filtered_case_is_a_copy_of_the_kept_one(unbuilt):
    # ak_flat reads the ak_product defaults that list-builders builds, so the
    # two share one kept case; build_case drops the checks its params do not
    # run from a copy, and list-builders still prints every declared check
    cases = {name: build_case(load_scenario(name))
             for name in ("ak_disk", "ak_flat", "calabi_chain_untwisted")}
    kept = make_case(BUILDER_MAP["ak_product"], {})
    assert kept.chart is cases["ak_flat"].chart
    assert "ricci_form_fiber_log" not in [ck.name for ck in cases["ak_flat"].checks]
    assert "ricci_form_fiber_log" in [ck.name for ck in kept.checks]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert kahlerkit.cli.main(["list-builders"]) == 0
    listed = dict(re.findall(r"^(\w+)\n  summary:.*\n  params:.*\n  checks:  (.*)$",
                             out.getvalue(), re.M))
    assert "ricci_form_fiber_log" in listed["ak_product"].split(", ")
    assert "ker_dw_geodesic" in listed["calabi_chain"].split(", ")


def test_a_built_case_cannot_change():
    # one case is shared by every build of its params, so neither it nor
    # its checks take an assignment
    case = build_case(load_scenario("flat"))
    with pytest.raises(dataclasses.FrozenInstanceError):
        case.checks = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        case.checks[0].parts = ()
    assert isinstance(case.checks, tuple)
    assert all(isinstance(ck.parts, tuple) for ck in case.checks)


def test_a_built_field_cannot_change():
    # nor can the Fields a shared case holds: an assignment to one would
    # rewrite every later build of its params
    case = build_case(load_scenario("flat"))
    metric, fn, label = case.metric, case.metric.fn, case.metric.label
    kept = built_case.cache_info().currsize
    with pytest.raises(AttributeError):
        case.metric.fn = lambda pt: 2.0 * np.eye(3)
    with pytest.raises(AttributeError):
        case.metric.label = "scaled"
    with pytest.raises(AttributeError):
        del case.metric.fn
    with pytest.raises(AttributeError):
        case.metric.chart = case.chart
    again = build_case(load_scenario("flat"))
    assert again.metric is metric and metric.fn is fn and metric.label == label
    assert built_case.cache_info().currsize == kept
    # equality stays identity
    assert Field(fn) != Field(fn) and metric == metric


# numpy's random module, named in code or in a comment
NUMPY_RANDOM = re.compile(r"\b(np|numpy)\.random\b")


def test_no_module_names_numpys_random_module():
    # the sample points come from jets.uniform_draw, numpy's SeedSequence and
    # Philox written out: no file of the package names the module that holds
    # them (tests compare against it)
    found = []
    for folder, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            with open(os.path.join(folder, name), encoding="utf-8", errors="replace") as fh:
                found += ["%s:%d" % (name, i) for i, line in enumerate(fh, 1)
                          if NUMPY_RANDOM.search(line)]
    assert found == []


# every bundled verify, one curvature query and the builder listing, in one
# fresh process, which then reports whether numpy's random module was loaded
NO_RANDOM_SCRIPT = """
import contextlib, io, json, sys
from kahlerkit.cli import main
from kahlerkit.scenarios import bundled_names
with contextlib.redirect_stdout(io.StringIO()):
    rcs = {name: main(["verify", name]) for name in bundled_names()}
    rcs["curvature"] = main(["curvature", "sphere", "--point", "1.0, 0.5"])
    rcs["list-builders"] = main(["list-builders"])
print(json.dumps({"rcs": rcs, "loaded": "numpy.random" in sys.modules}))
"""


def test_a_fresh_process_never_imports_numpys_random_module():
    # pytest's own process has imported it, so the commands run in a child
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", NO_RANDOM_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["loaded"] is False
    # each verify ran to its report: ak_disk_chain2 fails two checks
    assert out["rcs"] == dict(dict.fromkeys(bundled_names(), 0), ak_disk_chain2=1,
                              curvature=0, **{"list-builders": 0})


# every bundled verify (the first with --out), the builder listing and a
# curvature query at each bundled chart's centre, in one fresh process under
# a profiler, which then reports the (file, first line) of each code object
# of src/ that was entered, and the exit codes.  The centres are computed
# with the profiler off; the cases they build were built by verify already
TRACE_SCRIPT = """
import contextlib, io, json, os, sys
src, out = sys.argv[1], sys.argv[2]
entered = set()

def profile(frame, event, arg):
    if event == "call" and frame.f_code.co_filename.startswith(src):
        entered.add((os.path.basename(frame.f_code.co_filename), frame.f_code.co_firstlineno))

sys.setprofile(profile)
from kahlerkit.cli import main
from kahlerkit.scenarios import build_case, bundled_names, load_scenario
with contextlib.redirect_stdout(io.StringIO()):
    names = bundled_names()
    rcs = {name: main(["verify", name] + (["--out", out] if i == 0 else []))
           for i, name in enumerate(names)}
    rcs["list-builders"] = main(["list-builders"])
    sys.setprofile(None)
    centres = [",".join(map(repr, build_case(load_scenario(name)).chart.center().tolist()))
               for name in names]
    sys.setprofile(profile)
    for name, c in zip(names, centres):
        rcs["curvature " + name] = main(["curvature", name, "--point=" + c])
sys.setprofile(None)
print(json.dumps({"rcs": rcs, "entered": sorted(entered)}))
"""

# The functions of src/ that no bundled command enters, each for a reason:
# a batch is replayed point by point only when it fails, and no bundled
# batch raises or yields a NaN; the reprs serve debugging; a Field refuses
# to be changed, which no command tries; perfbench's tracer wraps every
# Jet2 operator by name, __truediv__ included; and no bundled field adds a
# constant of a wider shape to a jet, which Jet2._linear broadcasts the jet
# for (test_jets::test_constant_operands_act_on_the_value and
# test_batched::test_every_rule_on_a_batch_equals_the_rule_at_each_point
# fail where it raises)
NOT_ENTERED = {"fields.Fold._replay", "fields.ChartManifold.__repr__", "jets.Jet2.__repr__",
               "jets.SamplePlan.__repr__", "fields.Field.__setattr__",
               "fields.Field.__delattr__", "jets.Jet2.__truediv__",
               "jets.Jet2._linear.<lambda>#1"}


def _functions(tree, prefix="", lambdas=None):
    """(qualified name, first line of its code object) of each function
    defined in tree, nested ones included: a decorated function's code
    starts at its first decorator, and a lambda at its line.  A lambda is
    named <lambda>#k, the k-th lambda of its enclosing function in the
    syntax tree's order, so an edit elsewhere in the file does not rename
    it."""
    lambdas = {} if lambdas is None else lambdas
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, min([node.lineno] + [d.lineno for d in node.decorator_list])
            yield from _functions(node, prefix + node.name + ".", lambdas)
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node, prefix + node.name + ".", lambdas)
        elif isinstance(node, ast.Lambda):
            lambdas[prefix] = k = lambdas.get(prefix, 0) + 1
            name = "%s<lambda>#%d" % (prefix, k)
            yield name, node.lineno
            yield from _functions(node, name + ".", lambdas)
        else:
            yield from _functions(node, prefix, lambdas)


def test_every_src_function_runs_in_a_bundled_command(tmp_path):
    # src/ holds what a command runs: a function that only tests call is a
    # test oracle (tests/paper_claims.py) or dead code.  A fresh process,
    # as the in-process case memo would skip the builders' bodies
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", TRACE_SCRIPT, SRC + os.sep,
                           str(tmp_path / "report.json")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    names = bundled_names()
    assert out["rcs"] == dict(dict.fromkeys(names, 0), ak_disk_chain2=1,
                              **{"list-builders": 0},
                              **{"curvature " + name: 0 for name in names})
    entered = {tuple(e) for e in out["entered"]}
    defined = {name[:-3] + "." + qual: (name, line)
               for name, tree in _modules() for qual, line in _functions(tree)}
    assert sorted(q for q, key in defined.items() if key not in entered) == sorted(NOT_ENTERED)


# The per-point functions that return a dict of residuals by name, as the
# scenario checks call them
DICT_POINTS = ("kahler_point", "homothetic_point", "classify_point", "ak_invariants_point",
               "ak3_point", "torsion_point", "einstein_point", "volume_checks")


class _Reads(dict):
    """A dict that adds each name read from it to seen.  items() is not a
    read: a Fold takes a dict whole through it, and what the fold keeps is
    read where a record reads it from the fold."""

    def __init__(self, data, seen):
        super().__init__(data)
        self.seen = seen

    def __getitem__(self, key):
        self.seen.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.seen.add(key)
        return super().get(key, default)

    def values(self):
        self.seen.update(self)
        return super().values()


class _FoldReads:
    """A fold whose reads by name (max, mean, used, excluded) add the name to
    seen."""

    def __init__(self, fold, seen):
        self.fold, self.seen = fold, seen
        self.excluded = _Reads(fold.excluded, seen)

    def __getattr__(self, name):
        attr = getattr(self.fold, name)
        if name not in ("max", "mean", "used"):
            return attr

        def read(key=None):
            self.seen.add(key)
            return attr(key)
        return read


def test_every_key_a_per_point_function_returns_is_read(unbuilt, monkeypatch):
    # a per-point function returns only what some check reads: the keys of
    # each dict its checks take from it, or from the classifier's fold for
    # foliation_report, over every bundled verify.  A key no check reads is
    # computed at every point for nothing
    returned = {name: set() for name in DICT_POINTS}
    read = {name: set() for name in DICT_POINTS}

    def recording(name, fn):
        def point(*args):
            res = fn(*args)
            returned[name].update(res)
            return _Reads(res, read[name])
        return point
    for name in DICT_POINTS:
        monkeypatch.setattr(kahlerkit.scenarios, name,
                            recording(name, getattr(kahlerkit.scenarios, name)))
    report = kahlerkit.scenarios.foliation_report
    monkeypatch.setattr(kahlerkit.scenarios, "foliation_report",
                        lambda res: report(_FoldReads(res, read["classify_point"])))
    try:
        for name in bundled_names():
            run_scenario_obj(load_scenario(name))
    finally:
        # the cases built here hold the recording functions
        built_case.cache_clear()
    assert all(returned.values()), "a per-point function ran in no bundled verify"
    unread = {name: sorted(returned[name] - read[name]) for name in DICT_POINTS}
    assert unread == dict.fromkeys(DICT_POINTS, [])


# the twists each case makes: a twisted chart's, a plane product's, and
# those of the chain level a product is built over
TWISTS = {"calabi_flat": 0, "calabi_twist_zeta": 1, "ak_flat": 1, "ak_disk_chain2": 2}


@pytest.mark.parametrize("name, twists", sorted(TWISTS.items()))
def test_each_per_point_dict_and_each_twists_norm_runs_once_per_batch(name, twists, unbuilt,
                                                                      monkeypatch):
    # every check of a case that reads a per-point function's dict reads one
    # run of it at each point, and every reader of a twist's |w|^2 (the
    # fields that divide by 1 - |w|^2, transverse holomorphy, the twisted
    # Ricci identity) reads one run of the twist's |w|^2 field: a verify
    # runs the body of each once per chart batch (one batch here)
    runs = dict.fromkeys(DICT_POINTS + ("|w|^2",), 0)

    def counting(key, fn):
        def run(*args):
            runs[key] += 1
            return fn(*args)
        return run
    for key in DICT_POINTS:
        monkeypatch.setattr(kahlerkit.scenarios, key,
                            counting(key, getattr(kahlerkit.scenarios, key)))
    monkeypatch.setattr(kahlerkit.twist, "_norm2", counting("|w|^2", kahlerkit.twist._norm2))
    try:
        report = run_scenario_obj(load_scenario(name))
    finally:
        # the cases built here hold the counting functions
        built_case.cache_clear()
    assert all("error" not in rec for rec in report["checks"])
    assert runs.pop("|w|^2") == twists
    assert set(runs.values()) == {0, 1} and runs["kahler_point"] == (name == "calabi_flat")


READERS = {"number", "integer", "pair", "tolerance", "twist_spec"}


def test_each_builder_declares_each_parameter_once():
    # a parameter's default and its reader sit together in its BuilderEntry,
    # and build_case reads every one before the builder runs; a builder that
    # checked a value itself would be a second declaration, reached only when
    # the case happens to read that value
    tree = dict(_modules())["scenarios.py"]
    banned = READERS | {"one_of", "ScenarioError"}
    found = ["%s:%d names %s" % (fn.name, getattr(node, "lineno", 0),
                                 sorted(set(_names(node)) & banned))
             for fn in tree.body if isinstance(fn, ast.FunctionDef)
             and (fn.name.startswith("_make_") or "params" in [a.arg for a in fn.args.args])
             for node in ast.walk(fn) if set(_names(node)) & banned]
    assert found == []
    assert not hasattr(kahlerkit.scenarios, "_merge_params")
    readers = {getattr(kahlerkit.scenarios, name) for name in READERS}
    for entry in kahlerkit.scenarios.BUILDERS:
        for key, decl in entry.params.items():
            assert isinstance(decl, tuple) and len(decl) == 2, (entry.id, key)
            default, read = decl
            assert read in readers or read.choices, (entry.id, key)
            read(default, key)


# the keyword knobs that only ever took one value, by function; each is a
# module constant now.  make_sfield's ww is gone: |w|^2 is read by the
# fields that divide by 1 - |w|^2, and its own Field is the disc guard
REMOVED_PARAMETERS = {
    "calabi.build_calabi": ("alpha_tol", "check_count"),
    "paper_claims.rescale_biaxial": ("tol", "t_samples"),
    "paper_claims.structure_point": ("skip_theta_below",),
    "almost_kahler.torsion_point": ("dw_floor", "rank_rtol"),
    "foliation.foliation_report": ("tol",),
    "foliation._frame_columns": ("tol",),
    "twist.coordinate_twist": ("label",),
    "twist.make_sfield": ("ww",),
}
# the parameters that every caller passes, so they take no default
REQUIRED_PARAMETERS = {"paper_claims.rescale_biaxial": "profile",
                       "calabi.build_calabi": "alpha"}


def _function(dotted):
    """The function a "module.name" string names: a kahlerkit module's, or the
    test oracles' in paper_claims."""
    module, name = dotted.split(".")
    if module != "paper_claims":
        module = "kahlerkit." + module
    return getattr(importlib.import_module(module), name)


def _declares_a_check(node):
    """Whether node is a check-declaring call: check(name, doc, tol, fn, ...)
    with a literal name and a literal float tolerance."""
    return (isinstance(node, ast.Call) and len(node.args) >= 4
            and isinstance(node.args[0], ast.Constant) and isinstance(node.args[0].value, str)
            and isinstance(node.args[2], ast.Constant) and isinstance(node.args[2].value, float))


def test_each_check_is_declared_once_where_its_builder_makes_it():
    # a check's name, doc, tolerance and residual are one call in its
    # builder's _make_* (the shared _volume_checks counts once); a second
    # list of names beside the builders would drift from them.  list-builders
    # reads the declarations at the default params, and run_scenario_obj
    # keys timings and tolerances by name, so a name declared twice would
    # merge two checks
    from kahlerkit.scenarios import BUILDERS, BuilderEntry, make_case
    assert [f.name for f in dataclasses.fields(BuilderEntry)] == ["id", "summary", "params",
                                                                 "make"]
    names = set()
    for entry in BUILDERS:
        declared = [ck.name for ck in make_case(entry, {}).checks]
        assert len(declared) == len(set(declared)), entry.id
        names |= set(declared)
    tree = dict(_modules())["scenarios.py"]
    declaring = {id(node.args[0]) for node in ast.walk(tree) if _declares_a_check(node)}
    strays, repeats = [], []
    for top in tree.body:
        found = [node for node in ast.walk(top)
                 if isinstance(node, ast.Constant) and node.value in names]
        strays += ["%s:%d" % (node.value, node.lineno) for node in found
                   if id(node) not in declaring]
        values = [node.value for node in found]
        repeats += ["%s in %s" % (v, getattr(top, "name", "<module>"))
                    for v in set(values) if values.count(v) > 1]
    assert strays == [] and repeats == []


@pytest.mark.parametrize("dotted", sorted(REMOVED_PARAMETERS))
def test_thresholds_no_caller_sets_are_not_parameters(dotted):
    params = inspect.signature(_function(dotted)).parameters
    assert set(REMOVED_PARAMETERS[dotted]).isdisjoint(params), dotted


@pytest.mark.parametrize("dotted", sorted(REQUIRED_PARAMETERS))
def test_a_parameter_every_caller_passes_has_no_default(dotted):
    param = inspect.signature(_function(dotted)).parameters[REQUIRED_PARAMETERS[dotted]]
    assert param.default is inspect.Parameter.empty, dotted


def test_no_builder_takes_an_alpha_or_an_expected_verdict():
    # a chart's alpha comes from disk_base or the chain's lower level, and
    # every classifier check expects the paper's holomorphic verdict: neither
    # is a scenario parameter, and list-builders offers neither
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert kahlerkit.cli.main(["list-builders"]) == 0
    params = re.findall(r"^  params:  (.*)$", out.getvalue(), re.M)
    assert len(params) == len(kahlerkit.scenarios.BUILDERS)
    assert [ln for ln in params if re.search(r"\b(alpha|verdict)=", ln)] == []
    assert not {"alpha", "verdict"} & {key for entry in kahlerkit.scenarios.BUILDERS
                                       for key in entry.params}


# imported names that no line of their file reads, kept on purpose
UNUSED_IMPORTS = {
    # perfbench traces this binding (perfbench/tracer.py wraps every public
    # binding of kahlerkit.scenarios, and perfbench/test_perfbench.py asserts it)
    ("src/kahlerkit/scenarios.py", "metric_jets"),
}


def test_every_imported_name_is_used():
    # in src/, tools/ and tests/, each name an import binds is read in its
    # file (a package's __all__ counts as a read); an import left behind by
    # a refactor fails here
    unused = []
    for folder in (SRC, os.path.join(ROOT, "tools"), TESTS):
        for name, tree in _modules(folder):
            path = os.path.relpath(os.path.join(folder, name), ROOT).replace(os.sep, "/")
            read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            read |= {elt.value for node in ast.walk(tree)
                     if isinstance(node, ast.Assign)
                     and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                     for elt in node.value.elts}
            for node in ast.walk(tree):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    for alias in node.names:
                        bound = alias.asname or alias.name.split(".")[0]
                        if bound not in read and (path, bound) not in UNUSED_IMPORTS:
                            unused.append("%s:%d %s" % (path, node.lineno, bound))
    assert unused == []
