"""Property tests of the scenario surface: every builder's params, drawn from
the reader each parameter declares (numbers with 0, negatives, NaN, inf and
large values; ranges that are reversed, empty, tiny or huge; twist specs; an
enum's choices and near misses; wrong types), run through the command line
at 2 samples.

Whatever the params, `kahlerkit verify` exits 0, 1 or 2 without a
traceback; exit 2 prints one `error:` line and nothing else, exit 1 prints a
FAIL line, no PASS line shows a NaN or inf, every record's error names a
point or a chain level, and a second run prints the same bytes outside
timings_seconds."""

import contextlib
import io
import json
import math

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from kahlerkit.cli import main
from kahlerkit.scenarios import BUILDERS, integer, number, pair, tolerance, twist_spec

NAN, INF = float("nan"), float("inf")

# values of the wrong type for any parameter
WRONG = st.sampled_from([None, True, False, "x", "", [], {}, [1.0], {"id": "const"}])

NUMBERS = st.one_of(
    st.sampled_from([0.0, -0.0, -1.0, 1.0, 0.5, -0.5, NAN, INF, -INF, 1e300, -1e300,
                     1e-300, 2 ** 1030, 10 ** 400, -(10 ** 400)]),
    st.floats(-4.0, 4.0),
    st.floats(allow_nan=True, allow_infinity=True))

INTEGERS = st.one_of(
    st.sampled_from([0, -1, 1, 2, 3, 12, 13, 32, 33, 2000, 10 ** 6, 10 ** 30, 10 ** 400,
                     2.5, 3.0, NAN, INF, 1e300]),
    st.integers(-3, 40))

RANGES = st.one_of(
    st.sampled_from([[0.8, -0.8], [0.8, 0.8], [0.6, 0.6 + 1e-12], [1e-300, 1e300],
                     [-1e300, 1e300], [0.6, INF], [NAN, 1.0], [0.0, 1.0], [-1.8, -0.6],
                     [1, 2], [0.6, 10 ** 400], [], [1.0], [0.1, 0.2, 0.3], "ab",
                     [None, 1.0], ["0.6", "1.8"], [[0.6], [1.8]], 0.6]),
    st.lists(NUMBERS, min_size=2, max_size=2))

TWISTS = st.one_of(
    st.sampled_from(["const", "coord_z", "conj_z", "zeta", ""]),
    st.fixed_dictionaries(
        {"id": st.sampled_from(["const", "coord_z", "conj_z", "zeta", 3, None])},
        optional={"c": st.one_of(RANGES, NUMBERS), "scale": st.one_of(NUMBERS, WRONG),
                  "shift": st.just(1.0)}))

BY_READER = {number: NUMBERS, tolerance: NUMBERS, integer: INTEGERS, pair: RANGES,
             twist_spec: TWISTS}


def _like(default, read):
    """Values for a parameter drawn from its reader: an enum's choices and
    near misses, or the values of the reader's type."""
    choices = getattr(read, "choices", None)
    if choices:
        values = st.sampled_from(list(choices) + ["", "bogus", choices[0].upper()])
    else:
        values = BY_READER[read]
    return st.one_of(st.just(default), values, WRONG)


def params_of(entry):
    """The strategy of the builder entry's params: any subset of its
    declared parameters overridden."""
    return st.fixed_dictionaries(
        {}, optional={key: _like(*decl) for key, decl in entry.params.items()})


STRATEGIES = {entry.id: params_of(entry) for entry in BUILDERS}


@pytest.fixture(scope="module")
def scenario_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("surface") / "scenario.json")


def _verify(path, *options):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["verify", path, "--samples", "2", *options])
    return rc, out.getvalue(), err.getvalue()


def _without_timings(out):
    """The printed report without its timings_seconds block (the last key)."""
    head, sep, _ = out.partition('"timings_seconds"')
    return head if sep else out


def _assert_exits_cleanly(builder, path, params, *options):
    """Run verify on the builder's params, with any further verify options:
    see the module docstring.  Returns the exit code, the standard error and
    the PASS and FAIL lines."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"name": "surface", "builder": builder, "params": params}, fh)
    rc, out, err = _verify(path, *options)
    assert rc in (0, 1, 2)
    if rc == 2:
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        return rc, err, []
    assert err == ""
    lines = [ln for ln in out.splitlines() if ln.startswith(("PASS", "FAIL"))]
    assert (rc == 1) == any(ln.startswith("FAIL") for ln in lines)
    for ln in lines:
        if ln.startswith("PASS"):
            assert "nan" not in ln and "inf" not in ln, ln
    report = json.loads(out[out.index("\n{") + 1:])
    for rec in report["checks"]:
        if rec["pass"]:
            assert math.isfinite(rec["max_residual"]) and math.isfinite(rec["mean_residual"])
        if "error" in rec:
            assert " at point [" in rec["error"] or rec["error"].startswith("level "), rec
    again = _verify(path, *options)
    assert (again[0], _without_timings(again[1]), again[2]) == (rc, _without_timings(out), err)
    return rc, err, lines


@pytest.mark.parametrize("builder", sorted(STRATEGIES))
@settings(max_examples=30)
@given(data=st.data())
def test_any_params_exit_cleanly_and_reproducibly(builder, scenario_path, data):
    _assert_exits_cleanly(builder, scenario_path, data.draw(STRATEGIES[builder], label="params"))


@pytest.mark.parametrize("builder", ["calabi", "calabi_chain", "calabi_twist"])
@example(params={"A": -1e308})
@example(params={"A": -1.7976931348623157e308})
@settings(phases=[Phase.explicit])
@given(params=st.just({}))
def test_a_profile_A_with_a_subnormal_q_is_a_usage_error(builder, scenario_path, params):
    # q = -1/A lies below the normal floats, where every check would read
    # NaN: one error line names A.  @example cannot feed st.data(), so these
    # found inputs run here, in the explicit phase alone
    rc, err, _ = _assert_exits_cleanly(builder, scenario_path, params)
    assert rc == 2 and "profile needs q = -1/A and r = exp(z/A) normal floats" in err
    assert err.endswith("got A=%r, z_range=(0.6, 1.8)\n" % params["A"]), err


@example(builder="calabi_twist", params={"twist": {"id": "coord_z", "scale": 1e200}},
         names="twist scale 1e+200")
@example(builder="calabi_twist", params={"twist": {"id": "conj_z", "scale": 1e200}},
         names="twist scale 1e+200")
@example(builder="ak_product", params={"twist": {"id": "coord_z", "scale": 1e200}},
         names="twist scale 1e+200")
@example(builder="ak_product", params={"twist": {"id": "conj_z", "scale": 1e200}},
         names="twist scale 1e+200")
@example(builder="calabi_twist", params={"twist": {"id": "const", "c": [2, 1e308]}},
         names="const twist c = [2.0, 1e+308]")
@example(builder="calabi", params={"radius": 1e300}, names="radius=1e+300")
@settings(phases=[Phase.explicit])
@given(builder=st.just("calabi"), params=st.just({}), names=st.just(""))
def test_a_parameter_the_arithmetic_cannot_carry_is_a_usage_error(builder, scenario_path, params,
                                                                  names):
    # each overflowed in numpy before a guard fired: RuntimeWarnings, then
    # FAILs at every point (the twists) or "d alpha mismatches the base
    # Kähler form by nan" (the radius); now one error line names the value
    rc, err, _ = _assert_exits_cleanly(builder, scenario_path, params)
    assert rc == 2 and names in err, err


@example(builder="calabi_twist", params={"radius": 1e-155,
                                         "twist": {"id": "coord_z", "scale": 9e153}},
         seed="1", point="[-0.48518175, 0.84637091, -0.0, 0.0]",
         what="overflow encountered in add", passed=["transverse_holomorphy"],
         finite=["nijenhuis_twisted"])
@settings(phases=[Phase.explicit])
@given(builder=st.just("calabi"), params=st.just({}), seed=st.just("0"), point=st.just(""),
       what=st.just(""), passed=st.just([]), finite=st.just([]))
def test_a_float_error_inside_the_bounds_fails_at_a_named_point(builder, scenario_path, params,
                                                                seed, point, what, passed, finite):
    # a coordinate twist inside its scale bound on a tiny chart box overflows
    # in the twisted metric's Hessian: each check that meets the overflow
    # FAILs naming the point and the float error, and no RuntimeWarning
    # escapes.  The checks named finite read J_w, which is first order, where
    # nothing overflows: each FAILs on a finite residual above 1e100 with
    # both sample points used
    rc, _, lines = _assert_exits_cleanly(builder, scenario_path, params, "--seed", seed)
    status = {ln.split()[1]: ln for ln in lines}
    assert rc == 1 and [name for name, ln in status.items() if ln.startswith("PASS")] == passed
    for name in finite:
        ln = status.pop(name)
        assert ln.startswith("FAIL") and ln.endswith("points=2"), ln
        assert 1e100 < float(ln.split("max=")[1].split()[0]) < math.inf, ln
    failed = [ln for ln in status.values() if ln.startswith("FAIL")]
    assert failed
    for ln in failed:
        assert ln.endswith("[JetDomainError at point %s: %s]" % (point, what)), ln
