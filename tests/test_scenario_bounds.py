"""The bounds table of the scenario surface: each bound a builder or the
library puts on a parameter, run through `kahlerkit verify --samples 2` once
at the bound and once just past it.

A value at its bound builds: the run exits 0 or 1 and prints no `error:`
line.  A value just past it is a usage error: the run exits 2 and prints
exactly one `error:` line and nothing else."""

import contextlib
import io
import json
import math
import sys
import warnings

import pytest

from kahlerkit.cli import main
from kahlerkit.twist import DISC

INF = float("inf")
SQRT2 = math.sqrt(2.0)


def _largest_disk_radius():
    """The largest float r with r * sqrt(2) < 1, as disk_base tests it."""
    r = 1.0 / SQRT2
    while not r * SQRT2 < 1.0:
        r = math.nextafter(r, 0.0)
    while math.nextafter(r, 1.0) * SQRT2 < 1.0:
        r = math.nextafter(r, 1.0)
    return r


def _least_profile_A(z_hi=1.8):
    """The A of least magnitude with exp(z_hi/A) a normal float, as
    CalabiProfile tests it at the top of the default z_range."""
    A = z_hi / math.log(sys.float_info.min)
    while not math.exp(z_hi / A) >= sys.float_info.min:
        A = math.nextafter(A, -1.0)
    while math.exp(z_hi / math.nextafter(A, 0.0)) >= sys.float_info.min:
        A = math.nextafter(A, 0.0)
    return A


def _most_profile_A():
    """The most negative A with q = -1/A a normal float, as CalabiProfile
    tests it."""
    A = -1.0 / sys.float_info.min
    while not -1.0 / A >= sys.float_info.min:
        A = math.nextafter(A, 0.0)
    while -1.0 / math.nextafter(A, -INF) >= sys.float_info.min:
        A = math.nextafter(A, -INF)
    return A


def _last(ok, x):
    """The largest float y with ok(y), stepping from x, near which ok holds
    below its bound and fails above it."""
    while not ok(x):
        x = math.nextafter(x, 0.0)
    while ok(math.nextafter(x, INF)):
        x = math.nextafter(x, INF)
    return x


# the largest flat-base radius with a finite fourth power, as disk_base tests it
FLAT_RADIUS = _last(lambda r: math.isfinite(r * r * r * r), sys.float_info.max ** 0.25)
# the largest coordinate-twist scale on a chart box |x|, |y| <= 0.5 or 0.55
# (calabi_twist's and ak_product's default radius), where 2 scale^2 max(1, r,
# r^2) = 2 scale^2 bounds the jet of |w|^2, as _twist_map tests it
SCALE = _last(lambda s: math.isfinite(s * s * 2.0), math.sqrt(sys.float_info.max / 2.0))
# the largest c = [re, 0] of a const twist with |c|^2 <= DISC, as twist_spec
# and the |w|^2 field's guard test it
DISC_C = _last(lambda c: c * c <= DISC, math.sqrt(DISC))

RADIUS = _largest_disk_radius()
BELOW_ZERO = math.nextafter(0.0, -1.0)
LEAST_A = _least_profile_A()
MOST_A = _most_profile_A()

# (builder, params at the bound, params just past it)
BOUNDS = {
    "flat dim low": ("flat", {"dim": 2}, {"dim": 1}),
    "flat dim high": ("flat", {"dim": 12}, {"dim": 13}),
    "disk k low": ("ak_product", {"z": "disk", "k": 0}, {"z": "disk", "k": -1}),
    "disk k high": ("ak_product", {"z": "disk", "k": 32}, {"z": "disk", "k": 33}),
    "disk radius": ("ak_product", {"z": "disk", "k": 1, "radius": RADIUS},
                    {"z": "disk", "k": 1, "radius": math.nextafter(RADIUS, 1.0)}),
    **{"chain m low %s" % kind: ("calabi_chain", {"kind": kind, "m": 1},
                                 {"kind": kind, "m": 0})
       for kind in ("untwisted", "twisted")},
    **{"chain m high %s" % kind: ("calabi_chain", {"kind": kind, "m": 3},
                                  {"kind": kind, "m": 4})
       for kind in ("untwisted", "twisted")},
    "chain_level low": ("ak_product", {"z": "chain", "chain_m": 2, "chain_level": 0},
                        {"z": "chain", "chain_m": 2, "chain_level": -1}),
    "chain_level high": ("ak_product", {"z": "chain", "chain_m": 2, "chain_level": 2},
                         {"z": "chain", "chain_m": 2, "chain_level": 3}),
    "profile A at zero": ("calabi", {"A": LEAST_A}, {"A": 0.0}),
    "profile A keeps r normal": ("calabi", {"A": LEAST_A}, {"A": math.nextafter(LEAST_A, 0.0)}),
    "profile A underflows r": ("calabi", {"A": LEAST_A}, {"A": -0.001}),
    "profile A overflows q": ("calabi", {"A": LEAST_A}, {"A": BELOW_ZERO}),
    # at the bound the run FAILs on the metric's conditioning, with no error
    "profile A keeps q normal": ("calabi", {"A": MOST_A}, {"A": math.nextafter(MOST_A, -INF)}),
    "profile A at -inf": ("calabi", {"A": LEAST_A}, {"A": -INF}),
    "z_range positive": ("calabi", {"z_range": [5e-324, 1.0]}, {"z_range": [0.0, 1.0]}),
    "z_range increasing": ("calabi", {"z_range": [1.0, math.nextafter(1.0, 2.0)]},
                           {"z_range": [1.0, 1.0]}),
    # the bounds that keep the arithmetic finite (OVERFLOW_BOUNDS)
    "flat base radius calabi": ("calabi", {"radius": FLAT_RADIUS},
                                {"radius": math.nextafter(FLAT_RADIUS, INF)}),
    "flat base radius ak_product": ("ak_product", {"radius": FLAT_RADIUS},
                                    {"radius": math.nextafter(FLAT_RADIUS, INF)}),
    **{"twist scale %s %s" % (tid, builder): (
        builder, {"twist": {"id": tid, "scale": SCALE}},
        {"twist": {"id": tid, "scale": math.nextafter(SCALE, INF)}})
       for tid in ("coord_z", "conj_z") for builder in ("calabi_twist", "ak_product")},
    "const twist in the disc": ("calabi_twist", {"twist": {"id": "const", "c": [DISC_C, 0.0]}},
                                {"twist": {"id": "const",
                                           "c": [math.nextafter(DISC_C, INF), 0.0]}}),
    "twist mode A": ("calabi_twist", {"mode": "A"}, {"mode": "a"}),
    "twist mode B": ("calabi_twist", {"mode": "B"}, {"mode": "C"}),
}
OVERFLOW_BOUNDS = sorted(name for name in BOUNDS
                         if name.startswith(("flat base radius", "twist scale", "const twist")))


def _verify(path, builder, params):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"name": "bound", "builder": builder, "params": params}, fh)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["verify", str(path), "--samples", "2"])
    return rc, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("bound", sorted(BOUNDS))
def test_a_value_at_its_bound_runs_and_one_just_past_is_a_usage_error(bound, tmp_path):
    builder, at, past = BOUNDS[bound]
    rc, out, err = _verify(tmp_path / "at.json", builder, at)
    assert rc in (0, 1), (rc, err)
    assert not any(ln.startswith("error:") for ln in err.splitlines()), err
    assert out.splitlines()[0].startswith(("PASS", "FAIL")), out
    rc, out, err = _verify(tmp_path / "past.json", builder, past)
    assert (rc, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err


def test_the_least_profile_A_runs_without_a_runtime_warning(tmp_path, unbuilt):
    # at the bound every r = exp(z/A) of the chart is a normal float, so no
    # step of the build or of a check overflows, underflows or makes a NaN
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out, err = _verify(tmp_path / "at.json", "calabi", {"A": LEAST_A})
    assert (rc, err) == (0, ""), out
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


@pytest.mark.parametrize("bound", OVERFLOW_BOUNDS)
def test_a_value_at_an_overflow_bound_runs_without_a_runtime_warning(bound, tmp_path):
    # at its bound a flat-base radius (calabi FAILs on the metric's
    # conditioning), a coordinate-twist scale (the twist leaves the disc at
    # every point) or a const twist's c builds, and no step overflows
    builder, at, _ = BOUNDS[bound]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out, err = _verify(tmp_path / "at.json", builder, at)
    assert rc in (0, 1) and err == "", (rc, err)
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
