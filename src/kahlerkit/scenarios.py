"""Scenario registry and check suites.

A scenario file is a JSON object:

    {"name": "ak_disk",
     "builder": "ak_product",
     "params": {"z": "disk", "k": 1, "twist": {"id": "coord_z"}},
     "plan": {"seed": 7, "count": 30},
     "tolerances": {"ak3_identity": 1e-6}}

"builder" picks an entry from BUILDERS, "params" overrides the defaults its
entry declares (every declared parameter is read, given or defaulted, before
the builder runs), and "tolerances" overrides per-check defaults by check
name.  A report is a plain dict (rendered by render_json with
17-significant-digit floats) holding one record per check: points
used/excluded, max and mean residual, tolerance, pass flag.  For a fixed
(scenario, seed) everything in the report except timings_seconds is
reproduced byte for byte.
"""

import json
import math
import os
import time
from dataclasses import dataclass, replace
from functools import lru_cache, partial

import numpy as np

from kahlerkit.jets import SamplePlan, jsin
from kahlerkit.fields import (ChartManifold, Field, Fold, PointEval, worst,
                              nijenhuis_from_jets)
from kahlerkit.fields import metric_jets  # noqa: F401  (perfbench traces this binding)
from kahlerkit.hermitian import kahler_point, log_potential_residual
from kahlerkit.foliation import (homothetic_point, extract_theta, classify_point,
                                 foliation_report, VERDICT_HOLOMORPHIC)
from kahlerkit.calabi import (CalabiProfile, disk_base, build_calabi, volume_checks,
                              alpha_primitive_point, moment_map_point)
from kahlerkit.twist import (DISC, constant_twist, coordinate_twist, build_twist,
                             norm_factor_expected, norm_factor_measured,
                             form_invariance_point, transverse_holomorphy_point,
                             ricci_identity_check, zeta_duality_residual)
from kahlerkit.almost_kahler import (build_ak_product, iterate_chain,
                                     ak_invariants_point, ak3_point, torsion_point,
                                     einstein_point, fiber_logs,
                                     ker_dw_geodesic_residual)


class ScenarioError(ValueError):
    """Scenario file or parameter problem (usage error, exit code 2)."""


@dataclass
class Scenario:
    name: str
    builder: str
    params: dict
    seed: int
    count: int
    margin: float
    tolerances: dict
    source: str = "<memory>"


def _fold_record(res):
    return res.used(), res.excluded.get(None, 0), res.max(), res.mean(), res.error


@dataclass(frozen=True)
class Check:
    """One claim checked pointwise.  parts pairs a chart with the per-point
    residual function run on its samples (a chain check has one part per
    level, and its levels fold in level order into the check's one Fold);
    record turns that Fold into (points used, points excluded, max, mean,
    error), by default its unnamed residual's."""
    name: str
    doc: str
    tol: float
    parts: tuple
    record: object = _fold_record


@dataclass(frozen=True)
class Case:
    """A built scenario: its label, chart, metric and checks.  The runner
    evaluates each chart's whole sample plan as one batch.  A case is
    shared by every build of its builder and params, so it never changes."""
    label: str
    chart: ChartManifold
    metric: Field
    checks: tuple


@dataclass
class BuilderEntry:
    """A builder: params maps each parameter to (default, read), and make
    takes the dict of every parameter read and declares every check, with
    no parts where these params do not run it."""
    id: str
    summary: str
    params: dict
    make: object


def _verdict(expected):
    """Record of a classifier check: 0 when the verdict is the expected one."""
    def record(res):
        verdict, used, skipped = foliation_report(res)
        r = 0.0 if verdict == expected else 1.0
        return used, skipped, r, r, res.error
    return record


def _twist_map(spec, chart, mode):
    """The twist map of a twist_spec on chart, under the spec's label: the
    spec's w in mode B, and -w in mode A, whose twist of w is the twist of
    -w (kahlerkit.twist).  The last two chart coordinates are the disk
    coordinates, so coord_z / conj_z attach there.
    Over the chart box |x|, |y| <= r the jet of |w|^2 = scale^2 (x^2 + y^2)
    has entries up to 2 scale^2 max(1, r, r^2) (its Hessian, gradient and
    value), which the disc guard reads at every point: a scale that makes
    it overflow is rejected here."""
    tid, c = spec
    sign = -1.0 if mode == "A" else 1.0
    if tid == "const":
        return Field(constant_twist(*(sign * v for v in c)).fn, label=constant_twist(*c).label)
    scale = c[0]
    r = max(abs(v) for interval in chart.domain[-2:] for v in interval)
    if not math.isfinite(scale * scale * 2.0 * max(1.0, r, r * r)):
        raise ValueError("twist scale %r is too large for the chart box |x|, |y| <= %r: "
                         "the jet of |w|^2 overflows" % (scale, r))
    return coordinate_twist(chart.dim - 2, chart.dim - 1, conj=tid == "conj_z",
                            scale=sign * scale)


def _profile(params):
    """The Calabi profile keys of params, as CalabiProfile and iterate_chain
    take them."""
    return {key: params[key] for key in PROFILE}


def _worst_of(point, *keys):
    """Per-point residual: the worst of the named residuals of point(pe), or
    None where the point is excluded from them (masked on a batch)."""
    def residual(pe):
        res = point(pe)
        vals = [res[k] for k in keys]
        return None if any(v is None for v in vals) else worst(*vals)
    return residual


def _axes(R, *order):
    """R.transpose(order) on the trailing axes, behind any batch axis."""
    k = R.ndim - len(order)
    return R.transpose(tuple(range(k)) + tuple(k + a for a in order))


def _on(chart):
    """Check constructor for checks that run on one chart's samples; with no
    chart (None), for checks declared with no parts, which build_case drops."""
    def check(name, doc, tol, fn, *record):
        return Check(name, doc, tol, () if chart is None else ((chart, fn),), *record)
    return check


# ---------------------------------------------------------------------------
# flat
# ---------------------------------------------------------------------------

def _make_flat(params):
    dim = params["dim"]
    if not 2 <= dim <= 12:
        raise ValueError("flat builder needs dim in 2..12, got %d" % dim)
    chart = ChartManifold(dim, [(-1.0, 1.0)] * dim, label="R^%d" % dim)
    metric = Field(lambda pt: np.eye(dim))
    check = _on(chart)
    checks = [
        check("curvature_zero", "Riemann tensor of the Euclidean metric vanishes",
              1e-11, lambda pe: pe.absmax(pe.curvature(metric)[0])),
        check("ricci_zero", "Ricci tensor of the Euclidean metric vanishes",
              1e-11, lambda pe: pe.absmax(pe.curvature(metric)[1])),
    ]
    return Case("Euclidean R^%d" % dim, chart, metric, tuple(checks))


# ---------------------------------------------------------------------------
# sphere
# ---------------------------------------------------------------------------

def _make_sphere(params):
    chart = ChartManifold(2, [(0.4, 2.7), (-3.0, 3.0)], label="S^2")

    metric = Field(lambda pt: np.diag([1.0, 0.0]) + jsin(pt[0]) ** 2 * np.diag([0.0, 1.0]))

    def scale(pe):
        return np.maximum(pe.absmax(pe.curvature(metric)[0]), 1e-12)

    def sym_at(pe):
        R = pe.curvature(metric)[0]
        r1 = pe.absmax(R + _axes(R, 1, 0, 2, 3))
        r2 = pe.absmax(R + _axes(R, 0, 1, 3, 2))
        r3 = pe.absmax(R - _axes(R, 2, 3, 0, 1))
        return worst(r1, r2, r3) / scale(pe)

    def bianchi_at(pe):
        R = pe.curvature(metric)[0]
        return pe.absmax(R + _axes(R, 1, 2, 0, 3) + _axes(R, 2, 0, 1, 3)) / scale(pe)

    check = _on(chart)
    checks = [
        check("scalar_curvature_two", "scalar curvature of the unit sphere is 2",
              1e-9, lambda pe: abs(pe.curvature(metric)[2] - 2.0)),
        check("riemann_symmetries",
              "antisymmetry and pair symmetry of the lowered curvature tensor",
              1e-9, sym_at),
        check("bianchi_first", "cyclic sum over the first three slots vanishes",
              1e-9, bianchi_at),
    ]
    return Case("unit 2-sphere", chart, metric, tuple(checks))


# ---------------------------------------------------------------------------
# calabi
# ---------------------------------------------------------------------------

def _calabi_core(params):
    k = params["k"] if params["base"] == "disk" else 0
    base, alpha = disk_base(k, radius=params["radius"])
    return build_calabi(base, CalabiProfile(**_profile(params)), alpha)


def _volume_checks(check, cal, floor, docs):
    def volume(pe):
        return pe.cached("volume", (cal.g,), lambda: volume_checks(cal, pe))

    def identity_at(pe):
        return worst(volume(pe)["residual_z"], volume(pe)["residual_r"])

    def floor_at(pe):
        return worst(0.0, floor - abs(volume(pe)["pfaffian"]))

    return [check("volume_identity", docs[0], 1e-9, identity_at),
            check("volume_nonvanishing", docs[1], 1e-15, floor_at)]


def _make_calabi(params):
    cal = _calabi_core(params)
    t = cal.triple()
    Pp = cal.proj_plus

    check = _on(cal.chart)
    checks = [
        check("kahler_verdict",
              "g-J compatibility, closed fundamental form, integrable J",
              1e-7, lambda pe: worst(*kahler_point(t, pe).values())),
        check("homothetic_foliation",
              "(L_V g) restricted off the fibers equals theta(V) g, extracted theta",
              1e-7, lambda pe: homothetic_point(t, Pp, pe)["homothetic"]),
        check("lee_is_dlnz", "extracted Lee form equals d ln z", 1e-7,
              lambda pe: pe.absmax(extract_theta(t, Pp, pe) - pe.raw(cal.theta).value)),
        check("lee_closed", "extracted Lee form is closed",
              1e-7, lambda pe: homothetic_point(t, Pp, pe)["dtheta"]),
        check("plus_geodesic", "splitting tensor vanishes on fiber-fiber slots",
              1e-7, lambda pe: classify_point(t, Pp, pe)["geodesic"]),
        check("moment_map", "contraction of omega with the circle field is -dz",
              1e-9, lambda pe: moment_map_point(cal, pe)),
    ] + _volume_checks(check, cal, params["volume_floor"], (
        "omega^m against the z- and r-coordinate product volume forms",
        "Pfaffian of omega stays above the declared floor")) + [
        check("classify_verdict", "foliation classifier verdict",
              0.5, lambda pe: classify_point(t, Pp, pe), _verdict(VERDICT_HOLOMORPHIC)),
    ]
    return Case(cal.chart.label + " over " + cal.base.chart.label,
                cal.chart, cal.g, tuple(checks))


# ---------------------------------------------------------------------------
# calabi_twist
# ---------------------------------------------------------------------------

def _make_calabi_twist(params):
    cal = _calabi_core(params)
    mode = params["mode"]
    tw = _twist_map(params["twist"], cal.chart, mode)
    tt = build_twist(cal, tw)
    twt = tt.triple()
    Pp = cal.proj_plus
    chart = cal.chart

    def norm_at(pe):
        w1, w2 = pe.raw(tw)
        want = norm_factor_expected(w1.value, w2.value)
        return abs(norm_factor_measured(cal.g, tt.g_w, cal.theta, pe) - want)

    def nijenhuis_at(pe):
        Jw = pe.raw(tt.J_w)
        return pe.absmax(nijenhuis_from_jets(Jw.value, Jw.grad))

    check = _on(chart)
    checks = [
        check("form_invariance", "omega of (g,J) and of (g,I0) unchanged by the twist",
              1e-9, lambda pe: form_invariance_point(cal, tt, pe)),
        check("norm_factor", "theta-direction rescaling factor of the twisted metric",
              1e-9, norm_at),
        check("transverse_holomorphy", "dw2 kills what J rotates into dw1 off the fibers",
              1e-7, lambda pe: transverse_holomorphy_point(cal.J, cal.proj_plus, tw, pe)),
        check("nijenhuis_twisted", "integrability of the twisted J",
              1e-7, nijenhuis_at),
        check("homothetic_foliation", "homothetic residual of the twisted triple",
              1e-7, lambda pe: homothetic_point(twt, Pp, pe)["homothetic"]),
        check("ricci_fiber_log",
              "Ricci form minus lifted base Ricci form matches the log potential terms",
              1e-6, lambda pe: ricci_identity_check(cal, tw, tt, pe)),
        check("zeta_duality", "J_w g_w^{-1} theta equals J g^{-1} theta",
              1e-8, lambda pe: zeta_duality_residual(cal.g, cal.J, tt.g_w, tt.J_w,
                                                     cal.theta, pe)),
        check("classify_verdict", "foliation classifier verdict on the twisted triple",
              0.5, lambda pe: classify_point(twt, Pp, pe), _verdict(VERDICT_HOLOMORPHIC)),
    ]
    return Case("twisted " + chart.label + " [" + tw.label + ", mode " + mode + "]",
                chart, tt.g_w, tuple(checks))


# ---------------------------------------------------------------------------
# ak_product
# ---------------------------------------------------------------------------

def _make_ak(params):
    zkind, radius = params["z"], params["radius"]
    zpos_product = {}
    if zkind == "chain":
        lv = iterate_chain("twisted", params["chain_m"], radius=radius,
                           top=params["chain_level"], **_profile(params))[-1]
        zt = lv.triple
        zpos_product = {j: pos + 2 for j, pos in lv.z_positions.items()}
    else:
        zt, _ = disk_base(params["k"] if zkind == "disk" else 0, radius=radius)

    mode = params["mode"]
    tw = _twist_map(params["twist"], zt.chart, mode)
    ak = build_ak_product(zt, tw, plane_range=params["plane_range"])

    inv, ak3, tor = (partial(point, ak)
                     for point in (ak_invariants_point, ak3_point, torsion_point))
    einstein = partial(einstein_point, ak.g)

    def torsion_rank(pe):
        rank = tor(pe)["rank"]
        return None if rank is None else abs(rank - 2.0)

    check = _on(ak.chart)
    checks = [
        check("structure_forms",
              "omega of J~ hits -dx1^dx2 + lifted base form, closed, twist-invariant",
              1e-9, _worst_of(inv, "d_omega_tilde", "omega_tilde_target",
                              "omega_tilde_invariance")),
        check("killing_plane", "plane translations are Killing for the twisted metric",
              1e-9, _worst_of(inv, "killing")),
        check("ak3_identity",
              "curvature invariance under four copies of J~, relative",
              1e-6, _worst_of(ak3, "relative")),
        check("ak3_blocks", "mixed plane/Z curvature blocks vanish, relative",
              1e-6, _worst_of(ak3, "block_plane", "block_z")),
        check("torsion_derivative",
              "2 g(eta_V W, X) equals the X-derivative of g(V, W) on the plane",
              1e-8, _worst_of(tor, "prelt")),
        check("torsion_algebra", "eta anticommutes with J~ and shifts its slot",
              1e-7, _worst_of(tor, "anticommute", "jshift")),
        check("torsion_kernel",
              "eta vanishes on Z directions and sends the plane off itself",
              1e-7, _worst_of(tor, "nullity", "containment")),
        check("torsion_rank", "span of eta over the plane directions has rank 2",
              0.5, torsion_rank),
        check("einstein_fit", "max |Ric - lambda g| for the pointwise best lambda",
              1e-6, _worst_of(einstein, "einstein_dev")),
        check("ricci_flat", "max |Ric|", 1e-6, _worst_of(einstein, "ricci_max")),
        _on(ak.chart if zpos_product else None)(
            "ricci_form_fiber_log",
            "Ricci form of the product equals the fiber log potential terms",
            1e-6, lambda pe: log_potential_residual(ak.triple(), pe,
                                                    fiber_logs(pe, zpos_product))),
    ]
    return Case("R^2 x " + zt.chart.label + " [" + tw.label + ", mode " + mode + "]",
                ak.chart, ak.g, tuple(checks))


# ---------------------------------------------------------------------------
# calabi_chain
# ---------------------------------------------------------------------------

def _make_chain(params):
    kind, m = params["kind"], params["m"]
    levels = iterate_chain(kind, m, radius=params["radius"], **_profile(params))
    top = levels[-1]

    def per_level(name, doc, tol, fn):
        return Check(name, doc, tol,
                     tuple((lv.triple.chart, lambda pe, lv=lv: fn(lv, pe)) for lv in levels))

    checks = [
        per_level("kahler_levels", "every level passes the pointwise Kähler residuals",
                  1e-7, lambda lv, pe: worst(*kahler_point(lv.triple, pe).values())),
        per_level("ricci_coefficient",
                  "Ricci form matches the disk log coefficient plus fiber log terms",
                  1e-6, lambda lv, pe: lv.ricci_residual(pe)),
        per_level("alpha_primitive", "each level's alpha is a primitive of its omega",
                  1e-7, lambda lv, pe: alpha_primitive_point(lv.alpha, lv.triple, pe)),
    ]
    # the top level runs these when it is a fibered chart, not the bare disk
    fibered = top.triple.chart if top.cal is not None else None
    check = _on(fibered)
    tw = coordinate_twist(top.triple.chart.dim - 2, top.triple.chart.dim - 1)
    checks += _volume_checks(check, top.cal, params["volume_floor"], (
        "top-level omega^m against both coordinate volume forms",
        "top-level Pfaffian stays above the floor")) + [
        check("classify_top", "classifier verdict on the top level",
              0.5, lambda pe: classify_point(top.triple, top.cal.proj_plus, pe),
              _verdict(VERDICT_HOLOMORPHIC)),
        _on(fibered if kind == "untwisted" else None)(
            "ker_dw_geodesic",
            "kernel of the lifted disk map is totally geodesic",
            1e-6, lambda pe: ker_dw_geodesic_residual(top.triple.g, tw, pe)),
    ]
    label = "%s chain, m=%d, top %s" % (kind, m, top.triple.chart.label)
    return Case(label, top.triple.chart, top.triple.g, tuple(checks))


# ---------------------------------------------------------------------------
# parameter readers: read(val, what) returns the value a builder takes, or
# raises ScenarioError; what names the value in the message
# ---------------------------------------------------------------------------

def number(val, what):
    """val as a float; raise ScenarioError unless it is a number that a float
    holds (a boolean or a string is not a number here)."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ScenarioError("%s must be a number, got %r" % (what, val))
    try:
        return float(val)
    except OverflowError:
        raise ScenarioError("%s must be a number a float holds, got an integer beyond "
                            "the float range" % what) from None


def pair(val, what):
    """val as a tuple of two floats (a range [a, b], or a complex number
    [re, im]); raise ScenarioError unless it is a list of two numbers."""
    if not (isinstance(val, list) and len(val) == 2):
        raise ScenarioError("%s must be a list of two numbers, got %r" % (what, val))
    return tuple(number(v, what) for v in val)


def tolerance(val, what):
    """val as a float; raise ScenarioError unless it is a finite number >= 0
    (a boolean is not a number here)."""
    val = number(val, what)
    if not (math.isfinite(val) and val >= 0):
        raise ScenarioError("%s must be finite and >= 0, got %r" % (what, val))
    return val


def integer(val, what):
    """val as an int; raise ScenarioError unless it is an integral number (a
    boolean is not a number here, 2.0 is 2)."""
    if (isinstance(val, bool) or not isinstance(val, (int, float))
            or isinstance(val, float) and not val.is_integer()):
        raise ScenarioError("%s must be an integer, got %r" % (what, val))
    return int(val)


def one_of(*choices):
    """Reader of an enum: the value itself, which must be one of choices.
    The reader is named for its choices, as list-builders prints it."""
    def read(val, what):
        if val not in choices:
            raise ScenarioError("%s must be one of %s, got %r" % (what, ", ".join(choices), val))
        return val
    read.__name__ = "|".join(choices)
    read.choices = choices
    return read


def twist_spec(spec, what):
    """A twist as (id, values): a name or an object with an 'id', one of
    const, coord_z and conj_z.  const takes c = [re, im] in the disc |c|^2 <=
    DISC and coord_z / conj_z take scale, each finite; any other field is an
    error.  The map needs the chart, so the builder makes it (_twist_map)."""
    if isinstance(spec, str):
        spec = {"id": spec}
    if not isinstance(spec, dict) or "id" not in spec:
        raise ScenarioError("%s must be a name or an object with an 'id'" % what)
    tid = spec["id"]
    if tid not in ("const", "coord_z", "conj_z"):
        raise ScenarioError("unknown twist id %r (known: const, coord_z, conj_z)" % (tid,))
    takes = "c" if tid == "const" else "scale"
    extra = set(spec) - {"id", takes}
    if extra:
        raise ScenarioError("twist %r takes only %s besides its id, got %s"
                            % (tid, takes, ", ".join(sorted(extra))))
    if tid == "const":
        c = pair(spec.get("c", [0.0, 0.0]), "const twist c = [re, im]")
    else:
        c = (number(spec.get("scale", 1.0), "twist scale"),)
    # a NaN twist slips past the disc guard (NaN > DISC is false)
    if not all(math.isfinite(v) for v in c):
        raise ScenarioError("twist c and scale must be finite, got %r" % (spec,))
    # the S field's guard would reject every point of a const twist off the
    # disc; hypot does not overflow, and its square is inf at worst
    if tid == "const":
        h = math.hypot(*c)
        if not h * h <= DISC:
            raise ScenarioError("const twist c = %r must lie in the disc |c|^2 <= %r"
                                % (list(c), DISC))
    return tid, c


# ---------------------------------------------------------------------------
# registry: each builder's parameters as key: (default, read)
# ---------------------------------------------------------------------------

PROFILE = {"A": (-1.0, number), "z_range": ([0.6, 1.8], pair),
           "s_range": ([-0.8, 0.8], pair)}
CALABI = {"base": ("flat", one_of("flat", "disk")), "k": (1, integer),
          "radius": (0.5, number), **PROFILE}
MODE = ("B", one_of("A", "B"))

BUILDERS = [
    BuilderEntry("flat", "Euclidean metric on R^n",
                 {"dim": (3, integer)}, _make_flat),
    BuilderEntry("sphere", "round unit 2-sphere in polar coordinates",
                 {}, _make_sphere),
    BuilderEntry("calabi", "fibered chart over a disk base, log profile",
                 {**CALABI, "volume_floor": (1e-6, tolerance)},
                 _make_calabi),
    BuilderEntry("calabi_twist", "twist deformation of a fibered chart",
                 {**CALABI, "twist": ({"id": "coord_z"}, twist_spec), "mode": MODE},
                 _make_calabi_twist),
    BuilderEntry("calabi_chain", "iterated fibered charts over the disk",
                 {"kind": ("untwisted", one_of("untwisted", "twisted")), "m": (2, integer),
                  "radius": (0.55, number), **PROFILE, "volume_floor": (1e-6, tolerance)},
                 _make_chain),
    BuilderEntry("ak_product", "plane times Kähler factor with twisted structures",
                 {"z": ("plane", one_of("plane", "disk", "chain")), "k": (1, integer),
                  "radius": (0.55, number), "chain_m": (2, integer),
                  "chain_level": (1, integer), **PROFILE,
                  "twist": ({"id": "const", "c": [0.0, 0.0]}, twist_spec), "mode": MODE,
                  "plane_range": ([-1.0, 1.0], pair)},
                 _make_ak),
]

BUILDER_MAP = {b.id: b for b in BUILDERS}


def bundled_dir():
    return os.path.join(os.path.dirname(__file__), "scenarios")


def bundled_names():
    d = bundled_dir()
    if not os.path.isdir(d):
        return []
    return sorted(os.path.splitext(f)[0] for f in os.listdir(d)
                  if f.endswith(".json"))


def parse_scenario(obj, source="<memory>"):
    if not isinstance(obj, dict):
        raise ScenarioError("%s: scenario must be a JSON object" % source)
    extra = set(obj) - {"name", "builder", "params", "plan", "tolerances", "title"}
    if extra:
        raise ScenarioError("%s: unknown scenario fields: %s"
                            % (source, ", ".join(sorted(extra))))
    for key in ("name", "builder"):
        if not isinstance(obj.get(key), str):
            raise ScenarioError("%s: missing or non-string %r" % (source, key))
    if not isinstance(obj.get("title", ""), str):
        raise ScenarioError("%s: non-string 'title'" % source)
    if obj["builder"] not in BUILDER_MAP:
        raise ScenarioError("%s: unknown builder %r (known: %s)"
                            % (source, obj["builder"],
                               ", ".join(b.id for b in BUILDERS)))
    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise ScenarioError("%s: params must be an object" % source)
    plan = obj.get("plan", {})
    if not isinstance(plan, dict) or set(plan) - {"seed", "count", "margin"}:
        raise ScenarioError("%s: plan takes only seed, count, margin" % source)
    tol = obj.get("tolerances", {})
    if not isinstance(tol, dict):
        raise ScenarioError("%s: tolerances must be an object" % source)
    for key, val in tol.items():
        tolerance(val, "%s: tolerance %r" % (source, key))
    try:
        seed = integer(plan.get("seed", 0), "seed")
        count = integer(plan.get("count", 30), "count")
        margin = number(plan.get("margin", 0.15), "margin")
        SamplePlan(seed, count, margin)
    except ValueError as exc:
        raise ScenarioError("%s: bad plan: %s" % (source, exc))
    return Scenario(name=obj["name"], builder=obj["builder"], params=params,
                    seed=seed, count=count, margin=margin,
                    tolerances=dict(tol), source=source)


def load_scenario(arg):
    """Accepts a path to a scenario file or the bare name of a bundled one."""
    path = arg
    if not os.path.exists(path):
        cand = os.path.join(bundled_dir(), arg + ".json")
        if os.path.exists(cand):
            path = cand
        else:
            raise ScenarioError("no scenario file %r and no bundled scenario "
                                "named %r (bundled: %s)"
                                % (arg, arg, ", ".join(bundled_names())))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ScenarioError("%s: line %d column %d: %s"
                            % (path, exc.lineno, exc.colno, exc.msg))
    except (OSError, ValueError) as exc:   # unreadable, not UTF-8, or an overlong integer
        raise ScenarioError("%s: %s" % (path, exc))
    return parse_scenario(obj, source=path)


# Built cases kept per process, more than the bundled scenarios use: a case
# depends only on its builder and read params, and the bound keeps generated
# params from growing the memo without limit.
CASE_MEMO = 32


def make_case(entry, params):
    """entry's Case from params, each declared parameter read (given or
    defaulted) in declaration order, with every check the builder declares.
    Each builder and read params is built once per process (built_case)."""
    values = tuple((key, read(params.get(key, default), key))
                   for key, (default, read) in entry.params.items())
    return built_case(entry.id, values, repr(values))


@lru_cache(maxsize=CASE_MEMO)
def built_case(builder, values, exact):
    """The memo of make_case: the builder's Case from its read params as
    (key, value) pairs.  exact is their repr, which tells apart values that
    compare equal but build apart: 0.0 and -0.0 label a const twist apart.
    A build that raises is not kept."""
    return BUILDER_MAP[builder].make(dict(values))


def build_case(scn):
    """The scenario's Case, holding the checks its params run (those with
    parts).  An unknown key, a value its reader rejects and params the
    builder rejects raise ScenarioError."""
    entry = BUILDER_MAP[scn.builder]
    for key in scn.params:
        if key not in entry.params:
            raise ScenarioError("%s: builder %r has no parameter %r (known: %s)"
                                % (scn.source, entry.id, key, ", ".join(sorted(entry.params))))
    try:
        case = make_case(entry, scn.params)
    except (ValueError, TypeError, IndexError) as exc:
        raise ScenarioError("%s: builder %r cannot build from its params: %s"
                            % (scn.source, entry.id, exc)) from exc
    # a copy: the memoised case keeps every check the builder declares
    return replace(case, checks=tuple(ck for ck in case.checks if ck.parts))


def run_scenario_obj(scn, tol_override=None, case=None):
    """Execute every check of the scenario's builder; returns the report dict.
    One PointEval of each chart's (count, dim) stack of samples feeds every
    check on that chart (Fold replays a failing batch point by point)."""
    if case is None:
        case = build_case(scn)
    known = {c.name for c in case.checks}
    for name in scn.tolerances:
        if name not in known:
            raise ScenarioError("%s: tolerance for unknown check %r (this case "
                                "runs: %s)" % (scn.source, name,
                                               ", ".join(sorted(known))))
    plan = SamplePlan(scn.seed, scn.count, scn.margin)
    folds = [Fold() for _ in case.checks]
    timings = dict.fromkeys((ck.name for ck in case.checks), 0.0)
    # charts in the order checks name them, so a chain's levels fold in
    # level order; the level that ends a chain check's fold is named
    charts = {id(chart): chart for ck in case.checks for chart, _ in ck.parts}
    for chart in charts.values():
        try:
            pe = PointEval(chart.samples(plan))
        except MemoryError as exc:
            raise ScenarioError("%s: plan count %d: cannot allocate the sample points (%s)"
                                % (scn.source, scn.count, exc)) from None
        for ck, fold in zip(case.checks, folds):
            for k, (c, fn) in enumerate(ck.parts):
                if c is chart and not fold.error:
                    t0 = time.perf_counter()
                    fold.add(pe, fn)
                    timings[ck.name] += time.perf_counter() - t0
                    if fold.error and len(ck.parts) > 1:
                        fold.error = "level %d: %s" % (k, fold.error)
    records = []
    for ck, fold in zip(case.checks, folds):
        used, excluded, mx, mean, error = ck.record(fold)
        tol = float(tol_override if tol_override is not None
                    else scn.tolerances.get(ck.name, ck.tol))
        rec = {"name": ck.name, "doc": ck.doc,
               "points_used": used, "points_excluded": excluded,
               "max_residual": mx, "mean_residual": mean,
               "tolerance": tol, "pass": error == "" and mx <= tol}
        if error:
            rec["error"] = error
        records.append(rec)
    return {"scenario": scn.name, "builder": scn.builder, "case": case.label,
            "seed": scn.seed, "samples": scn.count, "params": scn.params,
            "checks": records, "all_pass": all(r["pass"] for r in records),
            "timings_seconds": timings}


# a string as a JSON literal, non-ASCII text escaped, as json.dumps writes it
_quoted = json.encoder.encode_basestring_ascii


def render_json(obj):
    """Deterministic JSON with floats at 17 significant digits (a NaN or an
    infinity quoted as its str), two-space indents and ASCII text, escaped
    as json.dumps escapes it; written in one pass into one list."""
    out = []
    _render(obj, 0, out)
    return "".join(out)


def _render(obj, indent, out):
    """Append the text of obj, nested at indent, to the list out."""
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        sep = "{\n" + " " * (indent + 2)
        for k, v in obj.items():
            out += (sep, _quoted(str(k)), ": ")
            _render(v, indent + 2, out)
            sep = ",\n" + " " * (indent + 2)
        out.append("\n" + " " * indent + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        sep = "[\n" + " " * (indent + 2)
        for v in obj:
            out.append(sep)
            _render(v, indent + 2, out)
            sep = ",\n" + " " * (indent + 2)
        out.append("\n" + " " * indent + "]")
    elif isinstance(obj, bool) or obj is None:
        out.append("null" if obj is None else "true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        f = float(obj)
        out.append(format(f, ".17g") if math.isfinite(f) else _quoted(str(f)))
    elif isinstance(obj, str):
        out.append(_quoted(obj))
    else:
        raise TypeError("cannot render %r" % type(obj))
