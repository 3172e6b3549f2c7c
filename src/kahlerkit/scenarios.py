"""Scenario registry and check suites.

A scenario file is a JSON object:

    {"name": "ak_disk",
     "builder": "ak_product",
     "params": {"z": "disk", "k": 1, "twist": {"id": "coord_z"}},
     "plan": {"seed": 7, "count": 30},
     "tolerances": {"ak3_identity": 1e-6}}

"builder" picks an entry from BUILDERS, "params" overrides that builder's
defaults, and "tolerances" overrides per-check defaults by check name.  A
report is a plain dict (rendered by render_json with 17-significant-digit
floats) holding one record per check: points used/excluded, max and mean
residual, tolerance, pass flag.  For a fixed (scenario, seed) everything in
the report except timings_seconds is reproduced byte for byte.
"""

import json
import os
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from kahlerkit.jets import SamplePlan, jsize, jconst, jsin
from kahlerkit.fields import (ChartManifold, Field, Fold, PointEval, worst,
                              nijenhuis_from_jets)
from kahlerkit.fields import metric_jets  # noqa: F401  (perfbench traces this binding)
from kahlerkit.hermitian import kahler_point
from kahlerkit.foliation import (homothetic_point, extract_theta, classify_point,
                                 foliation_report, VERDICT_HOLOMORPHIC)
from kahlerkit.calabi import (CalabiProfile, disk_base, build_calabi, volume_checks,
                              alpha_primitive_point, moment_map_point)
from kahlerkit.twist import (constant_twist, coordinate_twist, build_twist,
                             norm_factor_expected, norm_factor_measured,
                             form_invariance_point, transverse_holomorphy_point,
                             ricci_identity_check, zeta_duality_residual)
from kahlerkit.almost_kahler import (build_ak_product, iterate_chain,
                                     ak_invariants_point, ak3_point, torsion_point,
                                     einstein_point, fiber_log_point,
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


@dataclass
class CheckResult:
    points_used: int
    points_excluded: int
    max_residual: float
    mean_residual: float
    error: str = ""


@dataclass
class Check:
    """One claim checked pointwise.  parts pairs a chart with the per-point
    residual function run on its samples (a chain check has one part per
    level); record turns the parts' folds into the CheckResult."""
    name: str
    doc: str
    tol: float
    parts: list
    record: object


@dataclass
class Case:
    label: str
    chart: ChartManifold
    metric: Field
    checks: list


@dataclass
class BuilderEntry:
    id: str
    summary: str
    defaults: dict
    check_names: tuple
    make: object


def _fold_record(folds):
    res, = folds
    return CheckResult(res.used(), res.excluded.get(None, 0), res.max(), res.mean(),
                       res.error)


def _levels_record(folds):
    """Chain levels in level order: counts add up, the mean is weighted by
    points, and a level's error ends the record."""
    used = excluded = 0
    mx = total = 0.0
    for index, res in enumerate(folds):
        used += res.used()
        excluded += res.excluded.get(None, 0)
        mx = worst(mx, res.max())
        total += res.mean() * res.used()
        if res.error:
            return CheckResult(used, excluded, mx, total / used if used else 0.0,
                               "level %d: %s" % (index, res.error))
    return CheckResult(used, excluded, mx, total / used if used else 0.0, "")


def _verdict(expected):
    """Record of a classifier check: 0 when the verdict is the expected one."""
    def record(folds):
        res, = folds
        rep = foliation_report(res)
        r = 0.0 if rep.verdict == expected else 1.0
        return CheckResult(rep.points_used, rep.points_excluded, r, r, res.error)
    return record


def _merge_params(defaults, given, builder_id):
    merged = dict(defaults)
    for key, val in dict(given).items():
        if key not in defaults:
            raise ScenarioError("builder %r has no parameter %r (known: %s)"
                                % (builder_id, key, ", ".join(sorted(defaults))))
        merged[key] = val
    return merged


def _twist_from_spec(spec, dim):
    """Registry of twist maps addressable from scenario files.  The last two
    chart coordinates are the disk coordinates, so coord_z / conj_z attach
    there."""
    if isinstance(spec, str):
        spec = {"id": spec}
    if not isinstance(spec, dict) or "id" not in spec:
        raise ScenarioError("twist must be a name or an object with an 'id'")
    extra = set(spec) - {"id", "c", "scale"}
    if extra:
        raise ScenarioError("unknown twist fields: %s" % ", ".join(sorted(extra)))
    tid = spec["id"]
    scale = float(spec.get("scale", 1.0))
    if tid == "const":
        c = spec.get("c", [0.0, 0.0])
        if not (isinstance(c, (list, tuple)) and len(c) == 2):
            raise ScenarioError("const twist needs c = [re, im]")
        return constant_twist(float(c[0]), float(c[1]))
    if tid == "coord_z":
        return coordinate_twist(dim - 2, dim - 1, scale=scale)
    if tid == "conj_z":
        return coordinate_twist(dim - 2, dim - 1, conj=True, scale=scale)
    raise ScenarioError("unknown twist id %r (known: const, coord_z, conj_z)" % (tid,))


def _worst_of(point, *keys):
    """Per-point residual: the worst of the named residuals of point(pe), or
    None where the point is excluded from them."""
    def at(pe):
        res = point(pe)
        vals = [res[k] for k in keys]
        return None if None in vals else worst(*vals)
    return at


def _on(chart):
    """Check constructor for checks that run on one chart's samples."""
    def check(name, doc, tol, at, record=_fold_record):
        return Check(name, doc, tol, [(chart, at)], record)
    return check


# ---------------------------------------------------------------------------
# flat
# ---------------------------------------------------------------------------

def _make_flat(params):
    dim = int(params["dim"])
    if dim < 2:
        raise ScenarioError("flat builder needs dim >= 2")
    chart = ChartManifold(dim, [(-1.0, 1.0)] * dim, label="R^%d" % dim)
    metric = Field(lambda pt: jconst(np.eye(dim), jsize(pt)), chart)
    check = _on(chart)
    checks = [
        check("curvature_zero", "Riemann tensor of the Euclidean metric vanishes",
              1e-11, lambda pe: np.abs(pe.curvature(metric)[0]).max()),
        check("ricci_zero", "Ricci tensor of the Euclidean metric vanishes",
              1e-11, lambda pe: np.abs(pe.curvature(metric)[1]).max()),
    ]
    return Case("Euclidean R^%d" % dim, chart, metric, checks)


# ---------------------------------------------------------------------------
# sphere
# ---------------------------------------------------------------------------

def _make_sphere(params):
    chart = ChartManifold(2, [(0.4, 2.7), (-3.0, 3.0)], label="S^2")

    metric = Field(lambda pt: np.diag([1.0, 0.0]) + jsin(pt[0]) ** 2 * np.diag([0.0, 1.0]),
                   chart)

    def sym_at(pe):
        R = pe.curvature(metric)[0]
        sc = max(np.abs(R).max(), 1e-12)
        r1 = np.abs(R + R.transpose(1, 0, 2, 3)).max()
        r2 = np.abs(R + R.transpose(0, 1, 3, 2)).max()
        r3 = np.abs(R - R.transpose(2, 3, 0, 1)).max()
        return worst(r1, r2, r3) / sc

    def bianchi_at(pe):
        R = pe.curvature(metric)[0]
        sc = max(np.abs(R).max(), 1e-12)
        return np.abs(R + R.transpose(1, 2, 0, 3) + R.transpose(2, 0, 1, 3)).max() / sc

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
    return Case("unit 2-sphere", chart, metric, checks)


# ---------------------------------------------------------------------------
# calabi
# ---------------------------------------------------------------------------

def _calabi_core(params):
    kind = params["base"]
    if kind not in ("flat", "disk"):
        raise ScenarioError("calabi base must be 'flat' or 'disk'")
    k = 0 if kind == "flat" else int(params["k"])
    base, alpha0 = disk_base(k, radius=float(params["radius"]))
    profile = CalabiProfile(A=float(params["A"]),
                            z_range=tuple(params["z_range"]),
                            s_range=tuple(params["s_range"]))
    amode = params["alpha"]
    if amode not in ("closed_form", "homotopy"):
        raise ScenarioError("alpha must be 'closed_form' or 'homotopy'")
    return build_calabi(base, profile, alpha=(alpha0 if amode == "closed_form" else None))


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
              lambda pe: np.abs(extract_theta(t, Pp, pe) - pe.jets(cal.theta)[0]).max()),
        check("lee_closed", "extracted Lee form is closed",
              1e-7, lambda pe: homothetic_point(t, Pp, pe)["dtheta"]),
        check("plus_geodesic", "splitting tensor vanishes on fiber-fiber slots",
              1e-7, lambda pe: classify_point(t, Pp, pe)["geodesic"]),
        check("moment_map", "contraction of omega with the circle field is -dz",
              1e-9, lambda pe: moment_map_point(cal, pe)),
    ] + _volume_checks(check, cal, float(params["volume_floor"]), (
        "omega^m against the z- and r-coordinate product volume forms",
        "Pfaffian of omega stays above the declared floor")) + [
        check("classify_verdict", "foliation classifier verdict",
              0.5, lambda pe: classify_point(t, Pp, pe), _verdict(params["verdict"])),
    ]
    return Case(cal.chart.label + " over " + cal.base.chart.label,
                cal.chart, cal.g, checks)


# ---------------------------------------------------------------------------
# calabi_twist
# ---------------------------------------------------------------------------

def _make_calabi_twist(params):
    cal = _calabi_core(params)
    tw = _twist_from_spec(params["twist"], cal.chart.dim)
    mode = params["mode"]
    if mode not in ("A", "B"):
        raise ScenarioError("twist mode must be 'A' or 'B'")
    tt = build_twist(cal, tw, mode=mode)
    twt = tt.triple()
    Pp = cal.proj_plus
    chart = cal.chart

    def norm_at(pe):
        w1, w2 = pe.raw(tw)
        want = norm_factor_expected(w1.value, w2.value, mode)
        return abs(norm_factor_measured(cal.g, tt.g_w, cal.theta, pe) - want)

    check = _on(chart)
    checks = [
        check("form_invariance", "omega of (g,J) and of (g,I0) unchanged by the twist",
              1e-9, lambda pe: form_invariance_point(cal, tt, pe)),
        check("norm_factor", "theta-direction rescaling factor of the twisted metric",
              1e-9, norm_at),
        check("transverse_holomorphy", "dw2 kills what J rotates into dw1 off the fibers",
              1e-7, lambda pe: transverse_holomorphy_point(cal.J, cal.proj_plus, tw, pe)),
        check("nijenhuis_twisted", "integrability of the twisted J",
              1e-7, lambda pe: np.abs(nijenhuis_from_jets(*pe.jets(tt.J_w)[:2])).max()),
        check("homothetic_foliation", "homothetic residual of the twisted triple",
              1e-7, lambda pe: homothetic_point(twt, Pp, pe)["homothetic"]),
        check("ricci_fiber_log",
              "Ricci form minus lifted base Ricci form matches the log potential terms",
              1e-6, lambda pe: ricci_identity_check(cal, tw, tt, pe)["corrected"]),
        check("zeta_duality", "J_w g_w^{-1} theta equals J g^{-1} theta",
              1e-8, lambda pe: zeta_duality_residual(cal.g, cal.J, tt.g_w, tt.J_w,
                                                     cal.theta, pe)),
        check("classify_verdict", "foliation classifier verdict on the twisted triple",
              0.5, lambda pe: classify_point(twt, Pp, pe), _verdict(params["verdict"])),
    ]
    return Case("twisted " + chart.label + " [" + tw.label + ", mode " + mode + "]",
                chart, tt.g_w, checks)


# ---------------------------------------------------------------------------
# ak_product
# ---------------------------------------------------------------------------

def _make_ak(params):
    zkind = params["z"]
    radius = float(params["radius"])
    zpos_product = {}
    if zkind == "plane":
        zt, _ = disk_base(0, radius=radius)
    elif zkind == "disk":
        zt, _ = disk_base(int(params["k"]), radius=radius)
    elif zkind == "chain":
        levels = iterate_chain("twisted", int(params["chain_m"]), A=params["A"],
                               radius=radius, z_range=tuple(params["z_range"]),
                               s_range=tuple(params["s_range"]))
        lv = levels[int(params["chain_level"])]
        zt = lv.triple
        zpos_product = {j: pos + 2 for j, pos in lv.z_positions.items()}
    else:
        raise ScenarioError("ak z factor must be 'plane', 'disk' or 'chain'")

    tw = _twist_from_spec(params["twist"], zt.chart.dim)
    mode = params["mode"]
    if mode not in ("A", "B"):
        raise ScenarioError("twist mode must be 'A' or 'B'")
    ak = build_ak_product(zt, tw, mode=mode,
                          plane_range=tuple(params["plane_range"]))

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
    ]
    if zpos_product:
        checks.append(check(
            "ricci_form_fiber_log",
            "Ricci form of the product equals the fiber log potential terms",
            1e-6, lambda pe: fiber_log_point(ak.triple(), zpos_product, pe)))
    return Case("R^2 x " + zt.chart.label + " [" + tw.label + ", mode " + mode + "]",
                ak.chart, ak.g, checks)


# ---------------------------------------------------------------------------
# calabi_chain
# ---------------------------------------------------------------------------

def _make_chain(params):
    kind = params["kind"]
    m = int(params["m"])
    levels = iterate_chain(kind, m, A=float(params["A"]),
                           radius=float(params["radius"]),
                           z_range=tuple(params["z_range"]),
                           s_range=tuple(params["s_range"]))
    top = levels[-1]
    floor = float(params["volume_floor"])

    def per_level(name, doc, tol, at):
        return Check(name, doc, tol,
                     [(lv.triple.chart, lambda pe, lv=lv: at(lv, pe)) for lv in levels],
                     _levels_record)

    checks = [
        per_level("kahler_levels", "every level passes the pointwise Kähler residuals",
                  1e-7, lambda lv, pe: worst(*kahler_point(lv.triple, pe).values())),
        per_level("ricci_coefficient",
                  "Ricci form matches the disk log coefficient plus fiber log terms",
                  1e-6, lambda lv, pe: lv.identity_residuals(pe)["corrected"]),
        per_level("alpha_primitive", "each level's alpha is a primitive of its omega",
                  1e-7, lambda lv, pe: alpha_primitive_point(lv.alpha, lv.triple, pe)),
    ]
    check = _on(top.triple.chart)
    if top.cal is not None:
        checks += _volume_checks(check, top.cal, floor, (
            "top-level omega^m against both coordinate volume forms",
            "top-level Pfaffian stays above the floor"))
        checks.append(check("classify_top", "classifier verdict on the top level",
                            0.5, lambda pe: classify_point(top.triple, top.cal.proj_plus, pe),
                            _verdict(VERDICT_HOLOMORPHIC)))
    if kind == "untwisted" and top.cal is not None:
        tw = coordinate_twist(top.triple.chart.dim - 2, top.triple.chart.dim - 1)
        checks.append(check(
            "ker_dw_geodesic",
            "kernel of the lifted disk map is totally geodesic",
            1e-6, lambda pe: ker_dw_geodesic_residual(top.triple.g, tw, pe)))
    label = "%s chain, m=%d, top %s" % (kind, m, top.triple.chart.label)
    return Case(label, top.triple.chart, top.triple.g, checks)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

BUILDERS = [
    BuilderEntry("flat", "Euclidean metric on R^n",
                 {"dim": 3},
                 ("curvature_zero", "ricci_zero"), _make_flat),
    BuilderEntry("sphere", "round unit 2-sphere in polar coordinates",
                 {},
                 ("scalar_curvature_two", "riemann_symmetries", "bianchi_first"),
                 _make_sphere),
    BuilderEntry("calabi", "fibered chart over a disk base, log profile",
                 {"base": "flat", "k": 1, "radius": 0.5, "A": -1.0,
                  "z_range": [0.6, 1.8], "s_range": [-0.8, 0.8],
                  "alpha": "closed_form", "volume_floor": 1e-6,
                  "verdict": VERDICT_HOLOMORPHIC},
                 ("kahler_verdict", "homothetic_foliation", "lee_is_dlnz",
                  "lee_closed", "plus_geodesic", "moment_map", "volume_identity",
                  "volume_nonvanishing", "classify_verdict"), _make_calabi),
    BuilderEntry("calabi_twist", "twist deformation of a fibered chart",
                 {"base": "flat", "k": 1, "radius": 0.5, "A": -1.0,
                  "z_range": [0.6, 1.8], "s_range": [-0.8, 0.8],
                  "alpha": "closed_form", "twist": {"id": "coord_z"}, "mode": "B",
                  "verdict": VERDICT_HOLOMORPHIC},
                 ("form_invariance", "norm_factor", "transverse_holomorphy",
                  "nijenhuis_twisted", "homothetic_foliation", "ricci_fiber_log",
                  "zeta_duality", "classify_verdict"), _make_calabi_twist),
    BuilderEntry("calabi_chain", "iterated fibered charts over the disk",
                 {"kind": "untwisted", "m": 2, "A": -1.0, "radius": 0.55,
                  "z_range": [0.6, 1.8], "s_range": [-0.8, 0.8],
                  "volume_floor": 1e-6},
                 ("kahler_levels", "ricci_coefficient", "alpha_primitive",
                  "volume_identity", "volume_nonvanishing", "classify_top",
                  "ker_dw_geodesic"), _make_chain),
    BuilderEntry("ak_product", "plane times Kähler factor with twisted structures",
                 {"z": "plane", "k": 1, "radius": 0.55, "chain_m": 2,
                  "chain_level": 1, "A": -1.0, "z_range": [0.6, 1.8],
                  "s_range": [-0.8, 0.8], "twist": {"id": "const", "c": [0.0, 0.0]},
                  "mode": "B", "plane_range": [-1.0, 1.0]},
                 ("structure_forms", "killing_plane", "ak3_identity", "ak3_blocks",
                  "torsion_derivative", "torsion_algebra", "torsion_kernel",
                  "torsion_rank", "einstein_fit", "ricci_flat",
                  "ricci_form_fiber_log"), _make_ak),
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
        if not isinstance(val, (int, float)):
            raise ScenarioError("%s: tolerance %r must be a number" % (source, key))
    try:
        seed = int(plan.get("seed", 0))
        count = int(plan.get("count", 30))
        margin = float(plan.get("margin", 0.15))
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
    except OSError as exc:
        raise ScenarioError("%s: %s" % (path, exc))
    return parse_scenario(obj, source=path)


def build_case(scn):
    entry = BUILDER_MAP[scn.builder]
    return entry.make(_merge_params(entry.defaults, scn.params, entry.id))


def run_scenario_obj(scn, tol_override=None, case=None):
    """Execute every check of the scenario's builder; returns the report dict."""
    if case is None:
        case = build_case(scn)
    known = {c.name for c in case.checks}
    for name in scn.tolerances:
        if name not in known:
            raise ScenarioError("%s: tolerance for unknown check %r (this case "
                                "runs: %s)" % (scn.source, name,
                                               ", ".join(sorted(known))))
    plan = SamplePlan(scn.seed, scn.count, scn.margin)
    folds = [[Fold() for _ in ck.parts] for ck in case.checks]
    timings = dict.fromkeys((ck.name for ck in case.checks), 0.0)
    charts = []
    for ck in case.checks:
        for chart, _ in ck.parts:
            if all(chart is not seen for seen in charts):
                charts.append(chart)
    # one PointEval per sample point feeds every check on that chart; a chain
    # level is skipped once an earlier level of the same check has an error
    for chart in charts:
        for p in chart.samples(plan):
            pe = PointEval(p)
            for ck, fs in zip(case.checks, folds):
                for k, (c, at) in enumerate(ck.parts):
                    if c is chart and not any(f.error for f in fs[:k]):
                        t0 = time.perf_counter()
                        fs[k].add(pe, at)
                        timings[ck.name] += time.perf_counter() - t0
    records = []
    for ck, fs in zip(case.checks, folds):
        res = ck.record(fs)
        tol = float(tol_override if tol_override is not None
                    else scn.tolerances.get(ck.name, ck.tol))
        passed = (res.error == "") and (res.max_residual <= tol)
        rec = {"name": ck.name, "doc": ck.doc,
               "points_used": res.points_used,
               "points_excluded": res.points_excluded,
               "max_residual": res.max_residual,
               "mean_residual": res.mean_residual,
               "tolerance": tol, "pass": passed}
        if res.error:
            rec["error"] = res.error
        records.append(rec)
    return {"scenario": scn.name, "builder": scn.builder, "case": case.label,
            "seed": scn.seed, "samples": scn.count, "params": scn.params,
            "checks": records, "all_pass": all(r["pass"] for r in records),
            "timings_seconds": timings}


def run_scenario(arg, seed=None, samples=None, tol=None):
    scn = load_scenario(arg)
    if seed is not None:
        scn.seed = int(seed)
    if samples is not None:
        scn.count = int(samples)
    return run_scenario_obj(scn, tol_override=tol)


def render_json(obj, indent=0):
    """Deterministic JSON with floats at 17 significant digits."""
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [inner + json.dumps(str(k)) + ": " + render_json(v, indent + 2)
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        parts = [inner + render_json(v, indent + 2) for v in obj]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        if f != f or f in (float("inf"), float("-inf")):
            return json.dumps(str(f))
        return format(f, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError("cannot render %r" % type(obj))
