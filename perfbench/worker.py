"""One benchmark workload, run in its own single-threaded process.

    python3 perfbench/worker.py --workload NAME --out-dir DIR [--seed N]
                                [--seconds S] [--trace 0|1] [--setup-only]

The worker drives kahlerkit only through its public entry points
(``kahlerkit.cli.main``, ``kahlerkit.scenarios.load_scenario`` and
``build_case``).  It prints one JSON line when set-up is done (carrying the
system-wide monotonic clock, so the parent can time set-up from the moment it
started this process) and, unless --setup-only, one JSON line with the raw
measurements at the end.  perfbench/run.py turns those into metrics.

With --trace 0 the worker runs a closed loop with one client for --seconds
seconds.  With --trace 1 it runs a fixed unit of work (one verify pass, or
TRACE_ROUNDS query rounds) twice, untraced and then traced, so the per-layer
counts repeat exactly and the difference of the two is the tracing overhead.
"""

import argparse
import contextlib
import io
import json
import math
import os
import resource
import sys
import time
import traceback

import numpy as np

import kahlerkit.cli as cli
from kahlerkit.scenarios import build_case, load_scenario

from tracer import Tracer, find_wrappers

# Expected outcome of every check record: all PASS except the two documented
# FAILs of ak_disk_chain2 (its literal Ricci-flat claim does not hold).
CHECKS = {
    "flat": ("curvature_zero", "ricci_zero"),
    "sphere": ("scalar_curvature_two", "riemann_symmetries", "bianchi_first"),
    "ak_flat": ("structure_forms", "killing_plane", "ak3_identity", "ak3_blocks",
                "torsion_derivative", "torsion_algebra", "torsion_kernel",
                "torsion_rank", "einstein_fit", "ricci_flat"),
    "calabi_flat": ("kahler_verdict", "homothetic_foliation", "lee_is_dlnz",
                    "lee_closed", "plus_geodesic", "moment_map", "volume_identity",
                    "volume_nonvanishing", "classify_verdict"),
    "calabi_twist_zeta": ("form_invariance", "norm_factor", "transverse_holomorphy",
                          "nijenhuis_twisted", "homothetic_foliation",
                          "ricci_fiber_log", "zeta_duality", "classify_verdict"),
    "calabi_chain_untwisted": ("kahler_levels", "ricci_coefficient",
                               "alpha_primitive", "volume_identity",
                               "volume_nonvanishing", "classify_top",
                               "ker_dw_geodesic"),
    "calabi_chain_twisted": ("kahler_levels", "ricci_coefficient", "alpha_primitive",
                             "volume_identity", "volume_nonvanishing",
                             "classify_top"),
}
CHECKS["ak_disk"] = CHECKS["ak_flat"]
CHECKS["ak_disk_chain2"] = CHECKS["ak_flat"] + ("ricci_form_fiber_log",)
EXPECTED_FAIL = {("ak_disk_chain2", "einstein_fit"), ("ak_disk_chain2", "ricci_flat")}

WORKLOADS = {
    "calabi_verify": ("calabi_flat", "calabi_twist_zeta", "calabi_chain_untwisted",
                      "calabi_chain_twisted"),
    "ak_verify": ("ak_flat", "ak_disk", "ak_disk_chain2", "flat", "sphere"),
    "point_query": ("flat", "sphere", "ak_flat", "ak_disk", "ak_disk_chain2",
                    "calabi_flat", "calabi_twist_zeta", "calabi_chain_untwisted",
                    "calabi_chain_twisted"),
}

# Closed-form answers a curvature query must reproduce: (printed quantity,
# value, tolerance), the tolerances being those of the scenarios' own checks.
ORACLES = {
    "sphere": ("scalar curvature", 2.0, 1e-9),
    "flat": ("max |Ricci|", 0.0, 1e-11),
    "ak_flat": ("max |Ricci|", 0.0, 1e-6),
    "ak_disk": ("max |Ricci|", 0.0, 1e-6),
}

MARGIN = 0.15        # the default sample margin of a scenario plan
POINTS_PER_SCENARIO = 64
TRACE_ROUNDS = 10


def _finite(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _report_problem(msg):
    print("perfbench: " + msg, file=sys.stderr)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def grade_report(name, code, report):
    """Grade one verify report against the expected-outcome table.  Returns
    (attempted, failed): one operation per expected check record."""
    expected = CHECKS[name]
    records = {r.get("name"): r for r in report.get("checks", [])}
    want_code = 1 if any((name, c) in EXPECTED_FAIL for c in expected) else 0
    failed = 0
    for check in expected:
        rec = records.get(check)
        ok = (rec is not None and code == want_code
              and rec.get("pass") is ((name, check) not in EXPECTED_FAIL)
              and not rec.get("error")
              and _finite(rec.get("max_residual"))
              and _finite(rec.get("mean_residual")))
        if not ok:
            failed += 1
            _report_problem("%s/%s does not match the expected outcome: %r (exit %r)"
                            % (name, check, rec, code))
    extra = sorted(set(records) - set(expected))
    if extra:
        _report_problem("%s has unexpected check records %s" % (name, extra))
    return len(expected) + len(extra), failed + len(extra)


def verify_op(name, seed, out_dir):
    """`kahlerkit verify <name> --out FILE [--seed N]` in process.  Returns
    (seconds, attempted, failed, points)."""
    out = os.path.join(out_dir, name + ".json")
    argv = ["verify", name, "--out", out]
    if seed is not None:
        argv += ["--seed", str(seed)]
    if os.path.exists(out):
        os.remove(out)   # never grade the report of an earlier pass
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            code = cli.main(argv)
            dt = time.perf_counter() - t0
        with open(out, "r", encoding="utf-8") as fh:
            report = json.load(fh)
    except Exception:
        _report_problem("verify %s raised:\n%s" % (name, traceback.format_exc()))
        return None, len(CHECKS[name]), len(CHECKS[name]), 0
    attempted, failed = grade_report(name, code, report)
    checks = report.get("checks", [])
    points = sum(r.get("points_used", 0) + r.get("points_excluded", 0) for r in checks)
    return dt, attempted, failed, points


def _parse_curvature(text):
    values = {}
    for line in text.splitlines():
        key, sep, rest = line.partition(":")
        if sep and key in ("scalar curvature", "max |Ricci|", "max |Riemann|"):
            values[key] = float(rest)
        elif line.startswith("  ["):
            values.setdefault("ricci", []).extend(float(t) for t in line.strip(" []").split())
    return values


def query_op(name, point):
    """`kahlerkit curvature <name> --point=<csv>` in process.  The `=` form is
    needed: argparse reads `--point -0.3,...` as an option and exits with 2.
    Returns (seconds, ok)."""
    argv = ["curvature", name, "--point=" + ",".join(repr(float(c)) for c in point)]
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            code = cli.main(argv)
            dt = time.perf_counter() - t0
        values = _parse_curvature(out.getvalue())
    except (Exception, SystemExit):
        _report_problem("curvature %s raised:\n%s" % (name, traceback.format_exc()))
        return None, False
    numbers = [values.get(k) for k in ("scalar curvature", "max |Ricci|", "max |Riemann|")]
    numbers += values.get("ricci", [])
    ok = (code == 0 and len(values.get("ricci", [])) > 0
          and all(_finite(v) for v in numbers))
    if ok and name in ORACLES:
        key, want, tol = ORACLES[name]
        ok = abs(values[key] - want) <= tol
    if not ok:
        _report_problem("curvature %s at %s: exit %r, output %r %r"
                        % (name, argv[-1], code, out.getvalue(), err.getvalue()))
    return dt, ok


def query_points(names, seed):
    """POINTS_PER_SCENARIO points per scenario, uniform in its chart box
    shrunk by MARGIN on each side, drawn from the scenario's bundled seed or
    from --seed."""
    points = {}
    for name in names:
        scn = load_scenario(name)
        lo, hi = np.array(build_case(scn).chart.domain, float).T
        rng = np.random.default_rng(scn.seed if seed is None else seed)
        u = rng.random((POINTS_PER_SCENARIO, lo.size))
        points[name] = lo + (MARGIN + (1.0 - 2.0 * MARGIN) * u) * (hi - lo)
    return points


# ---------------------------------------------------------------------------
# units of work
# ---------------------------------------------------------------------------

class Tally:
    """Latencies (per scenario) and outcome counts of the operations run so far."""

    def __init__(self, names):
        self.pass_s = []
        self.cmd_ms = {n: [] for n in names}
        self.attempted = 0
        self.failed = 0
        self.points = 0


def verify_pass(names, seed, out_dir, tally):
    total = 0.0
    for name in names:
        dt, attempted, failed, points = verify_op(name, seed, out_dir)
        tally.attempted += attempted
        tally.failed += failed
        tally.points += points
        if dt is not None:
            total += dt
            tally.cmd_ms[name].append(1e3 * dt)
    tally.pass_s.append(total)


def query_round(names, points, k, tally):
    total = 0.0
    for name in names:
        pool = points[name]
        dt, ok = query_op(name, pool[k % len(pool)])
        tally.attempted += 1
        tally.failed += not ok
        tally.points += 1
        if dt is not None:
            total += dt
            tally.cmd_ms[name].append(1e3 * dt)
    tally.pass_s.append(total)


class Runner:
    """The operations of one workload: a verify pass over its scenarios, or
    a round of one curvature query per scenario at seeded points."""

    def __init__(self, names, seed, out_dir, query):
        for name in names:
            load_scenario(name)
        self.names = names
        self.seed = seed
        self.out_dir = out_dir
        self.points = query_points(names, seed) if query else None
        os.makedirs(out_dir, exist_ok=True)

    def step(self, tally, k):
        if self.points is None:
            verify_pass(self.names, self.seed, self.out_dir, tally)
        else:
            query_round(self.names, self.points, k, tally)

    def run_for(self, seconds):
        """Closed loop with one client.  Runs whole steps, at least one, and
        starts another only if a step as long as the last would still end
        within `seconds`."""
        tally = Tally(self.names)
        start = time.perf_counter()
        k = 0
        while True:
            t0 = time.perf_counter()
            self.step(tally, k)
            k += 1
            now = time.perf_counter()
            if now + (now - t0) - start > seconds:
                return tally

    def run_traced(self):
        """The fixed unit (one pass, or TRACE_ROUNDS rounds) untraced, then
        traced.  Returns (untraced tally, traced tally, tracer)."""
        units = 1 if self.points is None else TRACE_ROUNDS
        plain = Tally(self.names)
        for k in range(units):
            self.step(plain, k)
        traced = Tally(self.names)
        with Tracer() as tracer:
            for k in range(units):
                self.step(traced, k)
        leftover = find_wrappers()
        if leftover:
            raise RuntimeError("tracer left wrappers behind: %s" % leftover)
        return plain, traced, tracer


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    runner = Runner(WORKLOADS[args.workload], args.seed, args.out_dir,
                    query=args.workload == "point_query")
    print(json.dumps({"ready": time.monotonic()}), flush=True)
    if args.setup_only:
        return 0
    if args.trace:
        plain, traced, tracer = runner.run_traced()
        tallies = [plain, traced]
        result = dict(untraced_s=sum(plain.pass_s), traced_s=sum(traced.pass_s),
                      spans=tracer.spans, counts=tracer.counts,
                      distinct_points=len(tracer.points), points=traced.points,
                      scenario_s={n: sum(v) / 1e3 for n, v in traced.cmd_ms.items()})
    else:
        tally = runner.run_for(args.seconds)
        tallies = [tally]
        result = dict(pass_s=tally.pass_s, cmd_ms=tally.cmd_ms)
    result.update(attempted=sum(t.attempted for t in tallies),
                  failed=sum(t.failed for t in tallies),
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
