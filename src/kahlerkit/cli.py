"""Command-line front end.

    kahlerkit verify <scenario> [--seed N] [--samples N] [--tol T] [--out FILE]
    kahlerkit curvature <scenario> --point "c1,c2,..."
    kahlerkit list-builders
    kahlerkit bench --label L

<scenario> is a path to a scenario JSON file or the bare name of a bundled
one.  Exit codes: 0 all checks pass, 1 at least one check failed, 2 usage or
scenario-file problem.
"""

import argparse
import json
import os
import platform
import sys
import time

import numpy as np

from kahlerkit.jets import SamplePlan
from kahlerkit.fields import DOMAIN_ERRORS, Point, metric_jets, curvature_from_jets
from kahlerkit.scenarios import (BUILDERS, ScenarioError, bundled_names,
                                 build_case, load_scenario, render_json,
                                 run_scenario_obj)


def _cmd_verify(args):
    scn = load_scenario(args.scenario)
    if args.seed is not None:
        scn.seed = args.seed
    if args.samples is not None:
        scn.count = args.samples
    try:
        SamplePlan(scn.seed, scn.count, scn.margin)
    except ValueError as exc:
        raise ScenarioError("--seed/--samples: %s" % exc)
    report = run_scenario_obj(scn, tol_override=args.tol)
    for rec in report["checks"]:
        line = "%s  %-26s max=%.3e  tol=%.1e  points=%d" % (
            "PASS" if rec["pass"] else "FAIL", rec["name"],
            rec["max_residual"], rec["tolerance"], rec["points_used"])
        if rec["points_excluded"]:
            line += "  excluded=%d" % rec["points_excluded"]
        if rec.get("error"):
            line += "  [" + rec["error"] + "]"
        print(line)
    text = render_json(report) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print("report written to %s" % args.out)
    else:
        print(text, end="")
    return 0 if report["all_pass"] else 1


def _cmd_curvature(args):
    scn = load_scenario(args.scenario)
    case = build_case(scn)
    try:
        point = [float(tok) for tok in args.point.replace(" ", "").split(",") if tok]
    except ValueError:
        raise ScenarioError("--point must be a comma-separated list of numbers")
    if len(point) != case.chart.dim:
        raise ScenarioError("point has %d coordinates, chart %r needs %d"
                            % (len(point), case.chart.label, case.chart.dim))
    if not case.chart.contains(point):
        raise ScenarioError("point %s lies outside the chart domain %s"
                            % (point, case.chart.domain))
    try:
        Rlow, Ric, scal, _ = curvature_from_jets(*metric_jets(case.metric.fn, point), point)
    except DOMAIN_ERRORS as exc:
        print("error: %s at point %s: %s" % (type(exc).__name__, point, exc), file=sys.stderr)
        return 1
    print("scenario: %s (%s)" % (scn.name, case.label))
    print("point:    [%s]" % ", ".join("% .10e" % c for c in point))
    print("scalar curvature: % .10e" % scal)
    print("Ricci tensor:")
    for row in Ric:
        print("  [" + "  ".join("% .10e" % v for v in row) + "]")
    print("max |Ricci|:   % .10e" % np.abs(Ric).max())
    print("max |Riemann|: % .10e" % np.abs(Rlow).max())
    return 0


def _cmd_list_builders(_args):
    for entry in BUILDERS:
        print(entry.id)
        print("  summary: %s" % entry.summary)
        print("  params:  %s" % ", ".join(
            "%s=%r" % (k, v) for k, v in entry.defaults.items()))
        print("  checks:  %s" % ", ".join(entry.check_names))
    names = bundled_names()
    if names:
        print("bundled scenarios: %s" % ", ".join(names))
    return 0


BENCH_REPEAT = 3


class _FieldClock:
    """Time spent evaluating fields (the builder closures on jets): the
    outermost Point.raw calls, nested reads included in them."""

    def __init__(self):
        self.seconds = 0.0
        self.depth = 0
        self.raw = Point.raw

    def __enter__(self):
        raw = self.raw

        def timed(point, f):
            if self.depth:
                return raw(point, f)
            self.depth = 1
            t0 = time.perf_counter()
            try:
                return raw(point, f)
            finally:
                self.seconds += time.perf_counter() - t0
                self.depth = 0
        Point.raw = timed
        return self

    def __exit__(self, *exc):
        Point.raw = self.raw


def _bench_scenario(scn, repeat):
    """Medians over repeat runs of one scenario at its plan: build and run
    seconds, the run split into field evaluation, the float tensor layer (the
    rest of the check time) and aggregation (the rest of the run), and each
    check's seconds."""
    runs = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        case = build_case(scn)
        t1 = time.perf_counter()
        with _FieldClock() as clock:
            report = run_scenario_obj(scn, case=case)
        run = time.perf_counter() - t1
        checks = report["timings_seconds"]
        spent = sum(checks.values())
        runs.append((dict(build_s=t1 - t0, run_s=run, fields_s=clock.seconds,
                          float_s=spent - clock.seconds, aggregate_s=run - spent), checks))

    def median(rows):
        return {k: round(float(np.median([r[k] for r in rows])), 6) for k in rows[0]}
    out = median([layers for layers, _ in runs])
    out["checks_s"] = median([checks for _, checks in runs])
    return out


def _cmd_bench(args):
    scenarios = {}
    for name in bundled_names():
        scn = load_scenario(name)
        row = scenarios[scn.name] = _bench_scenario(scn, BENCH_REPEAT)
        print("%-24s build %.3f s  run %.3f s" % (scn.name, row["build_s"], row["run_s"]))
    doc = {"label": args.label, "repeat": BENCH_REPEAT,
           "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                    "python": platform.python_version(), "numpy": np.__version__},
           "scenarios": scenarios}
    path = "BENCH_%s.json" % args.label
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    print("bench written to %s" % path)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="kahlerkit",
        description="build fibered Kähler charts, twists and plane products, "
                    "and verify their tensor identities over sampled points")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a scenario's check suite")
    p_verify.add_argument("scenario", help="scenario file or bundled name")
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--samples", type=int, default=None)
    p_verify.add_argument("--tol", type=float, default=None,
                          help="override every check tolerance")
    p_verify.add_argument("--out", default=None, help="write the JSON report here")
    p_verify.set_defaults(fn=_cmd_verify)

    p_curv = sub.add_parser("curvature", help="print curvature at one point")
    p_curv.add_argument("scenario", help="scenario file or bundled name")
    p_curv.add_argument("--point", required=True, help='comma list "c1,c2,..."')
    p_curv.set_defaults(fn=_cmd_curvature)

    p_list = sub.add_parser("list-builders", help="show the builder registry")
    p_list.set_defaults(fn=_cmd_list_builders)

    p_bench = sub.add_parser("bench", help="time every bundled scenario (median of %d runs) "
                                           "and write BENCH_<label>.json" % BENCH_REPEAT)
    p_bench.add_argument("--label", required=True)
    p_bench.set_defaults(fn=_cmd_bench)

    # argparse takes the value in "--point -0.3,0.2" for an option; bind it
    argv = list(sys.argv[1:] if argv is None else argv)
    for i, tok in enumerate(argv[:-1]):
        if tok == "--point":
            argv[i:i + 2] = ["--point=" + argv[i + 1]]
            break
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ScenarioError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
