"""Command-line front end.

    kahlerkit verify <scenario> [--seed N] [--samples N] [--tol T] [--out FILE]
    kahlerkit curvature <scenario> --point "c1,c2,..."
    kahlerkit list-builders

<scenario> is a path to a scenario JSON file or the bare name of a bundled
one.  Exit codes: 0 all checks pass, 1 at least one check failed, 2 usage or
scenario-file problem.
"""

import argparse
import functools
import sys

import numpy as np

from kahlerkit.jets import SamplePlan
from kahlerkit.fields import DOMAIN_ERRORS, curvature_from_jets, float_checked, metric_jets
from kahlerkit.scenarios import (BUILDERS, ScenarioError, build_case, bundled_names,
                                 load_scenario, make_case, render_json, run_scenario_obj,
                                 tolerance)


def _write(path, text):
    """Write text to the file path; a path that cannot be opened for writing
    (a missing directory, a directory) is a usage error."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ScenarioError("cannot write %s: %s" % (path, exc.strerror or exc))


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
    if args.tol is not None:
        tolerance(args.tol, "--tol")
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
        _write(args.out, text)
        print("report written to %s" % args.out)
    else:
        print(text, end="")
    return 0 if report["all_pass"] else 1


def _cmd_curvature(args):
    scn = load_scenario(args.scenario)
    case = build_case(scn)
    try:
        # float strips the spaces around a coordinate, and refuses an empty one
        point = [float(tok) for tok in args.point.split(",")]
    except ValueError:
        raise ScenarioError("--point must be a comma-separated list of numbers, got %r"
                            % args.point)
    if len(point) != case.chart.dim:
        raise ScenarioError("point has %d coordinates, chart %r needs %d"
                            % (len(point), case.chart.label, case.chart.dim))
    if not case.chart.contains(point):
        raise ScenarioError("point %s lies outside the chart domain %s"
                            % (point, case.chart.domain))
    try:
        curv = float_checked(lambda p: curvature_from_jets(*metric_jets(case.metric.fn, p), p),
                             point)
    except DOMAIN_ERRORS as exc:
        print("error: %s at point %s: %s" % (type(exc).__name__, point, exc), file=sys.stderr)
        return 1
    # the query is a batch of one point: print its row
    Rlow, Ric, scal = (a[0] for a in curv[:3])
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
            "%s=%r (%s)" % (key, default, read.__name__)
            for key, (default, read) in entry.params.items()))
        print("  checks:  %s" % ", ".join(ck.name for ck in make_case(entry, {}).checks))
    names = bundled_names()
    if names:
        print("bundled scenarios: %s" % ", ".join(names))
    return 0


@functools.lru_cache(maxsize=None)
def _parser():
    """The argument parser, built once per process (parse_args keeps no state
    between calls)."""
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
    return parser


def main(argv=None):
    # argparse takes the value in "--point -0.3,0.2" for an option; bind it
    argv = list(sys.argv[1:] if argv is None else argv)
    for i, tok in enumerate(argv[:-1]):
        if tok == "--point":
            argv[i:i + 2] = ["--point=" + argv[i + 1]]
            break
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except ScenarioError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
