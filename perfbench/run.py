"""kahlerkit benchmark: one workload per call, metrics as the last stdout line.

    python3 perfbench/run.py --workload {calabi_verify,ak_verify,point_query,all}
                             [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in its own single-threaded worker process
(perfbench/worker.py) against the library in src/.  With --trace 0 the last
line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics; with --trace 1 it holds the per-layer metrics
of a traced run.  A readable table goes to standard error.  --workload all
runs the three workloads in turn and prints one combined JSON line whose
metric names are prefixed with the workload.  See perfbench/README.md.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_build", "perfbench")

WORKLOADS = ("calabi_verify", "ak_verify", "point_query")
SETUP_RUNS = 9            # set-ups per run, half before and half after the
                          # measured loop; setup_s is their median
TIMEOUT_S = 170.0         # whole run, set-ups included

# The nine bundled scenarios, one scenarios.scenario_s.<name> metric each.  The
# parent keeps its own list so that it never imports numpy or kahlerkit.
SCENARIOS = ("flat", "sphere", "ak_flat", "ak_disk", "ak_disk_chain2", "calabi_flat",
             "calabi_twist_zeta", "calabi_chain_untwisted", "calabi_chain_twisted")

# Per-layer span groups: (metric, functions, time kind, report calls).
# "<metric>_s" sums the functions' self time, or for the builders their
# inclusive time, because a builder's work runs in the field evaluations it
# calls; "<metric>_calls" is the functions' call count.
GROUPS = (
    ("jets.jmat_inv", ("jets.jmat_inv",), "self", True),
    ("fields.eval", ("fields.metric_jets", "fields.endo_jets", "fields.vector_jets",
                     "fields.seedcall"), "self", True),
    ("fields.curvature", ("fields.curvature_from_jets", "fields.christoffel_parts"),
     "self", True),
    ("hermitian.fundamental_form", ("hermitian.fundamental_form_jets",
                                    "hermitian.fundamental_form",
                                    "hermitian.fundamental_form_field"), "self", False),
    ("foliation.theta_jets", ("foliation.theta_jets",), "self", True),
    ("foliation.classify", ("foliation.classify",), "self", False),
    ("foliation.structure_checks", ("foliation.structure_equation_checks",),
     "self", False),
    ("calabi.volume_checks", ("calabi.volume_checks",), "self", False),
    ("twist.identity", ("twist.ricci_identity_check", "twist.norm_factor_measured",
                        "twist.zeta_duality_residual"), "self", False),
    ("almost_kahler.eta_tensor", ("almost_kahler.eta_tensor",), "self", False),
    ("calabi.build", ("calabi.build_calabi", "calabi.disk_base", "calabi.flat_base"),
     "inclusive", False),
    ("almost_kahler.build", ("almost_kahler.build_ak_product",
                             "almost_kahler.iterate_chain"), "inclusive", False),
    ("scenarios.build_case", ("scenarios.build_case",), "inclusive", False),
    ("scenarios.self", ("scenarios.run_scenario_obj",), "self", False),
    ("cli.render", ("scenarios.render_json",), "self", False),
    ("cli.self", ("cli.main",), "self", False),
)


def per_layer_metrics():
    """(name, unit) of every per-layer metric, in report order."""
    out = [("jets.ops", "count"), ("jets.seeds", "count"),
           ("jets.distinct_points", "count"), ("jets.seeds_per_point", "ratio")]
    for group, _, _, calls in GROUPS:
        if calls:
            out.append((group + "_calls", "count"))
        out.append((group + "_s", "s"))
    out.append(("scenarios.points", "count"))
    out += [("scenarios.scenario_s." + s, "s") for s in SCENARIOS]
    out += [("trace.untraced_s", "s"), ("trace.traced_s", "s"),
            ("trace.overhead_pct", "%")]
    return out


def tail(values):
    """The highest percentile with at least 10 samples beyond it: the 11th
    largest value.  Returns (value, percentile)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _worker(workload, seed, seconds, trace, setup_only, deadline):
    """Start worker.py, wait for it, and return (set-up seconds, result)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seconds", repr(seconds), "--trace", str(trace),
           "--out-dir", os.path.join(OUT, workload)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
                   [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RuntimeError("%s worker ran past the time limit" % workload)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError("%s worker exited with %d" % (workload, proc.returncode))
    lines = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
    if not lines or "ready" not in lines[0] or (not setup_only and len(lines) < 2):
        raise RuntimeError("%s worker printed no result" % workload)
    return lines[0]["ready"] - t0, (None if setup_only else lines[-1])


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _layer_metrics(res, notes):
    spans, counts = res["spans"], res["counts"]
    metrics = {
        "jets.ops": counts["jets.ops"],
        "jets.seeds": counts["jets.seeds"],
        "jets.distinct_points": res["distinct_points"],
        "jets.seeds_per_point": counts["jets.seeds"] / max(1, res["distinct_points"]),
        "scenarios.points": res["points"],
        "trace.untraced_s": res["untraced_s"],
        "trace.traced_s": res["traced_s"],
        "trace.overhead_pct": 100.0 * (res["traced_s"] / res["untraced_s"] - 1.0),
    }
    for group, funcs, kind, _ in GROUPS:
        stats = [spans.get(f, [0, 0.0, 0.0]) for f in funcs]
        metrics[group + "_s"] = sum(s[1 if kind == "self" else 2] for s in stats)
        metrics[group + "_calls"] = sum(s[0] for s in stats)
    for name in SCENARIOS:
        metrics["scenarios.scenario_s." + name] = res["scenario_s"].get(name, 0.0)
    top = sorted(spans.items(), key=lambda kv: -kv[1][1])[:12]
    notes["top self time"] = ", ".join("%s %.3fs/%d" % (k, v[1], v[0]) for k, v in top)
    notes["note"] = ("Jet2 arithmetic is counted, not timed: its time is in "
                     "the self time of the span that called it")
    return {k: _metric(metrics[k], unit) for k, unit in per_layer_metrics()}


def _end_to_end_metrics(res, setups, notes):
    # Per-scenario means weigh every scenario once, however many passes the
    # run made; order statistics of single commands would jump between
    # scenarios as the pass count changes, and between the host's speed modes.
    # The geometric mean lets a k-fold gain on any one scenario count alike.
    means = sorted((statistics.fmean(v), name) for name, v in res["cmd_ms"].items() if v)
    if not means:
        raise RuntimeError("no command completed")
    commands = [ms for v in res["cmd_ms"].values() for ms in v]
    cmd_tail, pct = tail(commands)
    notes["setup_s"] = "median of %d set-ups" % len(setups)
    notes["pass_s"] = "mean of %d passes" % len(res["pass_s"])
    notes["scenario_gmean_ms"] = "geometric mean of %d scenario means" % len(means)
    notes["scenario_max_ms"] = means[-1][1]
    notes["commands"] = "p50 %.6g ms, p%.1f %.6g ms, of %d commands" % (
        statistics.median(commands), pct, cmd_tail, len(commands))
    return {
        "setup_s": _metric(statistics.median(setups), "s"),
        "pass_s": _metric(statistics.fmean(res["pass_s"]), "s"),
        "scenario_gmean_ms": _metric(statistics.geometric_mean([m for m, _ in means]), "ms"),
        "scenario_max_ms": _metric(means[-1][0], "ms"),
        "peak_rss_mb": _metric(res["peak_rss_mb"], "MB"),
    }


def run_workload(workload, seed, seconds, trace):
    """Run one workload; returns (result object, notes for the table)."""
    deadline = time.monotonic() + TIMEOUT_S
    extra = 0 if trace else SETUP_RUNS - 1
    setups = []
    for _ in range(extra // 2):
        setups.append(_worker(workload, seed, seconds, trace, True, deadline)[0])
    setup_s, res = _worker(workload, seed, seconds, trace, False, deadline)
    setups.append(setup_s)
    for _ in range(extra - extra // 2):
        setups.append(_worker(workload, seed, seconds, trace, True, deadline)[0])
    notes = {}
    if trace:
        metrics = _layer_metrics(res, notes)
    else:
        metrics = _end_to_end_metrics(res, setups, notes)
    result = {"correct": res["failed"] == 0 and res["attempted"] > 0,
              "attempted": res["attempted"], "failed": res["failed"],
              "metrics": metrics}
    return result, notes


def _print_table(workload, seed, result, notes):
    err = sys.stderr
    print("workload %s  seed %s  correct %s" % (
        workload, "bundled" if seed is None else seed, result["correct"]), file=err)
    for name, m in result["metrics"].items():
        value = m["value"]
        text = "%.6g" % value if isinstance(value, float) else str(value)
        extra = "  (%s)" % notes[name] if name in notes else ""
        print("  %-40s %14s %s%s" % (name, text, m["unit"], extra), file=err)
    print("  %-40s %14.6g share  (%d of %d operations)" % (
        "ops_failed", result["failed"] / result["attempted"], result["failed"],
        result["attempted"]), file=err)
    for key in ("commands", "top self time", "note"):
        if key in notes:
            print("  %s: %s" % (key, notes[key]), file=err)


def main(argv=None):
    ap = argparse.ArgumentParser(description="kahlerkit benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=None,
                    help="sample seed for every scenario (default: each "
                         "scenario's bundled seed)")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "kahlerkit", "cli.py")):
        print("error: no kahlerkit sources under %s" % SRC, file=sys.stderr)
        return 2
    # SIGTERM unwinds like an error, so the running worker is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in workloads:
            result, notes = run_workload(workload, args.seed, args.seconds, args.trace)
            _print_table(workload, args.seed, result, notes)
            results[workload] = result
    except RuntimeError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    if len(results) == 1:
        print(json.dumps(results[args.workload]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {w + "." + k: v for w, r in results.items()
                        for k, v in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
