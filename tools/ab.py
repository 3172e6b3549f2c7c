"""Paired A/B timing of two kahlerkit source trees, one fresh worker per
block: the one timing tool of the repo.

    python tools/ab.py PARENT_TREE CHANGE_TREE [--pairs N]
                       [--workloads NAME ...] [--out FILE]

A block is one worker process serving one tree and one workload (its src/
first on the path, single-threaded BLAS, pinned to one CPU, the highest the
calling process may run on, so both sides of every pair share a core).  It
builds the workload's runner from the tree's own perfbench/worker.py,
prints a ready line, runs one unrecorded warm-up block of BLOCK units and
one timed block of BLOCK units, and exits; a unit drives kahlerkit.cli.main
as a perfbench run does at the bundled seeds: a verify pass over the
workload's scenarios, or one round of curvature queries.  In each pair, for
each workload in turn, the block of one tree runs and then the block of the
other, and the tree that goes first alternates from pair to pair.  So both
trees see the same drift of the host's speed, and each pair is an
independent replicate: its two processes share no memory layout or
address-space randomisation with any other pair.  A/A calibration is
`ab.py TREE TREE`.

The JSON written to --out (and printed) holds, per workload, for setup_s
(spawn to ready line, as perfbench/run.py times it: imports, scenario loads
and query points), pass_s (the mean unit of the timed block, in seconds),
fields_s (the part of it spent evaluating fields: the builder closures on
jets, timed by FieldClock), scenario_gmean_ms and scenario_max_ms (the
geometric mean and the largest of the scenarios' mean command times in the
block), peak_rss_mb (the worker's peak resident set at exit, in MB:
ru_maxrss of a process that served this workload alone) and each
scenario's mean command time: each side's median and quartiles over the
pairs, the change of the medians in percent, the pairs in which the change
read lower, whether the medians differ by more than the parent's
interquartile range, the median and quartiles of the change within each
pair, in percent, and whether those paired quartiles exclude 0 (drift of
the host's speed widens each side's quartiles, but moves both blocks of a
pair alike, so the paired verdict holds where the parent's interquartile
range drowns a steady change).  It also counts the operations attempted
and failed on each side.  Exit status: 0, or 1 when an operation failed on
either side.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

WORKLOADS = ("calabi_verify", "ak_verify", "point_query")
SIDES = ("parent", "change")
BLOCK = 5
TIMEOUT_S = 300.0    # one worker, set-up and both blocks


def spread(values):
    """Median and quartiles of values (inclusive quantiles)."""
    if len(values) < 2:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def summary(parent, change):
    """The paired comparison of the block values parent[i] and change[i],
    lower being better."""
    p, c = spread(parent), spread(change)
    paired = spread([100.0 * (b / a - 1.0) for a, b in zip(parent, change)])
    return {"parent": p, "change": c,
            "change_pct": 100.0 * (c["median"] / p["median"] - 1.0),
            "pairs": len(parent),
            "pairs_lower": sum(b < a for a, b in zip(parent, change)),
            "beyond_parent_iqr": abs(c["median"] - p["median"]) > p["q3"] - p["q1"],
            "paired_pct": paired,
            "paired_iqr_excludes_0": paired["q1"] > 0.0 or paired["q3"] < 0.0}


def block_values(blocks):
    """setup_s, pass_s, fields_s, peak_rss_mb, scenario_gmean_ms,
    scenario_max_ms and each scenario's mean command time of every block, by
    name: a scenario is left out unless every block has it."""
    out = {key: [statistics.fmean(b[key]) for b in blocks] for key in ("pass_s", "fields_s")}
    for key in ("setup_s", "peak_rss_mb"):
        out[key] = [b[key] for b in blocks]
    names = [n for n in blocks[0]["cmd_ms"] if all(b["cmd_ms"][n] for b in blocks)]
    means = {n: [statistics.fmean(b["cmd_ms"][n]) for b in blocks] for n in names}
    if len(names) == len(blocks[0]["cmd_ms"]):
        out["scenario_gmean_ms"] = [statistics.geometric_mean(ms) for ms in zip(*means.values())]
        out["scenario_max_ms"] = [max(ms) for ms in zip(*means.values())]
    out.update(("scenario_ms." + n, v) for n, v in means.items())
    return out


def report(blocks, block, host):
    """The JSON report of the paired blocks[workload] = (parent blocks,
    change blocks) of block units each."""
    out = {"block": block, "host": host, "workloads": {}}
    for workload, (pb, cb) in blocks.items():
        pv, cv = block_values(pb), block_values(cb)
        entry = {name: summary(pv[name], cv[name]) for name in pv if name in cv}
        for key in ("attempted", "failed"):
            entry[key] = {s: sum(b[key] for b in side) for s, side in zip(SIDES, (pb, cb))}
        out["workloads"][workload] = entry
    return out


# ---------------------------------------------------------------------------
# the workers
# ---------------------------------------------------------------------------

class FieldClock:
    """Seconds spent evaluating fields (the builder closures on jets): the
    outermost PointEval.raw calls of the kahlerkit on the path, nested reads
    included in them.  PointEval.raw is timed while the clock is entered,
    and restored on exit."""

    def __init__(self):
        from kahlerkit.fields import PointEval
        self.point_eval = PointEval
        self.raw = PointEval.raw
        self.seconds = 0.0
        self.depth = 0

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
        self.point_eval.raw = timed
        return self

    def __exit__(self, *exc):
        self.point_eval.raw = self.raw


def serve(tree, workload, units, cpu):
    """The worker, pinned to the CPU cpu before it imports anything: the
    workload's runner from the tree's own perfbench/worker.py, a ready line
    on stdout (the system-wide monotonic clock), a warm-up block and a timed
    block of units each, then one JSON line with each timed unit's pass_s
    and fields_s, the process's peak resident set, its CPU affinity and
    whether numpy.random was loaded."""
    os.sched_setaffinity(0, {cpu})
    proto, sys.stdout = sys.stdout, sys.stderr
    sys.path.insert(0, os.path.join(tree, "perfbench"))
    import numpy as np
    import worker
    import kahlerkit
    here = os.path.realpath(kahlerkit.__file__)
    if not here.startswith(os.path.join(os.path.realpath(tree), "")):
        raise RuntimeError("kahlerkit imported from %s, not from %s" % (here, tree))
    out_dir = tempfile.mkdtemp(prefix="kahlerkit-ab-")
    try:
        runner = worker.Runner(worker.WORKLOADS[workload], None, out_dir,
                               query=workload == "point_query")
        print(json.dumps({"ready": time.monotonic()}), file=proto, flush=True)
        for k in range(units):
            runner.step(worker.Tally(runner.names), k)
        tally, fields_s = worker.Tally(runner.names), []
        with FieldClock() as clock:
            for k in range(units, 2 * units):
                before = clock.seconds
                runner.step(tally, k)
                fields_s.append(clock.seconds - before)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print(json.dumps({"pass_s": tally.pass_s, "fields_s": fields_s, "cmd_ms": tally.cmd_ms,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                      "pid": os.getpid(), "cpus": sorted(os.sched_getaffinity(0)),
                      "numpy": np.__version__,
                      "numpy_random": "numpy.random" in sys.modules}),
          file=proto, flush=True)
    return 0


def worker_block(tree, workload, units, cpu):
    """The timed block of units of a fresh worker of the tree, pinned to the
    CPU cpu, with its setup_s (spawn to ready line) and ready time."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
                   [os.path.join(tree, "src")]
                   + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    cmd = [sys.executable, os.path.abspath(__file__), "--serve", tree, workload, str(units),
           str(cpu)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True, timeout=TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) != 2:
        raise RuntimeError("the %s worker of %s exited with %d" % (workload, tree,
                                                                  proc.returncode))
    ready = json.loads(lines[0])["ready"]
    return dict(json.loads(lines[1]), ready=ready, setup_s=ready - t0)


def run(trees, workloads, pairs, block=BLOCK):
    """The paired blocks of the two trees: {workload: (parent blocks, change
    blocks)}, each block from a worker of its own, the parent's first in
    even pairs and the change's first in odd ones.  Every worker is pinned
    to one CPU, the highest this process may run on, so both sides of every
    pair run on the same core."""
    cpu = max(os.sched_getaffinity(0))
    blocks = {workload: ([], []) for workload in workloads}
    for i in range(pairs):
        for workload in workloads:
            for k in ((0, 1) if i % 2 == 0 else (1, 0)):
                blocks[workload][k].append(worker_block(trees[k], workload, block, cpu))
    return blocks


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trees", nargs="*", metavar="TREE")
    ap.add_argument("--pairs", type=int, default=24)
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    ap.add_argument("--out", default=None)
    ap.add_argument("--serve", nargs=4, default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.serve:
        tree, workload, units, cpu = args.serve
        return serve(tree, workload, int(units), int(cpu))
    if len(args.trees) != 2 or args.pairs < 1:
        ap.error("give two trees and a positive --pairs")
    trees = [os.path.abspath(t) for t in args.trees]
    # an output that cannot be written ends the call before any worker starts
    fh = None
    if args.out:
        try:
            fh = open(args.out, "w", encoding="utf-8")
        except OSError as exc:
            ap.error("cannot write %s: %s" % (args.out, exc.strerror))
    with fh or contextlib.nullcontext():
        blocks = run(trees, args.workloads, args.pairs)
        first = blocks[args.workloads[0]][0][0]
        host = {"machine": platform.machine(), "cpus": os.cpu_count(),
                "python": platform.python_version(), "numpy": first["numpy"]}
        out = report(blocks, BLOCK, host)
        text = json.dumps(out, indent=1, sort_keys=True)
        if fh:
            fh.write(text + "\n")
    print(text)
    return 1 if any(e["failed"][s] for e in out["workloads"].values() for s in SIDES) else 0


if __name__ == "__main__":
    sys.exit(main())
