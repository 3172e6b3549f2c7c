"""Paired A/B timing of two kahlerkit source trees, in warm workers: the
one timing tool of the repo.

    python tools/ab.py PARENT_TREE CHANGE_TREE [--pairs N]
                       [--workloads NAME ...] [--out FILE]

Each tree gets one long-lived worker process (its src/ first on the path,
single-threaded BLAS), which drives kahlerkit.cli.main through the tree's
own perfbench/worker.py, as a perfbench run does at the bundled seeds: a
unit is a verify pass over a workload's scenarios, or one round of
curvature queries.  After one unrecorded warm-up block of each workload,
the two workers run in lockstep: in each pair, for each workload in turn,
one block of BLOCK units runs on one tree and then on the other, and the
tree that goes first alternates from pair to pair.  So both trees see the
same drift of the host's speed, and the two blocks of a pair run seconds
apart.

The JSON written to --out (and printed) holds, per workload, for pass_s
(the mean unit of a block, in seconds), fields_s (the part of it spent
evaluating fields: the builder closures on jets, timed by FieldClock),
scenario_gmean_ms and scenario_max_ms (the geometric mean and the largest
of the scenarios' mean command times of a block), peak_rss_mb (the worker's
peak resident set after the block, in MB: ru_maxrss, so it never falls
from one block to the next) and each scenario's mean command time: each
side's median and quartiles over the pairs, the change of the medians in
percent, the pairs in which the change read lower, whether the medians
differ by more than the parent's interquartile range, the median and
quartiles of the change within each pair, in percent, and whether those
paired quartiles exclude 0 (drift of the host's speed widens each side's
quartiles, but moves both blocks of a pair alike, so the paired verdict
holds where the parent's interquartile range drowns a steady change).  It also counts the operations attempted and failed on each side.
Exit status: 0, or 1 when an operation failed on either side.

One worker serves every workload given, so peak_rss_mb is the peak over
them all.  perfbench's point_query runner draws its query points with
numpy.random when the worker starts, so a run that includes point_query
holds numpy.random in both workers; to compare what the library itself
holds, time the verify workloads alone (--workloads calabi_verify
ak_verify).  fields_s, like peak_rss_mb, shifts with whether numpy.random
is loaded, though no sampling runs inside field evaluation: a tree whose
verify never imports numpy.random read fields_s 4-7% above its parent on
verify-only runs, and within 3% of it with point_query in the run, where
both workers hold the module (the cause, likely the process's memory
layout, is not attributed).  Compare fields_s only between runs that load
numpy.random alike.

The pairs of one run are not independent replicates: all of them share
the two workers' persistent offsets (memory layout, address-space
randomisation).  Timed against a byte-identical copy of itself in 9
10-pair runs of the three workloads (2-core x86_64 host), a tree read
latency changes of -2.5% to +3.2% that were lower (or higher) in at least
9 of 10 pairs with the paired quartiles excluding 0, in 12 of 108 reads;
so one run does not resolve a latency change within about 3%.
peak_rss_mb is one reading per worker, so its 10 pairs are one
comparison counted ten times: it read a difference, of 0.03% to 0.61%,
in every one of those runs.
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
    """pass_s, fields_s, peak_rss_mb, scenario_gmean_ms, scenario_max_ms and
    each scenario's mean command time of every block, by name: a scenario is
    left out unless every block has it."""
    out = {key: [statistics.fmean(b[key]) for b in blocks] for key in ("pass_s", "fields_s")}
    out["peak_rss_mb"] = [b["peak_rss_mb"] for b in blocks]
    names = [n for n in blocks[0]["cmd_ms"] if all(b["cmd_ms"][n] for b in blocks)]
    means = {n: [statistics.fmean(b["cmd_ms"][n]) for b in blocks] for n in names}
    if len(names) == len(blocks[0]["cmd_ms"]):
        out["scenario_gmean_ms"] = [statistics.geometric_mean(ms) for ms in zip(*means.values())]
        out["scenario_max_ms"] = [max(ms) for ms in zip(*means.values())]
    out.update(("scenario_ms." + n, v) for n, v in means.items())
    return out


def report(blocks, block, host):
    """The JSON report of the lockstep blocks[workload] = (parent blocks,
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
# the two workers
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


def serve(tree, workloads):
    """The worker: one runner per workload from the tree's own
    perfbench/worker.py, then one JSON line on stdout for each request
    ["workload", units] read from stdin, with each unit's pass_s and
    fields_s and the process's peak resident set after the block."""
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
        runners = {w: worker.Runner(worker.WORKLOADS[w], None, os.path.join(out_dir, w),
                                    query=w == "point_query") for w in workloads}
        done = dict.fromkeys(workloads, 0)
        print(json.dumps({"numpy": np.__version__}), file=proto, flush=True)
        for line in sys.stdin:
            workload, units = json.loads(line)
            runner, tally = runners[workload], worker.Tally(runners[workload].names)
            fields_s = []
            with FieldClock() as clock:
                for _ in range(units):
                    before = clock.seconds
                    runner.step(tally, done[workload])
                    fields_s.append(clock.seconds - before)
                    done[workload] += 1
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            print(json.dumps({"pass_s": tally.pass_s, "fields_s": fields_s,
                              "peak_rss_mb": peak_rss_mb, "cmd_ms": tally.cmd_ms,
                              "attempted": tally.attempted, "failed": tally.failed}),
                  file=proto, flush=True)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return 0


class Worker:
    """A warm worker process serving one tree."""

    def __init__(self, tree, workloads):
        self.tree = tree
        env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                   MKL_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
                       [os.path.join(tree, "src")]
                       + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        cmd = [sys.executable, os.path.abspath(__file__), "--serve", tree,
               "--workloads", *workloads]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     env=env, text=True)
        self.ready = self._read()

    def _read(self):
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the worker of %s exited" % self.tree)
        return json.loads(line)

    def block(self, workload, units):
        self.proc.stdin.write(json.dumps([workload, units]) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self):
        with contextlib.suppress(OSError):
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def run(trees, workloads, pairs, block=BLOCK):
    """The lockstep blocks of the two trees: {workload: (parent blocks,
    change blocks)}, and the parent worker's ready line."""
    workers = []
    try:
        for tree in trees:
            workers.append(Worker(tree, workloads))
        for w in workers:
            for workload in workloads:
                w.block(workload, block)
        blocks = {workload: ([], []) for workload in workloads}
        for i in range(pairs):
            for workload in workloads:
                for k in ((0, 1) if i % 2 == 0 else (1, 0)):
                    blocks[workload][k].append(workers[k].block(workload, block))
    finally:
        for w in workers:
            w.close()
    return blocks, workers[0].ready


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trees", nargs="*", metavar="TREE")
    ap.add_argument("--pairs", type=int, default=24)
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    ap.add_argument("--out", default=None)
    ap.add_argument("--serve", default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.serve:
        return serve(args.serve, args.workloads)
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
        blocks, ready = run(trees, args.workloads, args.pairs)
        host = {"machine": platform.machine(), "cpus": os.cpu_count(),
                "python": platform.python_version(), "numpy": ready["numpy"]}
        out = report(blocks, BLOCK, host)
        text = json.dumps(out, indent=1, sort_keys=True)
        if fh:
            fh.write(text + "\n")
    print(text)
    return 1 if any(e["failed"][s] for e in out["workloads"].values() for s in SIDES) else 0


if __name__ == "__main__":
    sys.exit(main())
