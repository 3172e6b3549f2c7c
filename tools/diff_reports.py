"""Diff every kahlerkit output of two source trees, bit for bit.

    python tools/diff_reports.py PARENT_TREE CHANGE_TREE

In each tree (its src/ first on the path, in a fresh interpreter; the two
run side by side) this runs `kahlerkit verify` on every bundled scenario at
four plans (the bundled plan, seed 12345 and seed 4 with 6 samples, seed 7
with 200 samples), `kahlerkit curvature` at each scenario's chart centre and
`kahlerkit list-builders`.  It then lists every output whose bits move: for
a verify run, each report value that changed, grouped by check with the
largest |change| of the check, and any changed exit code or status line;
for a curvature query or the listing, each changed line, with its largest
|change| where it prints numbers.  The last line counts the outputs that
move, names the report fields that move, and says whether anything moves
beyond residual digits: an exit code, a pass flag, a point count, a
status-line word, or a curvature or listing line with its numbers masked.
timings_seconds is left out, as it varies between runs.  Exit status: 0
when nothing moves, 1 when something does.

Bit-level identity holds on one host and one BLAS kernel: contract's
batched matmul sums in the order the kernel picks, so both trees run here,
under one numpy and one BLAS, and a report made on another host or under
another kernel (OpenBLAS's OPENBLAS_CORETYPE) differs in residual digits.
"""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile

PLANS = (("bundled", ()),
         ("seed12345", ("--seed", "12345", "--samples", "6")),
         ("seed4", ("--seed", "4", "--samples", "6")),
         ("seed7", ("--seed", "7", "--samples", "200")))

NUMBER = re.compile(r"[-+ ]?\d+\.\d+e[-+]\d+")
# the report fields that carry a check's residual digits
RESIDUALS = {"max_residual", "mean_residual"}


def collect(names=None, plans=PLANS):
    """The outputs of the kahlerkit this interpreter imports, by key: for
    "verify NAME PLAN" the exit code, the status lines and the report
    without timings_seconds; for "curvature NAME" and "list-builders" the
    exit code and the printed lines."""
    from kahlerkit.cli import main
    from kahlerkit.scenarios import build_case, bundled_names, load_scenario

    def run(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            rc = main(list(argv))
        return rc, out.getvalue().splitlines()
    outputs = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "report.json")
        for name in names or bundled_names():
            for label, args in plans:
                rc, lines = run(("verify", name, "--out", path) + tuple(args))
                with open(path, encoding="utf-8") as fh:
                    report = json.load(fh)
                report.pop("timings_seconds")
                outputs["verify %s %s" % (name, label)] = {
                    "exit": rc, "status": [ln for ln in lines if ln.startswith(("PASS", "FAIL"))],
                    "report": report}
            centre = build_case(load_scenario(name)).chart.center()
            rc, lines = run(("curvature", name, "--point", ",".join(map(repr, centre.tolist()))))
            outputs["curvature %s" % name] = {"exit": rc, "lines": lines}
    rc, lines = run(("list-builders",))
    outputs["list-builders"] = {"exit": rc, "lines": lines}
    return outputs


def _child(tree, names, plans):
    """A fresh interpreter that prints collect()'s outputs for the tree."""
    code = ("import json, sys; sys.path.insert(0, %r); import diff_reports, kahlerkit; "
            "assert kahlerkit.__file__.startswith(%r), kahlerkit.__file__; "
            "print(json.dumps(diff_reports.collect(%r, %r)))"
            % (os.path.dirname(os.path.abspath(__file__)), os.path.join(tree, "src"),
               names, [list(p) for p in plans]))
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    return subprocess.Popen([sys.executable, "-c", code], cwd=tree, env=env,
                            stdout=subprocess.PIPE, text=True)


def collect_trees(*trees, names=None, plans=PLANS):
    """collect() in each tree, the trees run side by side."""
    procs = [_child(os.path.abspath(t), names, plans) for t in trees]
    outs = [p.communicate()[0] for p in procs]
    for tree, p in zip(trees, procs):
        if p.returncode:
            raise RuntimeError("collecting the outputs of %s failed" % tree)
    return [json.loads(o) for o in outs]


def _leaves(obj, path=()):
    """(path, value) of every leaf of nested dicts and lists."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _leaves(v, path + (k,))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _leaves(v, path + (i,))
    else:
        yield path, obj


def _change(a, b):
    """|b - a| of two numbers, None for anything else or a non-finite one."""
    numbers = all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (a, b))
    return abs(b - a) if numbers and math.isfinite(b - a) else None


def _line_change(a, b):
    """The largest |change| between the numbers printed on two lines."""
    na, nb = NUMBER.findall(a or ""), NUMBER.findall(b or "")
    if not na or len(na) != len(nb):
        return None
    return max(abs(float(y) - float(x)) for x, y in zip(na, nb))


def diff(old, new):
    """Every output whose bits move from old to new: a list of (key, rows),
    each row (where, what changed, largest |change| or None)."""
    moved = []
    for key in sorted(set(old) | set(new)):
        a, b = old.get(key), new.get(key)
        if a == b:
            continue
        if a is None or b is None:
            moved.append((key, [("output", "missing in the %s tree" % ("parent" if a is None
                                                                      else "change"), None)]))
            continue
        rows = []
        if a["exit"] != b["exit"]:
            rows.append(("exit code", "%s -> %s" % (a["exit"], b["exit"]), None))
        if "lines" in a:
            la, lb = a["lines"], b["lines"]
            for i in range(max(len(la), len(lb))):
                x, y = (la[i] if i < len(la) else None), (lb[i] if i < len(lb) else None)
                if x != y:
                    rows.append(("line %d" % (i + 1), "%r -> %r" % (x, y), _line_change(x, y)))
        else:
            for x, y in zip(a["status"], b["status"]):
                if x != y:
                    rows.append(("status", "%r -> %r" % (x, y), None))
            if len(a["status"]) != len(b["status"]):
                rows.append(("status", "%d -> %d lines" % (len(a["status"]), len(b["status"])),
                             None))
            rows.extend(_report_rows(a["report"], b["report"]))
        moved.append((key, rows))
    return moved


def _moved_leaves(a, b):
    """(path, old, new) of every report leaf whose value or type moves."""
    la, lb = dict(_leaves(a)), dict(_leaves(b))
    for path in list(la) + [p for p in lb if p not in la]:
        x, y = la.get(path, "<missing>"), lb.get(path, "<missing>")
        if x != y or type(x) is not type(y):
            yield path, x, y


def _field(path):
    """The report field a leaf's path names: within a check record, its key
    there (max_residual, pass, points_used), else its path."""
    return ".".join(map(str, path[2:] if path[0] == "checks" else path[1:])) or path[0]


def _report_rows(a, b):
    """One row per check (or top-level key) whose report values move, with
    the largest |change| among them."""
    groups = {}
    for path, x, y in _moved_leaves(a, b):
        where = (a["checks"][path[1]]["name"] if path[0] == "checks" and path[1] < len(a["checks"])
                 else path[0])
        groups.setdefault(where, []).append((_field(path), x, y, _change(x, y)))
    rows = []
    for where, changes in groups.items():
        sizes = [c for *_, c in changes if c is not None]
        text = ", ".join("%s %r -> %r" % (f, x, y) for f, x, y, _ in changes)
        rows.append((where, text, max(sizes) if len(sizes) == len(changes) else None))
    return rows


def _masked(lines):
    """The lines with every printed number masked: what they say beyond
    their digits."""
    return [NUMBER.sub("#", ln) for ln in lines]


def what_moved(old, new):
    """The kinds of bits that move from old to new: the sorted report fields
    that move, and the sorted moves beyond residual digits (a missing
    output, an exit code, a status-line word, a curvature or list-builders
    line with its numbers masked, a report field other than a residual, such
    as a pass flag or a point count)."""
    fields, beyond = set(), set()
    for key in set(old) | set(new):
        a, b = old.get(key), new.get(key)
        if a == b:
            continue
        if a is None or b is None:
            beyond.add("output")
            continue
        if a["exit"] != b["exit"]:
            beyond.add("exit code")
        for part, kind in (("status", "status-line word"), ("lines", key.split()[0] + " line")):
            if _masked(a.get(part, ())) != _masked(b.get(part, ())):
                beyond.add(kind)
        for path, _, _ in _moved_leaves(a.get("report", {}), b.get("report", {})):
            fields.add(_field(path))
    beyond |= fields - RESIDUALS
    return sorted(fields), sorted(beyond)


def render(moved, total, kinds=None):
    """The diff as text, one block per output that moves, and a last line
    that counts them and, given what_moved's kinds, names the report fields
    that move and says whether anything moves beyond residual digits."""
    lines = []
    for key, rows in moved:
        lines.append(key)
        for where, text, size in rows:
            tail = "" if size is None else "  (largest |change| %.2g)" % size
            lines.append("  %s: %s%s" % (where, text, tail))
    last = "%d of %d outputs move" % (len(moved), total)
    if moved and kinds is not None:
        fields, beyond = kinds
        last += "; report fields that move: %s; %s" % (
            ", ".join(fields) or "none",
            "beyond residual digits, these move: " + ", ".join(beyond) if beyond else
            "exit codes, pass flags, point counts and status-line words hold")
    lines.append(last)
    return "\n".join(lines)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if list(argv) in (["-h"], ["--help"]):
        print(__doc__.strip())
        return 0
    if len(argv) != 2:
        print("usage: python tools/diff_reports.py PARENT_TREE CHANGE_TREE\n"
              "(bit-level identity holds on one host and one BLAS kernel; --help says more)",
              file=sys.stderr)
        return 2
    old, new = collect_trees(*argv)
    moved = diff(old, new)
    print(render(moved, len(set(old) | set(new)), what_moved(old, new)))
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
