"""Span and count tracing of kahlerkit, installed from outside the library.

``Tracer`` replaces every public module-level function of the kahlerkit layer
modules with a wrapper, in every module that binds it: a function imported
with ``from kahlerkit.fields import metric_jets`` is a second binding in the
importing module, and both are patched.  Most wrappers record a span on a
span stack, so a function's self time is its span time minus the time of the
spans it caused.  Jet arithmetic runs millions of times per pass at a few
microseconds a call, so timing it from outside would cost more than the
work: the ``Jet2`` operator methods and ``Jet2.seed`` are only counted, the
elementwise jet helpers are left alone, and their time lands in the self
time of the calling span.  ``uninstall`` puts every original object back.
"""

import importlib
import inspect
import sys
import time

import numpy as np

LAYERS = ("jets", "fields", "hermitian", "foliation", "calabi", "twist",
          "almost_kahler", "scenarios", "cli")

# Jet2 methods counted as jets.ops: every arithmetic entry point, inv included.
JET_OPS = ("__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__",
           "__rmul__", "inv", "__truediv__", "__rtruediv__", "__pow__")

# Public jets functions that build or transform single jets; not wrapped.
JET_HELPERS = frozenset(("jlog", "jexp", "jsin", "jcos", "jtan", "jsqrt",
                         "jconst", "jsize", "jeye", "jzeros", "jet_dcoord"))


class Tracer:
    """Install with ``with Tracer() as tr:``; read ``tr.spans`` and
    ``tr.counts`` afterwards.

    spans maps "layer.function" to [calls, self seconds, inclusive seconds];
    a re-entrant call adds to self time but not again to inclusive time.
    counts holds jets.ops and jets.seeds; points is the set of distinct
    seeded points.
    """

    def __init__(self):
        self.spans = {}
        self.counts = {"jets.ops": 0, "jets.seeds": 0}
        self.points = set()
        self._stack = []
        self._depth = {}
        self._saved = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn):
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        depth = self._depth
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stats[0] += 1
            children = [0.0]
            stack.append(children)
            depth[name] = depth.get(name, 0) + 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stats[1] += dt - children[0]
                depth[name] -= 1
                if not depth[name]:
                    stats[2] += dt
                if stack:
                    stack[-1][0] += dt

        wrapper.__wrapped__ = fn
        return wrapper

    def _op_counter(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts["jets.ops"] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _seed_counter(self, fn):
        counts = self.counts
        points = self.points

        def seed(p):
            counts["jets.seeds"] += 1
            points.add(np.asarray(p, float).tobytes())
            return fn(p)

        seed.__wrapped__ = fn
        return staticmethod(seed)

    # -- install / uninstall -----------------------------------------------

    def _set(self, owner, attr, new):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        if self._saved:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module("kahlerkit." + layer)
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__
                        or (layer == "jets" and attr in JET_HELPERS)):
                    continue
                wrappers[obj] = self._span(layer + "." + attr, obj)
        for modname in sorted(sys.modules):
            if modname != "kahlerkit" and not modname.startswith("kahlerkit."):
                continue
            mod = sys.modules[modname]
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(mod, attr, wrappers[obj])
        jet2 = sys.modules["kahlerkit.jets"].Jet2
        for attr in JET_OPS:
            self._set(jet2, attr, self._op_counter(jet2.__dict__[attr]))
        self._set(jet2, "seed", self._seed_counter(jet2.__dict__["seed"].__func__))

    def uninstall(self):
        while self._saved:
            owner, attr, obj = self._saved.pop()
            setattr(owner, attr, obj)
        self._stack.clear()
        self._depth.clear()


def find_wrappers():
    """Names of kahlerkit bindings that still hold a tracer wrapper."""
    found = []
    for modname in sorted(sys.modules):
        if modname != "kahlerkit" and not modname.startswith("kahlerkit."):
            continue
        for attr, obj in vars(sys.modules[modname]).items():
            holders = [(attr, obj)]
            if inspect.isclass(obj) and obj.__module__ == modname:
                holders = [(attr + "." + k, v) for k, v in vars(obj).items()]
            for name, val in holders:
                val = getattr(val, "__func__", val)
                if inspect.isfunction(val) and val.__module__ == __name__:
                    found.append(modname + "." + name)
    return found
