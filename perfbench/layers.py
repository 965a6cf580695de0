"""Per-layer tracing of one chowops CLI run, from outside the library.

Every entry point below is replaced by a wrapper that opens a span on a
stack.  When a span closes, its duration minus the time its child spans
covered is added to its layer's self time, and its duration is added to
the parent's child time.  The self times of all layers therefore sum to
the duration of the outermost span, the `cli.main` call.

A function is patched at the name its caller looks up at call time.  A
module that did `from .x import f` holds its own binding of `f`, so that
binding is patched too; a module that calls `fl.matmul` or `gp.f` looks
the name up on the other module, so patching that module covers it.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "localization", "chow", "groups",
          "fp_linalg.matmul", "fp_linalg.elim")

ELIM = ("rref", "rank", "kernel_matrix", "kernel_basis", "solve",
        "image_contains", "residual_map", "quotient_data")

# (module, attribute, layer)
FUNCTIONS = (
    # cli did `from .localization import ...`
    [("chowops.cli", name, "localization")
     for name in ("build_lambda", "f_iso_check", "d0_estimate",
                  "bounds_report")]
    # d0_estimate / d1_estimate call build_lambda by its module-global name
    + [("chowops.localization", "build_lambda", "localization")]
    # localization did `from .chow import ...`
    + [("chowops.localization", name, "chow")
       for name in ("abelian_ring", "restriction_map", "ring_module")]
    # callers use `gp.<name>`, and groups calls its own globals by name
    + [("chowops.groups", name, "groups")
       for name in ("load_group", "elementary_abelians", "rep_classes",
                    "abelian_p_basis", "abelian_coordinates")]
    # callers use `fl.<name>`; inside fp_linalg, rank/solve/kernel_matrix
    # reach rref through the module globals, so nested calls are seen
    + [("chowops.fp_linalg", "matmul", "fp_linalg.matmul")]
    + [("chowops.fp_linalg", name, "fp_linalg.elim") for name in ELIM]
)

# (module, class, method, layer).  ChowRing.dim and ChowRing.basis are
# left out on purpose: they run ~10^5 times per equalizer build, so a
# wrapper there would measure itself.
METHODS = (
    [("chowops.chow", "ChowRing", name, "chow")
     for name in ("coords", "mul", "power", "act", "normal_form")]
    + [("chowops.chow", "RingMap", "matrix", "chow"),
       ("chowops.groups", "FiniteGroup", "__init__", "groups")]
)


def _dims(shape):
    """(rows, cols) of a matrix operand; a vector counts as one column."""
    if len(shape) == 2:
        return shape
    return (shape[0] if shape else 1), 1


class Tracer:
    """Span stack, per-layer self time and the exact work counters."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []
        self._maps_seen = set()

    def wrap(self, fn, layer, count=None):
        stack = self._stack
        self_s = self.self_s
        clock = time.perf_counter

        def traced(*args, **kwargs):
            t0 = clock()
            stack.append(0.0)
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_s[layer] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
            if count is not None:
                count(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    # -- counters, called after the wrapped function returns ----------

    def _count_matmul(self, args, out):
        m, k = _dims(np.shape(args[0]))
        n = _dims(np.shape(args[1]))[1]
        self.counts["fp_linalg.matmul_calls"] += 1
        self.counts["fp_linalg.matmul_macs"] += m * k * n

    def _count_rref(self, args, out):
        rows, cols = _dims(out[0].shape)
        self.counts["fp_linalg.rref_calls"] += 1
        self.counts["fp_linalg.rref_cells"] += rows * cols

    def _count_matrix(self, args, out):
        rmap, d = args
        key = (tuple(rmap.source.generators), tuple(rmap.target.generators),
               tuple(tuple(sorted(r.items())) for r in rmap.target.relations),
               tuple(tuple(sorted(f.items())) for f in rmap.images), d)
        self.counts["chow.matrix_calls"] += 1
        if key in self._maps_seen:
            self.counts["chow.matrix_repeats"] += 1
        self._maps_seen.add(key)

    def _counter(self, name):
        def count(args, out):
            self.counts[name] += 1
        return count

    # -- installation ------------------------------------------------------

    def install(self):
        """Patch every entry point; one wrapper per original function, so
        a function bound under two names is counted once per call."""
        counters = {
            "matmul": self._count_matmul,
            "rref": self._count_rref,
            "matrix": self._count_matrix,
            "build_lambda": self._counter("localization.build_lambda_calls"),
            "elementary_abelians":
                self._counter("groups.elementary_abelians_calls"),
        }
        wrapped = {}
        for mod_name, attr, layer in FUNCTIONS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            if fn not in wrapped:
                wrapped[fn] = self.wrap(fn, layer, counters.get(attr))
            setattr(mod, attr, wrapped[fn])
        for mod_name, cls_name, attr, layer in METHODS:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            setattr(cls, attr,
                    self.wrap(getattr(cls, attr), layer, counters.get(attr)))

    def metrics(self):
        """Self seconds per layer plus the exact counters."""
        out = {f"{layer}.self_s": self.self_s[layer] for layer in LAYERS}
        for name in ("fp_linalg.matmul_calls", "fp_linalg.matmul_macs",
                     "fp_linalg.rref_calls", "fp_linalg.rref_cells",
                     "chow.matrix_calls", "groups.elementary_abelians_calls",
                     "localization.build_lambda_calls"):
            out[name] = self.counts[name]
        calls = self.counts["chow.matrix_calls"]
        out["chow.matrix_repeat_ratio"] = (
            self.counts["chow.matrix_repeats"] / calls if calls else 0.0)
        return out
