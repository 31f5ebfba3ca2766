"""In-memory span recorder for the traced benchmark run.

The package is not edited: `install` wraps the public functions of the
chosen xiverify modules from outside and rebinds each wrapper under every
name that refers to the original function in any package module.  The
modules import names directly (``from .specfun import zeta``), so patching
only the defining module would miss most calls.

A span is one call: (name, start, end, parent, cell, points, evals, T).
`parent` is the index of the enclosing span or -1, `cell` numbers the
enclosing ``cli._run_task`` call (one identity at one grid point) or -1,
`points` is the size of the largest numeric argument, and `evals` / `T` are
copied from a returned QuadratureResult.  Spans stay in memory until the
caller writes them out with `Tracer.dump`.
"""

import functools
import importlib
import json
import time

import numpy as np

LAYERS = ("cli", "identities", "quad", "xikernel", "numseries", "specfun",
          "zeros")

# The span that marks one CLI cell; spans below it share its cell number.
CELL_SPAN = "cli._run_task"

_NUMERIC = (int, float, complex, np.ndarray, np.number)


def _points(args):
    sizes = [np.size(a) for a in args if isinstance(a, _NUMERIC)]
    return max(sizes) if sizes else 0


class Tracer:
    """Collects spans from wrapped functions of one process."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._cells = 0

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if name == CELL_SPAN:
                cell = self._cells
                self._cells += 1
            else:
                cell = spans[parent][4] if parent >= 0 else -1
            index = len(spans)
            spans.append([name, time.perf_counter(), None, parent, cell,
                          _points(args), None, None])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()
            evals = getattr(result, "evaluations", None)
            if evals is not None:
                spans[index][6] = int(evals)
                spans[index][7] = float(result.truncation_T)
            return result

        return wrapper

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def install(tracer, layers=LAYERS, cells=True):
    """Wrap the public functions defined in `layers` and rebind them.

    With cells=True the private ``cli._run_task`` is wrapped as well, so
    spans carry a cell number; leave it off when cells run in worker
    processes, whose spans this process cannot see.
    """
    modules = [importlib.import_module("xiverify." + m) for m in LAYERS]
    modules.append(importlib.import_module("xiverify"))
    wrappers = {}
    for layer in layers:
        mod = importlib.import_module("xiverify." + layer)
        for attr, obj in list(vars(mod).items()):
            wanted = not attr.startswith("_") or (
                cells and "%s.%s" % (layer, attr) == CELL_SPAN)
            if (wanted and callable(obj) and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == mod.__name__):
                wrappers[id(obj)] = tracer.wrap("%s.%s" % (layer, attr), obj)
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrappers:
                setattr(mod, attr, wrappers[id(obj)])


def self_times(spans):
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to their parent and merged first, so overlapping
    or out-of-order children are never subtracted twice.
    """
    children = {}
    for s in spans:
        if s[3] >= 0:
            children.setdefault(s[3], []).append((s[1], s[2]))
    out = []
    for i, s in enumerate(spans):
        start, end = s[1], s[2]
        covered = 0.0
        reach = start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out
