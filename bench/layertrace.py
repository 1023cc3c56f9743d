"""Per-layer spans recorded from outside the program.

``LayerTracer`` replaces every public function of the traced costarb modules
with a wrapper that records a span (name, start, end, parent span, op) while
an operation is being measured. Every module-level binding of the original
function is replaced, so calls between modules (``from .dual import ...``)
are traced as well. A layer's self time is its spans' duration minus the
part covered by their child spans. Spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
from collections import defaultdict
from time import perf_counter

PACKAGE = "costarb"
LAYERS = ("instance", "dual", "arborescence", "asymptotics", "harness")


class LayerTracer:
    def __init__(self):
        self.op = None  # index of the measured operation; None records nothing
        self.spans: list = []
        self.counts: dict = defaultdict(float)  # (op, counter) -> value
        self._stack: list = []
        self._patched: list = []  # (module, attribute, original)

    def install(self) -> "LayerTracer":
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for name, mod in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    self._patched.append((mod, attr, obj))
        return self

    def uninstall(self) -> None:
        for mod, attr, obj in self._patched:
            setattr(mod, attr, obj)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        counts_cycles = name == "arborescence.solve_constrained_arborescence"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = self.op
            if op is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, op)
            if counts_cycles:
                self.counts[(op, "arborescence.cycles_broken")] += result.trace["cycles_broken"]
            return result

        return traced

    def per_op(self, ops: int):
        """Self time and call count of every span name, one entry per op."""
        self_time = [0.0] * len(self.spans)
        for i, (_, start, end, parent, _) in enumerate(self.spans):
            self_time[i] += end - start
            if parent >= 0:
                self_time[parent] -= end - start
        seconds = defaultdict(lambda: [0.0] * ops)
        calls = defaultdict(lambda: [0] * ops)
        for (name, _, _, _, op), t in zip(self.spans, self_time):
            seconds[name][op] += t
            calls[name][op] += 1
        return seconds, calls

    def metrics(self, ops: int, spec: dict) -> dict:
        """Per-op medians of self time and per-op means of counts, as named
        in ``spec``: metric -> (kind, span or counter name)."""
        seconds, calls = self.per_op(ops)
        out = {}
        for metric, (kind, name) in spec.items():
            if kind == "self_s":
                value, unit = statistics.median(seconds.get(name, [0.0] * ops)), "s"
            elif kind == "calls":
                value, unit = sum(calls.get(name, [0])) / ops, "count"
            else:
                value, unit = sum(self.counts[(op, name)] for op in range(ops)) / ops, "count"
            out[metric] = {"value": value, "unit": unit}
        return out

    def write(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {name: i for i, name in enumerate(names)}
        spans = [[index[n], start, end, parent, op] for n, start, end, parent, op in self.spans]
        with open(path, "w") as fh:
            json.dump({"names": names, "fields": ["name", "start", "end", "parent", "op"],
                       "spans": spans}, fh)
