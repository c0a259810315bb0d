"""In-memory spans and numpy kernel counters.

One `Tracer` serves both the harness's own timers (one `bench.point` span per
point) and the traced run, where `install` wraps the public functions of the
program's modules from outside. Kernel calls (`numpy.linalg.eigh`,
`numpy.linalg.eigvalsh`, `numpy.einsum`) are not spans: they are counted and
timed, and attributed to the innermost open span.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import time

import numpy as np

# kernel name -> (owner object, attribute)
KERNELS = {
    "eigh": (np.linalg, "eigh"),
    "eigvalsh": (np.linalg, "eigvalsh"),
    "einsum": (np, "einsum"),
}


class Tracer:
    """Spans kept as [name, start, end, parent, point] in call order."""

    def __init__(self):
        self.spans: list[list] = []
        self.point = None
        self.names: set[str] = set()  # every wrapped name, called or not
        # (span name, kernel) -> [calls, matrices, work_n3, dim_max, seconds]
        self.kernels: dict[tuple[str, str], list] = {}
        self._stack: list[int] = []
        self._depth: dict[str, int] = {}
        self._outer: list[bool] = []
        self._patches: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        depth = self._depth.get(name, 0)
        self._depth[name] = depth + 1
        self._outer.append(depth == 0)
        self._stack.append(idx)
        self.spans.append([name, time.perf_counter(), None, parent, self.point])
        return idx

    def end(self, idx: int) -> float:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self._stack.pop()
        self._depth[span[0]] -= 1
        return span[2] - span[1]

    def wrap(self, fn, name: str):
        self.names.add(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)

        return traced

    # -- kernels -----------------------------------------------------------

    def _count(self, fn, kernel: str):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            dt = time.perf_counter() - t0
            key = (self.spans[self._stack[-1]][0], kernel)
            rec = self.kernels.setdefault(key, [0, 0, 0, 0, 0.0])
            rec[0] += 1
            rec[4] += dt
            if kernel != "einsum":
                shape = np.shape(args[0] if args else kwargs["a"])
                batch, n = math.prod(shape[:-2]), shape[-1]
                rec[1] += batch
                rec[2] += batch * n**3
                rec[3] = max(rec[3], n)
            return out

        return counted

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, layers: dict, methods=()):
        """Wrap every public function defined in each layer module, and each
        (class, attribute, span name) in `methods`.

        A wrapper replaces the function under every name that refers to it in
        any of the given modules, so `from x import f` bindings are traced too.
        """
        modules = list(layers.values())
        for short, mod in layers.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                wrapper = self.wrap(obj, f"{short}.{attr}")
                for other in modules:
                    for name, val in list(vars(other).items()):
                        if val is obj:
                            self._patch(other, name, wrapper)
        for cls, attr, name in methods:
            self._patch(cls, attr, self.wrap(vars(cls)[attr], name))
        for kernel, (owner, attr) in KERNELS.items():
            self._patch(owner, attr, self._count(getattr(owner, attr), kernel))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def layers(self) -> dict:
        """name -> {calls, s, self_s}. `s` is inclusive and counts only the
        outermost of nested spans of one name; `self_s` is the duration minus
        the time covered by child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            rec = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            rec["calls"] += 1
            rec["self_s"] += (end - start) - child[i]
            if self._outer[i]:
                rec["s"] += end - start
        return out

    def kernel_totals(self) -> dict:
        """kernel -> {calls, matrices, work_n3, dim_max, s} over all spans."""
        out = {k: {"calls": 0, "matrices": 0, "work_n3": 0, "dim_max": 0, "s": 0.0}
               for k in KERNELS}
        for (_, kernel), (calls, mats, work, dim, secs) in self.kernels.items():
            rec = out[kernel]
            rec["calls"] += calls
            rec["matrices"] += mats
            rec["work_n3"] += work
            rec["dim_max"] = max(rec["dim_max"], dim)
            rec["s"] += secs
        return out

    def dump(self, path: str, extra: dict | None = None):
        """Write spans, per-name aggregates and kernel counters as JSON."""
        doc = dict(extra or {})
        doc["layers"] = self.layers()
        doc["kernels"] = self.kernel_totals()
        doc["kernels_by_span"] = [
            {"span": span, "kernel": kernel, "calls": c, "matrices": m,
             "work_n3": w, "dim_max": d, "s": s}
            for (span, kernel), (c, m, w, d, s) in sorted(self.kernels.items())
        ]
        doc["spans"] = self.spans
        with open(path, "w") as fh:
            json.dump(doc, fh)
