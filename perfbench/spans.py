"""Span tracing of delgen from outside the package.

``install(recorder)`` wraps every public function of every ``delgen`` module
wherever a module binds it (its own module, ``from ... import`` names and the
package's re-exports), plus ``SimplicialComplex.__init__``. The CLI's dispatch
table keeps the unwrapped verb functions, so ``cli.main``'s self time is the
time left outside every other layer. Each wrapped call records a
span (layer, start, end, parent); spans stay in memory until ``dump``, and
layers.py turns them into per-layer calls and self times. The recorder keeps
only the work counts of WORK_COUNTS itself.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

clock = time.perf_counter


def _rows(result) -> int:
    return int(getattr(result, "shape", (0,))[0])


def _points(args, kwargs) -> int:
    pts = args[0] if args else kwargs["points"]
    return int(pts.n if hasattr(pts, "n") else len(pts))


# Work counts taken at layer boundaries: layer -> {count: f(args, kwargs, result)}.
WORK_COUNTS = {
    "hull.eroded_boundary_samples": {"rows": lambda a, k, r: _rows(r)},
    "delaunay.delaunay_lifted": {"points": lambda a, k, r: _points(a, k)},
    "delaunay.relaxed_delaunay": {"undecided": lambda a, k, r: len(r.undecided)},
    "metric.metric_circumcenter": {"none": lambda a, k, r: int(r is None)},
}


class Recorder:
    """Spans and work counts of one traced run."""

    def __init__(self) -> None:
        self.active = False
        self.spans: list[tuple[str, float, float, int]] = []
        self._stack: list[int] = []  # indices of the open spans
        self.work: dict[str, int] = defaultdict(int)

    def wrap(self, layer: str, fn):
        counts = WORK_COUNTS.get(layer, {})

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append((layer, 0.0, 0.0, parent))
            self._stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                self.spans[index] = (layer, start, end, parent)
            for stat, f in counts.items():
                self.work[f"{layer}.{stat}"] += f(args, kwargs, result)
            return result

        return traced

    def dump(self, path: str) -> None:
        layers = sorted({s[0] for s in self.spans})
        index = {name: i for i, name in enumerate(layers)}
        doc = {"layers": layers,
               "columns": ["layer", "start", "end", "parent"],
               "spans": [[index[n], round(a, 7), round(b, 7), p]
                         for n, a, b, p in self.spans]}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def install(recorder: Recorder) -> None:
    """Wrap delgen's public functions everywhere the package binds them.

    Call after importing every delgen module the run uses.
    """
    modules = {name: mod for name, mod in sys.modules.items()
               if name == "delgen" or name.startswith("delgen.")}
    wrappers = {}
    for name, mod in modules.items():
        short = name.rpartition(".")[2]
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == name):
                wrappers[obj] = recorder.wrap(f"{short}.{attr}", obj)
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, attr, wrappers[obj])
    cls = modules["delgen.complexes"].SimplicialComplex
    cls.__init__ = recorder.wrap("complexes.SimplicialComplex", cls.__init__)
