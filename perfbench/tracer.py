"""Per-layer spans for ``annodiff``, recorded from outside the package.

A :class:`Tracer` replaces every binding of each traced function, in every
loaded ``annodiff`` module, with a wrapper that records a span: its function,
its duration and the time covered by the spans it caused. Self time is a
span's duration minus that covered part. Spans are kept aggregated in memory,
per function, and read out once the traced call has returned. Leaving the
``with`` block restores every binding it replaced.

Work counts are recorded at the same boundaries, from each call's arguments
or result (see ``COUNTERS``).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

import numpy as np

PACKAGE = "annodiff"
LAYER_MODULES = ("dataset", "matching", "raster", "surface", "stats", "deteval", "report", "cli")

# Private loops named as layers of their own: the evaluator's greedy matching
# pass and its pairwise mask IoU, the two kernels its time goes to.
PRIVATE_TARGETS = ("deteval._match_image", "deteval._mask_iou_with_crowd")


COUNTERS = {
    # name: (traced function, count taken from (args, result))
    "raster.edt_squared.px": ("raster.edt_squared", lambda args, result: int(np.size(args[0]))),
    "raster.rasterize.grid_px": ("raster.rasterize", lambda args, result: int(args[1]) * int(args[2])),
    "raster.rasterize.fg_px": ("raster.rasterize", lambda args, result: int(np.count_nonzero(result))),
    "deteval.detections": ("deteval.annotations_as_detections", lambda args, result: len(result)),
    "surface.contour_px": ("surface.surface_distances", lambda args, result: result[2] + result[3]),
    "dataset.instances": ("dataset.load_dataset", lambda args, result: len(result.instances)),
    "matching.pairs": ("matching.match_datasets", lambda args, result: len(result.pairs)),
}


def layer_functions(modules) -> dict[str, object]:
    """``{"<module>.<function>": function}`` for each traced function.

    Public functions count where they are defined, so a name imported into
    another module is traced under its home module.
    """
    out = {}
    for short, mod in modules.items():
        for name, obj in vars(mod).items():
            if name.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ == mod.__name__:
                out[f"{short}.{name}"] = obj
    for qual in PRIVATE_TARGETS:
        short, name = qual.split(".")
        obj = getattr(modules[short], name, None)
        if inspect.isfunction(obj):
            out[qual] = obj
    return out


class Tracer:
    """Aggregated spans of every traced ``annodiff`` function.

    ``calls[name]``, ``total[name]`` (inclusive seconds) and ``self_time[name]``
    accumulate over every call; ``counts`` holds the ``COUNTERS`` sums.
    """

    def __init__(self):
        __import__(f"{PACKAGE}.cli")
        self.modules = {m: sys.modules[f"{PACKAGE}.{m}"] for m in LAYER_MODULES}
        self.targets = layer_functions(self.modules)
        self.calls = {name: 0 for name in self.targets}
        self.total = {name: 0.0 for name in self.targets}
        self.self_time = {name: 0.0 for name in self.targets}
        self.counts = {name: 0 for name in COUNTERS}
        self._stack: list[list[float]] = []  # per open span: [time covered by children]
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        counters = [(c, take) for c, (target, take) in COUNTERS.items() if target == name]
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += span
                self.calls[name] += 1
                self.total[name] += span
                self.self_time[name] += span - frame[0]
            for counter, take in counters:
                self.counts[counter] += take(args, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in self.targets.items()}
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                # self.targets keeps every traced function alive, so its id is its own
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            mod, attr, value = self._saved.pop()
            setattr(mod, attr, value)

    def metrics(self) -> dict[str, float]:
        """Flat ``<name>.s``, ``<name>.self_s``, ``<name>.calls`` and counts."""
        out: dict[str, float] = {}
        for name in self.targets:
            out[f"{name}.s"] = self.total[name]
            out[f"{name}.self_s"] = self.self_time[name]
            out[f"{name}.calls"] = self.calls[name]
        out.update(self.counts)
        return out
