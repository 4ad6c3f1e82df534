"""Spans around calls into the gmtlab layers, and their reduction to metrics.

The tracer wraps public functions of the library from outside: src/ is not
changed.  A module that imported a function by name holds its own reference
(raster imports eval_phase_batch, cli imports run_scenario and write_report),
so every module attribute that is the original function object is replaced,
not only the one in the defining module.

Each span is (name, key, start, end, parent, counts, rss_rise_mb).  Self time
is a span's duration minus its direct children's durations; the process is
single-threaded, so children never overlap.  Memory is the rise of the
process high-water mark (ru_maxrss) inside a span minus its children's rise:
tracemalloc would give a per-allocation peak but slows the Python-heavy
scanline kernels 2x to 6.6x, which would both distort the attribution and
push a traced run past its time limit.
"""

from __future__ import annotations

import functools
import importlib
import os
import resource
import sys
import time

# layer (module of src/gmtlab) -> public functions timed in it
LAYERS = {
    "cli": ("main",),
    "scenarios": ("run_scenario",),
    "raster": ("rasterize_circles", "union_scanline", "rasterize_band",
               "rasterize_triangles", "max_inscribed_interval",
               "monte_carlo_intersection", "write_pgm"),
    "phase": ("eval_phase_batch",),
    "fractal": ("product_point_cloud", "perron_tree", "fat_cantor",
                "verify_direction_coverage"),
    "spectral": ("incidence_density", "lp_projection_norms", "mollify",
                 "surface_spectrum"),
    "reporting": ("write_report",),
}

# scenario ids whose run_scenario self time is reported separately
SCENARIO_IDS = ("fixed-level-positivity", "flat-counterexample",
                "discrete-incidence", "intersection-hypothesis",
                "interior-failure", "kakeya-compression",
                "bourgain-compression", "transversality")


def _points(args, kwargs, result):
    ys = kwargs.get("ys", args[2] if len(args) > 2 else None)
    shape = getattr(ys, "shape", None)
    return (shape[0] if shape and len(shape) > 1 else 1,)


# counts observed at the call boundary: name -> (count names,
# (args, kwargs, result) -> one value per count name)
COUNTERS = {
    "raster.rasterize_circles": (("shapes", "cells_covered"),
                                 lambda a, k, r: (len(a[0]), int(r[2].sum()))),
    "raster.union_scanline": (("shapes",), lambda a, k, r: (len(a[0]),)),
    "raster.monte_carlo_intersection": (
        ("samples", "hits"), lambda a, k, r: (int(r.samples), int(r.hits))),
    "raster.write_pgm": (("bytes",), lambda a, k, r: (os.path.getsize(a[1]),)),
    "phase.eval_phase_batch": (("points",), _points),
    "reporting.write_report": (
        ("bytes",), lambda a, k, r: (sum(os.path.getsize(p) for p in r),)),
}

# spans whose `key` (first argument) splits the metric, e.g. by scenario id
KEYED = {"scenarios.run_scenario"}


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Installs span-recording wrappers into the loaded gmtlab modules."""

    def __init__(self):
        self.spans = []          # [name, key, start, end, parent, counts, rise]
        self._stack = []
        self._patched = []       # (module, attribute, original)

    def install(self):
        wrappers = {}
        for layer, names in LAYERS.items():
            mod = importlib.import_module(f"gmtlab.{layer}")
            for fname in names:
                fn = getattr(mod, fname)
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{fname}", fn))
        for modname, mod in list(sys.modules.items()):
            if modname != "gmtlab" and not modname.startswith("gmtlab."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, val))

    def uninstall(self):
        for mod, attr, val in reversed(self._patched):
            setattr(mod, attr, val)
        self._patched.clear()

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name, (None, None))[1]
        keyed = name in KEYED
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, args[0] if keyed else None, 0.0, 0.0,
                    stack[-1] if stack else -1, None, 0.0]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            rss0 = _maxrss_mb()
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                span[6] = _maxrss_mb() - rss0
                stack.pop()
            if counter is not None:
                span[5] = counter(args, kwargs, result)
            return result

        return traced


def metric_names():
    """Every per-layer metric reduce() emits, with its unit, in order."""
    out = []
    for layer, names in LAYERS.items():
        out.append((f"{layer}.self_s", "s"))
        out.append((f"{layer}.maxrss_rise_mb", "MiB"))
        for fname in names:
            full = f"{layer}.{fname}"
            if full in KEYED:
                out.extend((f"{full}.{sid}.self_s", "s") for sid in SCENARIO_IDS)
                continue
            out.append((f"{full}.s", "s"))
            out.append((f"{full}.calls", "count"))
            if full in COUNTERS:
                out.extend((f"{full}.{c}", "count") for c in COUNTERS[full][0])
    out.append(("raster.monte_carlo_intersection.hit_ratio", "ratio"))
    out.extend([("trace.spans", "count"), ("trace.unattributed_s", "s")])
    return out


def self_times(spans):
    """Per-span self time: duration minus the direct children's durations."""
    self_s = [end - start for _, _, start, end, _, _, _ in spans]
    rise = [span[6] for span in spans]
    for name, key, start, end, parent, counts, r in spans:
        if parent >= 0:
            self_s[parent] -= end - start
            rise[parent] -= r
    return self_s, rise


def reduce(spans, wall_s):
    """Per-layer metrics {name: value} from one traced pass of wall_s seconds."""
    values = {name: 0 for name, _ in metric_names()}
    self_s, rise = self_times(spans)
    top = 0.0
    for i, (name, key, start, end, parent, counts, _) in enumerate(spans):
        layer = name.split(".", 1)[0]
        values[f"{layer}.self_s"] += self_s[i]
        values[f"{layer}.maxrss_rise_mb"] += rise[i]
        if parent < 0:
            top += end - start
        if name in KEYED:
            metric = f"{name}.{key}.self_s"
            if metric in values:
                values[metric] += self_s[i]
            continue
        values[f"{name}.s"] += self_s[i]
        values[f"{name}.calls"] += 1
        if counts is not None:
            for cname, n in zip(COUNTERS[name][0], counts):
                values[f"{name}.{cname}"] += n
    samples = values["raster.monte_carlo_intersection.samples"]
    hits = values["raster.monte_carlo_intersection.hits"]
    values["raster.monte_carlo_intersection.hit_ratio"] = hits / samples if samples else 0.0
    values["trace.spans"] = len(spans)
    values["trace.unattributed_s"] = wall_s - top
    return values
