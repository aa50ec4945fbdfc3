"""Span tracing of hapmap's public functions, installed from outside the package.

``Tracer.installed()`` swaps each function named in ``TRACED`` for a timing
wrapper by setting module attributes, in the defining module and in every
other ``hapmap`` module that imported the function by name (``pipeline``
does so for the synthgrid and labeling calls).  Calls between functions of
one module go through its globals, so ``detect_ground`` nests its
``compute_depth_cuts`` and ``split_subcuts`` spans.  The originals come back
when the ``with`` block ends.

A span is ``[name, start, end, parent, op, counts]``: ``parent`` indexes the
enclosing span (-1 for none), ``op`` is the operation id set by the caller,
``counts`` holds figures read off the arguments and return value.  Spans
stay in memory until ``dump`` writes them once.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from contextlib import contextmanager

#: traced functions per module: the stages of run_pipeline and train
TRACED = {
    "depthio": ("load_depth_pgm", "backproject", "depth_to_pgm"),
    "dcgd": ("detect_ground", "compute_depth_cuts", "split_subcuts",
             "ground_elevation"),
    "segment": ("voxel_downsample", "dbscan", "extract_segments"),
    "geomfeat": ("footprint", "height_p90", "classify_geometry"),
    "classifier": ("load_model", "predict_gated", "train", "loss_and_grads",
                   "evaluate", "save_model"),
    "labeling": ("builtin_sheet", "stairs_direction"),
    "synthgrid": ("rasterize_scene", "emit", "map_to_area",
                  "clamp_into_frustum"),
    "scenegen": ("render_depth", "build_synthetic_dataset"),
    "pipeline": ("run_pipeline",),
}

#: counts taken from a call: span name -> fn(args, result) -> {count: value}
COUNTS = {
    "depthio.backproject": lambda a, r: {"depthio.valid_px": len(r)},
    "dcgd.detect_ground": lambda a, r: {"dcgd.ground_px": int(r.sum())},
    "segment.voxel_downsample": lambda a, r: {
        "segment.occupied_pts": len(a[0]), "segment.voxels": len(r)},
    "segment.dbscan": lambda a, r: {
        "segment.clusters": r.k,
        "segment.noise_pts": int((r.labels == -1).sum())},
    "classifier.predict_gated": lambda a, r: {
        "classifier.accepted": int(r.accepted)},
    "synthgrid.rasterize_scene": lambda a, r: {
        "synthgrid.raised_pins": int((r.cells >= 2).sum())},
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []

    def _wrap(self, name, fn):
        count = COUNTS.get(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, time.perf_counter(), None,
                    stack[-1] if stack else -1, self.op, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                span[5] = count(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Swap in the wrappers for the block, restoring the originals after."""
        wrappers = {}
        for mod_name, names in TRACED.items():
            module = sys.modules[f"hapmap.{mod_name}"]
            for fn_name in names:
                fn = getattr(module, fn_name)
                wrappers[id(fn)] = self._wrap(f"{mod_name}.{fn_name}", fn)
        swapped = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "hapmap" and not mod_name.startswith("hapmap."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    setattr(module, attr, wrapper)
                    swapped.append((module, attr, value))
        try:
            yield self
        finally:
            for module, attr, value in swapped:
                setattr(module, attr, value)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op",
                                  "counts"], "spans": self.spans}, fh)


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Calls run on one thread, so children never overlap each other.
    """
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def per_op(spans, ops, value) -> list[float]:
    """value(span) summed over each op's spans (0 where none), one per op."""
    sums = dict.fromkeys(ops, 0.0)
    for i, s in enumerate(spans):
        if s[4] in sums:
            v = value(i, s)
            if v:
                sums[s[4]] += v
    return [sums[op] for op in ops]


def layer_metrics(spans, ops) -> dict[str, tuple[float, str]]:
    """Per-layer figures, each the median over ops, as {name: (value, unit)}."""
    own = self_times(spans)

    def ms(name):
        return statistics.median(per_op(
            spans, ops, lambda i, s: (s[2] - s[1]) * 1e3 if s[0] == name else 0))

    def self_ms(name):
        return statistics.median(per_op(
            spans, ops, lambda i, s: own[i] * 1e3 if s[0] == name else 0))

    def calls(name):
        return statistics.median(per_op(
            spans, ops, lambda i, s: s[0] == name))

    def count(key):
        return statistics.median(per_op(
            spans, ops, lambda i, s: (s[5] or {}).get(key, 0)))

    valid = per_op(spans, ops, lambda i, s: (s[5] or {}).get("depthio.valid_px", 0))
    ground = per_op(spans, ops, lambda i, s: (s[5] or {}).get("dcgd.ground_px", 0))
    shares = [g / v if v else 0.0 for g, v in zip(ground, valid)]

    return {
        "depthio.load_depth_pgm_ms": (ms("depthio.load_depth_pgm"), "ms"),
        "depthio.backproject_ms": (ms("depthio.backproject"), "ms"),
        "depthio.valid_px": (count("depthio.valid_px"), "count"),
        "dcgd.detect_ground_ms": (ms("dcgd.detect_ground"), "ms"),
        "dcgd.detect_ground_self_ms": (self_ms("dcgd.detect_ground"), "ms"),
        "dcgd.compute_depth_cuts_ms": (ms("dcgd.compute_depth_cuts"), "ms"),
        "dcgd.split_subcuts_ms": (ms("dcgd.split_subcuts"), "ms"),
        "dcgd.split_subcuts_calls": (calls("dcgd.split_subcuts"), "count"),
        "dcgd.ground_elevation_ms": (ms("dcgd.ground_elevation"), "ms"),
        "dcgd.ground_px": (count("dcgd.ground_px"), "count"),
        "dcgd.ground_share": (statistics.median(shares), "ratio"),
        "segment.occupied_pts": (count("segment.occupied_pts"), "count"),
        "segment.voxel_downsample_ms": (ms("segment.voxel_downsample"), "ms"),
        "segment.voxels": (count("segment.voxels"), "count"),
        "segment.dbscan_ms": (ms("segment.dbscan"), "ms"),
        "segment.clusters": (count("segment.clusters"), "count"),
        "segment.noise_pts": (count("segment.noise_pts"), "count"),
        "segment.extract_segments_ms": (ms("segment.extract_segments"), "ms"),
        "geomfeat.footprint_ms": (ms("geomfeat.footprint"), "ms"),
        "geomfeat.footprint_calls": (calls("geomfeat.footprint"), "count"),
        "geomfeat.height_p90_ms": (ms("geomfeat.height_p90"), "ms"),
        "classifier.load_model_ms": (ms("classifier.load_model"), "ms"),
        "classifier.predict_gated_ms": (ms("classifier.predict_gated"), "ms"),
        "classifier.predict_gated_calls": (calls("classifier.predict_gated"),
                                           "count"),
        "classifier.accepted": (count("classifier.accepted"), "count"),
        "classifier.loss_and_grads_ms": (ms("classifier.loss_and_grads"), "ms"),
        "classifier.loss_and_grads_calls": (calls("classifier.loss_and_grads"),
                                            "count"),
        "classifier.evaluate_ms": (ms("classifier.evaluate"), "ms"),
        "classifier.train_self_s": (self_ms("classifier.train") / 1e3, "s"),
        "labeling.builtin_sheet_ms": (ms("labeling.builtin_sheet"), "ms"),
        "labeling.stairs_direction_calls": (calls("labeling.stairs_direction"),
                                            "count"),
        "synthgrid.rasterize_scene_ms": (ms("synthgrid.rasterize_scene"), "ms"),
        "synthgrid.emit_ms": (ms("synthgrid.emit"), "ms"),
        "synthgrid.raised_pins": (count("synthgrid.raised_pins"), "count"),
        "pipeline.self_ms": (self_ms("pipeline.run_pipeline"), "ms"),
    }
