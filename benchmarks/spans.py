"""Span recorder for the traced benchmark run.

A span is recorded around each call the benchmark makes into a layer of
torusradon: name, start, end, parent span and operation id. Spans stay in
memory and are written as JSON lines when the run ends. Self time is a
span's duration minus the part of it that its child spans cover. Spans that
ask for it also record the tracemalloc peak reached inside them, measured
only while tracemalloc is running (traced operations only).
"""

from __future__ import annotations

import json
import statistics
import time
import tracemalloc
from contextlib import contextmanager, nullcontext

# Per-layer metrics. A time metric is the per-operation median of summed self
# time of the span its name starts with; an alloc metric the per-operation
# median of the largest tracemalloc peak among its spans; a count the
# per-operation median of a value recorded with Tracer.count (they repeat
# exactly). sinogram.fill_ratio is the recorded sinogram.usable_cells over
# sinogram.stored_cells.
TIME_LAYERS = [
    "lattice.cover", "sinogram.weight", "phantoms.build", "transforms.forward",
    "experiments.noise", "inversion.filtered", "inversion.normalized", "inversion.sum",
    "inversion.slice", "regularization.tikhonov", "bridge.ingest", "io.write", "io.read",
    "cli.phantom", "cli.forward", "cli.reconstruct", "cli.sweep", "cli.selftest",
]
ALLOC_METRICS = {
    "transforms.forward_alloc_mb": ("transforms.forward",),
    "experiments.noise_alloc_mb": ("experiments.noise",),
    "inversion.alloc_mb": ("inversion.filtered", "inversion.normalized", "inversion.sum",
                           "inversion.slice"),
}
COUNT_METRICS = {
    "sinogram.stored_cells": "count",
    "io.files_written": "count",
    "io.bytes_written": "bytes",
    "io.files_read": "count",
    "io.bytes_read": "bytes",
}
ALLOC_SPANS = {name for names in ALLOC_METRICS.values() for name in names}


def per_layer_units() -> dict[str, str]:
    units = {f"{name}_s": "s" for name in TIME_LAYERS}
    units.update({name: "MB" for name in ALLOC_METRICS})
    units.update(COUNT_METRICS)
    units["sinogram.fill_ratio"] = "ratio"
    return units


class Tracer:
    """Collects spans and counts while `enabled`; a disabled tracer records
    nothing and its spans cost one attribute test."""

    def __init__(self):
        self.enabled = False
        self.op = 0
        self.spans: list[dict] = []
        self.counts: list[dict] = []
        self.alloc_ops: set[int] = set()
        self._stack: list[int] = []

    def span(self, name: str):
        return self._span(name) if self.enabled else nullcontext()

    @contextmanager
    def _span(self, name: str):
        rec = {"name": name, "op": self.op, "parent": self._stack[-1] if self._stack else None}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        alloc = name in ALLOC_SPANS and tracemalloc.is_tracing()
        if alloc:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        rec["start"] = time.perf_counter()
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            if alloc:
                rec["alloc_mb"] = (tracemalloc.get_traced_memory()[1] - base) / 2**20
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        if self.enabled:
            self.counts.append({"name": name, "op": self.op, "value": value})

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for i, rec in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **rec}, sort_keys=True) + "\n")
            for rec in self.counts:
                fh.write(json.dumps({"count": rec["name"], "op": rec["op"],
                                     "value": rec["value"]}, sort_keys=True) + "\n")

    def per_layer(self) -> dict[str, float]:
        """Every per-layer metric. Times and counts come from the operations
        traced without tracemalloc, allocation peaks from those traced with
        it. A time layer with no span inside a timed operation (op >= 1)
        takes its set-up figure (op 0); a layer the workload never calls
        reads 0."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec["parent"] is not None:
                child[rec["parent"]] += rec["end"] - rec["start"]
        self_time: dict[tuple[str, int], float] = {}
        alloc: dict[tuple[str, int], float] = {}
        for i, rec in enumerate(self.spans):
            key = (rec["name"], rec["op"])
            self_time[key] = self_time.get(key, 0.0) + rec["end"] - rec["start"] - child[i]
            if "alloc_mb" in rec:
                alloc[key] = max(alloc.get(key, 0.0), rec["alloc_mb"])
        traced = {rec["op"] for rec in self.spans if rec["op"] >= 1}
        ops = sorted(traced - self.alloc_ops)
        alloc_ops = sorted(traced & self.alloc_ops)
        out = {}
        for name in TIME_LAYERS:
            timed = [self_time.get((name, op), 0.0) for op in ops]
            if any(timed):
                out[f"{name}_s"] = statistics.median(timed)
            else:
                out[f"{name}_s"] = self_time.get((name, 0), 0.0)
        for metric, names in ALLOC_METRICS.items():
            peaks = [max(alloc.get((n, op), 0.0) for n in names) for op in alloc_ops]
            out[metric] = statistics.median(peaks) if peaks else 0.0
        counts = {}
        for metric in (*COUNT_METRICS, "sinogram.usable_cells"):
            per_op = {}
            for rec in self.counts:
                if rec["name"] == metric and rec["op"] in ops:
                    per_op[rec["op"]] = per_op.get(rec["op"], 0) + rec["value"]
            counts[metric] = statistics.median(per_op.values()) if per_op else 0.0
        stored = counts.pop("sinogram.stored_cells")
        usable = counts.pop("sinogram.usable_cells")
        out["sinogram.stored_cells"] = stored
        out["sinogram.fill_ratio"] = usable / stored if stored else 0.0
        out.update(counts)
        return out
