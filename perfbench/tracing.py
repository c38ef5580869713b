"""Span recording around calls into vpcalib's public functions.

The program is not instrumented. Instead :class:`Tracer` replaces, for the
duration of a traced iteration, the module attributes through which the CLI
reaches each layer (``vpcalib.pipeline.select_vp`` and so on) with wrappers
that record a span per call. Spans stay in memory; :meth:`Tracer.write`
dumps them at the end of the run.

A span is ``{id, name, start, end, parent, workload, iteration, thread}``
plus per-call counts. The parent is the innermost open span of the calling
thread; spans opened in worker threads (``--parallel``) get the innermost
open span of the main thread.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from contextlib import contextmanager

import numpy as np

import vpcalib.cli as cli
import vpcalib.heatmap as heatmap
import vpcalib.heatmap_io as heatmap_io
import vpcalib.pipeline as pipeline
from vpcalib.errors import AllScalesDegenerate, EmptyHeatmap
from checks import decoded_angle


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.iteration = None
        self.spans: list[dict] = []
        self.peaks: list[tuple] = []  # (row, col, scale, resolution) per decoded peak
        self.truth: dict = {}  # DVP file name -> encoded [first, second] homogeneous box coordinates
        self._stacks = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[dict] = []
        self._ids = itertools.count(1)  # next() on a count is atomic in CPython
        self._channel_of: dict[int, tuple[str, int]] = {}
        self._saved: list[tuple] = []

    # -- spans --------------------------------------------------------------

    def _stack(self) -> list[dict]:
        if threading.current_thread() is self._main:
            return self._main_stack
        if not hasattr(self._stacks, "s"):
            self._stacks.s = []
        return self._stacks.s

    @contextmanager
    def span(self, name: str, **counts):
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        record = {
            "id": next(self._ids),
            "name": name,
            "parent": parent["id"] if parent else None,
            "workload": self.workload,
            "iteration": self.iteration,
            "thread": threading.get_ident(),
            **counts,
        }
        stack.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")

    # -- instrumentation ----------------------------------------------------

    def _patch(self, module, name, wrapper):
        self._saved.append((module, name, getattr(module, name)))
        setattr(module, name, wrapper)

    @contextmanager
    def instrument(self, iteration, deep: bool = True):
        """Wrap the layer entry points for the duration of one iteration.

        ``deep=False`` leaves the per-record calls (format, read, select)
        unwrapped, so a ``--parallel`` run is timed without per-record spans.
        """
        self.iteration = iteration
        self._patch(cli, "generate_observations", self._wrap_generate(cli.generate_observations))
        self._patch(pipeline, "parse_detections", self._wrap_parse(pipeline.parse_detections))
        self._patch(pipeline, "filter_detections", self._wrap_filter(pipeline.filter_detections))
        self._patch(pipeline, "detections_to_pairs", self._wrap_decode(pipeline.detections_to_pairs))
        if deep:
            self._patch(cli, "format_json", self._wrap("pipeline.format", cli.format_json))
            read = self._wrap_read(heatmap_io.read_heatmap_file)
            self._patch(pipeline, "read_heatmap_file", read)
            self._patch(heatmap_io, "read_heatmap_file", read)
            select = self._wrap_select(heatmap.select_vp)
            self._patch(pipeline, "select_vp", select)
            self._patch(heatmap, "select_vp", select)
        self._patch(pipeline, "calibrate", self._wrap_calibrate(pipeline.calibrate))
        self._patch(pipeline, "evaluate", self._wrap_evaluate(pipeline.evaluate))
        try:
            yield self
        finally:
            while self._saved:
                module, name, original = self._saved.pop()
                setattr(module, name, original)
            self._channel_of.clear()

    def _wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def _wrap_generate(self, fn):
        def wrapper(spec, parallel=False):
            name = "synthetic.generate_parallel" if parallel else "synthetic.generate"
            with self.span(name) as s:
                result = fn(spec, parallel=parallel)
                s["vehicles"] = len(result[0])
            return result

        return wrapper

    def _wrap_parse(self, fn):
        def wrapper(path):
            with self.span("pipeline.parse") as s:
                records = fn(path)
                s["records"] = len(records)
            return records

        return wrapper

    def _wrap_filter(self, fn):
        def wrapper(records, config):
            with self.span("pipeline.filter", records_in=len(records)) as s:
                kept = fn(records, config)
                s["records_out"] = len(kept)
            return kept

        return wrapper

    def _wrap_decode(self, fn):
        def wrapper(records, config, base_dir="."):
            name = "pipeline.decode_parallel" if config.parallel else "pipeline.decode"
            with self.span(name, records_in=len(records)) as s:
                pairs = fn(records, config, base_dir)
                s["pairs"] = len(pairs)
            return pairs

        return wrapper

    def _wrap_read(self, fn):
        def wrapper(path):
            with self.span("heatmap_io.read", bytes=_file_size(path)) as s:
                channels = fn(path)
            s["files"] = 1
            name = str(path).replace("\\", "/").rsplit("/", 1)[-1]
            for c, channel in enumerate(channels):
                self._channel_of[id(channel)] = (name, c)
            return channels

        return wrapper

    def _wrap_select(self, fn):
        def wrapper(heatmaps, box, peak_ratio=heatmap.DEFAULT_PEAK_RATIO):
            with self.span("heatmap.select_vp", degenerate=0) as s:
                try:
                    det = fn(heatmaps, box, peak_ratio)
                except AllScalesDegenerate:
                    s["degenerate"] = 1
                    raise
            # the tracer's own work gets a trace.* span, which the
            # aggregation subtracts from every enclosing span
            with self.span("trace.bookkeeping"):
                s["candidates"], s["scales"] = self._peaks_of(heatmaps, peak_ratio)
                key = self._channel_of.pop(id(heatmaps), None)
                if key is not None and key[0] in self.truth:
                    s["angle_err_deg"] = np.degrees(decoded_angle(det, self.truth[key[0]][key[1]], box))
            return det

        return wrapper

    def _peaks_of(self, heatmaps, peak_ratio) -> tuple[int, int]:
        n_candidates = n_scales = 0
        for h in heatmaps:
            try:
                peak, near = heatmap.decode_heatmap(h, peak_ratio)
            except EmptyHeatmap:
                continue
            n_candidates += len(near)
            n_scales += 1
            self.peaks.append((peak[0], peak[1], h.scale, h.resolution))
        return n_candidates, n_scales

    def _wrap_calibrate(self, fn):
        def wrapper(pairs, *args, **kwargs):
            pairs = list(pairs)
            with self.span("calibration.calibrate", pairs=len(pairs)) as s:
                result = fn(pairs, *args, **kwargs)
                s["pairs_used"] = result.n_pairs_used
                s["pairs_rejected"] = result.n_pairs_rejected
            return result

        return wrapper

    def _wrap_evaluate(self, fn):
        def wrapper(measurements, calibration, pair_mode="ordered"):
            with self.span("evaluation.evaluate") as s:
                report = fn(measurements, calibration, pair_mode=pair_mode)
                s["ratio_pairs"] = len(report.per_pair_errors)
                s["skipped"] = report.n_skipped
            return report

        return wrapper

    def replay_quantization_radius(self) -> float:
        """Time ``quantization_radius`` at every peak the traced decodes saw."""
        peaks, self.peaks = self.peaks, []
        with self.span("heatmap.quantization_radius", calls=len(peaks)) as s:
            for row, col, scale, resolution in peaks:
                heatmap.quantization_radius(row, col, scale, resolution)
        return s["end"] - s["start"]


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


# ---------------------------------------------------------------------------
# aggregation


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered = 0.0
        cur_start = cur_end = None
        for a, b in sorted(children.get(s["id"], [])):
            a, b = max(a, s["start"]), min(b, s["end"])
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def layer_self_times(spans: list[dict]) -> dict[str, float]:
    """Module name -> summed self time of its spans."""
    selfs = self_times(spans)
    out: dict[str, float] = {}
    for s in spans:
        layer = s["name"].split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + selfs[s["id"]]
    return dict(sorted(out.items()))


def net_durations(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the tracer's own (trace.*) spans inside it."""
    parent_of = {s["id"]: s["parent"] for s in spans}
    net = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["name"].startswith("trace."):
            p = s["parent"]
            while p in net:
                net[p] -= s["end"] - s["start"]
                p = parent_of[p]
    return net
