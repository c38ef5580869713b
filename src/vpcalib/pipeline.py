"""End-to-end orchestration: detections in, calibration and reports out.

The detections file is JSON lines, one record per detected vehicle::

    {"frame": 0, "box": [x0, y0, x1, y1], "confidence": 0.97,
     "vp_first": [x, y], "vp_second": [x, y]}

Vanishing points are given in box coordinates (box centre at origin, corners
at (+-1, +-1)); a record may instead carry ``"heatmap": "relative/path"``
pointing at a heatmap observation file, which is decoded with the multi-scale
codec. Direction-only payloads use ``"vp_first_direction"`` /
``"vp_second_direction"`` unit vectors.

All numeric output is printed with 17 significant digits and fixed key
order, so repeated runs are byte-identical. On failure nothing is written;
a structured JSON error object goes to stderr and the exit code is nonzero.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .calibration import CameraCalibration, VPPair, calibrate
from .errors import InputFormatError
from .evaluation import PAIR_MODES, DistanceMeasurement, evaluate
from .heatmap import (
    DEFAULT_PEAK_RATIO,
    DEFAULT_RESOLUTION,
    DEFAULT_SCALES,
    BBox,
    bbox_denormalize,
    bbox_denormalize_direction,
    check_scales,
    decode_stack,
    select_vp,  # noqa: F401  (kept importable from here: perfbench/tracing.py wraps it)
)
from .heatmap_io import read_heatmap_arrays, read_heatmap_file  # noqa: F401  (likewise)

__all__ = [
    "PipelineConfig",
    "DetectionRecord",
    "parse_detections",
    "filter_detections",
    "detections_to_pairs",
    "run_calibration",
    "run_evaluation",
    "load_measurements",
    "format_json",
]


@dataclass(frozen=True)
class PipelineConfig:
    """Frame/box policies and decoding knobs.

    ``max_frames`` defaults to the video policy (1500); frame-folder datasets
    conventionally raise it to 5000 via a config file, not code. ``parallel``
    is accepted for compatibility and has no effect: decoding is batched, and
    threads made it slower.
    """

    frame_stride: int = 10
    max_frames: int = 1500
    max_boxes_per_frame: int = 10
    static_iou: float = 0.9
    static_min_hits: int = 3
    peak_ratio: float = DEFAULT_PEAK_RATIO
    scales: tuple[float, ...] = DEFAULT_SCALES
    resolution: int = DEFAULT_RESOLUTION
    min_pairs: int = 5
    image_size: tuple[float, float] | None = None
    principal_point: tuple[float, float] | None = None
    pair_mode: str = "ordered"
    parallel: bool = False

    def __post_init__(self):
        for name in ("frame_stride", "max_frames", "max_boxes_per_frame", "static_min_hits"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not (0.0 < self.peak_ratio <= 1.0):
            raise ValueError("peak_ratio must lie in (0, 1]")
        if not (0.0 < self.static_iou <= 1.0):
            raise ValueError("static_iou must lie in (0, 1]")
        if self.pair_mode not in PAIR_MODES:
            raise ValueError(f"pair_mode must be one of {PAIR_MODES}")
        if not isinstance(self.resolution, (int, np.integer)) or self.resolution < 2:
            raise ValueError(f"resolution must be an integer >= 2, got {self.resolution!r}")
        object.__setattr__(self, "scales", check_scales(self.scales))

    @classmethod
    def from_file(cls, path) -> "PipelineConfig":
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise InputFormatError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise InputFormatError(f"config {path} must hold a JSON object")
        known = set(cls.__dataclass_fields__)
        unknown = sorted(set(data) - known)
        if unknown:
            raise InputFormatError(f"unknown config keys: {unknown}")
        try:
            for key in ("scales", "principal_point", "image_size"):
                if data.get(key) is not None:
                    data[key] = tuple(data[key])
            return cls(**data)
        except (TypeError, ValueError) as exc:
            raise InputFormatError(f"invalid config {path}: {exc}") from exc


@dataclass(frozen=True)
class DetectionRecord:
    frame_index: int
    box: BBox
    confidence: float
    vp_first: np.ndarray | None = None
    vp_second: np.ndarray | None = None
    vp_first_direction: np.ndarray | None = None
    vp_second_direction: np.ndarray | None = None
    heatmap_ref: str | None = None

    def __post_init__(self):
        if self.frame_index < 0:
            raise ValueError("frame_index must be >= 0")
        if not (0.0 <= self.confidence <= 1.0):
            raise ValueError(f"confidence must lie in [0, 1], got {self.confidence}")
        has_inline = (self.vp_first is not None or self.vp_first_direction is not None) and (
            self.vp_second is not None or self.vp_second_direction is not None
        )
        if not has_inline and self.heatmap_ref is None:
            raise ValueError("record needs either inline vanishing points or a heatmap reference")


def _parse_record(data: dict, line_no: int) -> DetectionRecord:
    try:
        box = BBox(*map(float, data["box"]))
        rec = DetectionRecord(
            frame_index=int(data["frame"]),
            box=box,
            confidence=float(data.get("confidence", 1.0)),
            vp_first=_opt_vec(data.get("vp_first")),
            vp_second=_opt_vec(data.get("vp_second")),
            vp_first_direction=_opt_vec(data.get("vp_first_direction")),
            vp_second_direction=_opt_vec(data.get("vp_second_direction")),
            heatmap_ref=data.get("heatmap"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"detections line {line_no}: {exc}") from exc
    return rec


def _opt_vec(value):
    if value is None:
        return None
    arr = np.asarray(value, dtype=float)
    if arr.shape != (2,) or not np.all(np.isfinite(arr)):
        raise ValueError(f"expected a finite [x, y] pair, got {value!r}")
    return arr


def parse_detections(path) -> list[DetectionRecord]:
    """Read a JSON-lines detections file, sorted input required."""
    records = []
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise InputFormatError(f"cannot read detections {path}: {exc}") from exc
    for idx, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise InputFormatError(f"detections line {idx}: invalid JSON: {exc}") from exc
        records.append(_parse_record(data, idx))
    if any(b.frame_index < a.frame_index for a, b in zip(records, records[1:])):
        raise InputFormatError("detections must be sorted by frame index")
    return records


def filter_detections(records, config: PipelineConfig) -> list[DetectionRecord]:
    """Frame sampling, per-frame top-k, and static-vehicle suppression.

    Keeps frames divisible by the stride below ``max_frames`` and at most
    ``max_boxes_per_frame`` highest-confidence boxes per frame. A box that
    keeps overlapping (IoU above ``static_iou``) with a box of the previous
    sampled frame is tracked; once it has appeared ``static_min_hits`` times
    it counts as a parked vehicle and later appearances are dropped. Output
    is a subsequence of the input.
    """
    by_frame: dict[int, list[DetectionRecord]] = {}
    for rec in records:
        if rec.frame_index % config.frame_stride != 0:
            continue
        if rec.frame_index >= config.max_frames:
            continue
        by_frame.setdefault(rec.frame_index, []).append(rec)

    kept: list[DetectionRecord] = []
    # tracks of the previous sampled frame: list of (box, consecutive hits)
    previous: list[tuple[BBox, int]] = []
    for frame in sorted(by_frame):
        frame_records = by_frame[frame]
        if len(frame_records) > config.max_boxes_per_frame:
            order = sorted(
                range(len(frame_records)),
                key=lambda k: (-frame_records[k].confidence, k),
            )[: config.max_boxes_per_frame]
            frame_records = [frame_records[k] for k in sorted(order)]
        current: list[tuple[BBox, int]] = []
        for rec in frame_records:
            hits = 1
            for prev_box, prev_hits in previous:
                if rec.box.iou(prev_box) > config.static_iou:
                    hits = prev_hits + 1
                    break
            current.append((rec.box, hits))
            if hits <= config.static_min_hits:
                kept.append(rec)
        previous = current
    return kept


# Records read and decoded together: enough to spread the fixed cost of a
# batched decode, few enough that the stack stays small however long the
# input is (8 MB of float32 grids at two channels of 4 x 64 x 64).
_CHUNK = 64


def _read_stack(records, config: PipelineConfig, base_dir) -> np.ndarray:
    """Channel-major ``(2, N, S, R, R)`` grids of the records' heatmap files.

    float32 as DVP files store them, float64 once a JSON file needs it.
    """
    stack = None
    for k, rec in enumerate(records):
        scales, values = read_heatmap_arrays(Path(base_dir) / rec.heatmap_ref)
        if len(values) != 2:
            raise InputFormatError(
                f"heatmap file {rec.heatmap_ref} has {len(values)} channels, expected 2"
            )
        if scales != config.scales:
            raise InputFormatError(
                f"heatmap file {rec.heatmap_ref} uses scales {scales}, "
                f"config expects {config.scales}"
            )
        if values.shape[-1] != config.resolution:
            raise InputFormatError(
                f"heatmap file {rec.heatmap_ref} has resolution "
                f"{values.shape[-1]}, config expects {config.resolution}"
            )
        if stack is None:
            stack = np.empty((2, len(records)) + values.shape[1:], dtype=values.dtype)
        elif not np.can_cast(values.dtype, stack.dtype):
            stack = stack.astype(values.dtype)
        stack[:, k] = values
    return stack


def _heatmap_pairs(records, config: PipelineConfig, base_dir) -> list[VPPair | None]:
    if not records:
        return []
    stack = _read_stack(records, config, base_dir)
    boxes = [rec.box for rec in records]
    first, second = (decode_stack(maps, config.scales, boxes, config.peak_ratio) for maps in stack)
    return [
        None  # every scale of a channel is degenerate
        if a is None or b is None
        else _pair(a.point, b.point, a.direction_only, b.direction_only)
        for a, b in zip(first, second)
    ]


def _pair(first, second, first_is_direction, second_is_direction) -> VPPair | None:
    try:
        return VPPair(
            first=first,
            second=second,
            first_is_direction=first_is_direction,
            second_is_direction=second_is_direction,
        )
    except ValueError:
        return None  # coincident points carry no constraint


def _inline_pair(rec: DetectionRecord) -> VPPair | None:
    first_dir = rec.vp_first is None
    second_dir = rec.vp_second is None
    first = (
        bbox_denormalize_direction(rec.vp_first_direction, rec.box)
        if first_dir
        else bbox_denormalize(rec.vp_first, rec.box)
    )
    second = (
        bbox_denormalize_direction(rec.vp_second_direction, rec.box)
        if second_dir
        else bbox_denormalize(rec.vp_second, rec.box)
    )
    if first_dir:
        first = first / np.linalg.norm(first)
    if second_dir:
        second = second / np.linalg.norm(second)
    return _pair(first, second, first_dir, second_dir)


def detections_to_pairs(records, config: PipelineConfig, base_dir=".") -> list[VPPair]:
    """Decode every record into a vanishing-point pair, dropping failures.

    Records go in chunks of ``_CHUNK``: the chunk's heatmap files are read
    into one stack per channel, each decoded by one
    :func:`~vpcalib.heatmap.decode_stack` call, and inline records are
    converted directly. Records whose channel has only degenerate scales,
    or whose two vanishing points coincide, are dropped. The result keeps
    the input order; ``config.parallel`` has no effect on it.
    """
    pairs = []
    for start in range(0, len(records), _CHUNK):
        chunk = records[start : start + _CHUNK]
        mapped = [rec for rec in chunk if rec.heatmap_ref is not None]
        decoded = iter(_heatmap_pairs(mapped, config, base_dir))
        for rec in chunk:
            pair = next(decoded) if rec.heatmap_ref is not None else _inline_pair(rec)
            if pair is not None:
                pairs.append(pair)
    return pairs


def load_measurements(path) -> list[DistanceMeasurement]:
    """Ground-truth file: JSON list of {"a": [x, y], "b": [x, y], "distance": d}."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise InputFormatError(f"cannot read measurements {path}: {exc}") from exc
    if not isinstance(data, list):
        raise InputFormatError("measurements file must hold a JSON list")
    out = []
    for idx, item in enumerate(data):
        try:
            out.append(
                DistanceMeasurement(
                    a=np.asarray(item["a"], dtype=float),
                    b=np.asarray(item["b"], dtype=float),
                    ground_truth=float(item["distance"]),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InputFormatError(f"measurement {idx}: {exc}") from exc
    return out


def run_calibration(detections_path, config: PipelineConfig, image_size=None) -> dict:
    """Detections file -> calibration result dict (not yet written to disk)."""
    if image_size is None:
        image_size = config.image_size
    if image_size is None and config.principal_point is None:
        raise InputFormatError(
            "image_size is required (CLI flag or config) unless principal_point is set"
        )
    records = parse_detections(detections_path)
    records = filter_detections(records, config)
    pairs = detections_to_pairs(records, config, Path(detections_path).parent)
    calibration = calibrate(
        pairs,
        image_size,
        min_pairs=config.min_pairs,
        principal_point=config.principal_point,
    )
    out = calibration.to_dict()
    out["n_records"] = len(records)
    if image_size is not None:
        out["image_size"] = [float(image_size[0]), float(image_size[1])]
    return out


def run_evaluation(calibration_path, measurements_path, config: PipelineConfig) -> dict:
    """Calibration + measurements files -> evaluation report dict."""
    try:
        cal_data = json.loads(Path(calibration_path).read_text())
        calibration = CameraCalibration.from_dict(cal_data)
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"cannot read calibration {calibration_path}: {exc}") from exc
    measurements = load_measurements(measurements_path)
    report = evaluate(measurements, calibration, pair_mode=config.pair_mode)
    return {
        "mean_error_percent": report.mean_error * 100.0,
        "n_measurements": report.n_measurements,
        "n_skipped": report.n_skipped,
        "pair_mode": report.pair_mode,
        "per_pair_errors": [[i, j, r] for i, j, r in report.per_pair_errors],
    }


def report_table(report: dict) -> str:
    """Human-readable evaluation summary."""
    lines = [
        f"measurements used    {report['n_measurements']}",
        f"measurements skipped {report['n_skipped']}",
        f"pair mode            {report['pair_mode']}",
        f"mean error           {report['mean_error_percent']:.2f} %",
    ]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# deterministic JSON with 17 significant digits


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        if not np.isfinite(value):
            raise ValueError(f"non-finite number in output: {value}")
        return format(float(value), ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        inner = ", ".join(f"{json.dumps(str(k))}: {_format_value(v)}" for k, v in value.items())
        return "{" + inner + "}"
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_format_value(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def format_json(value) -> str:
    """Deterministic JSON text: insertion-ordered keys, 17-digit floats."""
    return _format_value(value) + "\n"
