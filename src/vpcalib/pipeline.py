"""End-to-end orchestration: detections in, calibration and reports out.

The detections file is JSON lines, one record per detected vehicle::

    {"frame": 0, "box": [x0, y0, x1, y1], "confidence": 0.97,
     "vp_first": [x, y], "vp_second": [x, y]}

Vanishing points are given in box coordinates (box centre at origin, corners
at (+-1, +-1)); a record may instead carry ``"heatmap": "relative/path"``
pointing at a heatmap observation file, which is decoded with the multi-scale
codec. Direction-only payloads use ``"vp_first_direction"`` /
``"vp_second_direction"`` unit vectors. ``frame`` must be a JSON integer in
[0, 2**63), and the box, confidence and vanishing-point entries JSON
numbers; a string or a boolean in their place is an ``InputFormatError``.
Both routes give box coordinates, which
:func:`~vpcalib.heatmap.box_to_frame` takes to frame pixels. A run's
heatmap files share one grid, the one its first file's header states;
:mod:`~vpcalib.heatmap_io` reads them in chunks.

The records travel as one :class:`DetectionTable` of columns: frame index,
boxes, confidence, the four vanishing-point columns with their presence
masks and the heatmap references. :func:`parse_detections` builds it,
:func:`filter_detections` selects its rows and :func:`detections_to_pairs`
reads its columns, each in array passes. :class:`DetectionRecord` is the
view of one row, and the reader of a line that the column checks reject:
its checks name the bad line and its first failing check.

All numeric output is printed with 17 significant digits and fixed key
order, so repeated runs are byte-identical. On failure nothing is written;
a structured JSON error object goes to stderr and the exit code is nonzero.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain, compress, repeat
from operator import itemgetter
from pathlib import Path

import numpy as np

from .calibration import CameraCalibration, PairSet, calibrate
from ._validation import all_real, as_point, check_image_size, check_integer, is_real
from .errors import READ_ERRORS, InputFormatError, reading
from .evaluation import PAIR_MODES, DistanceMeasurement, evaluate
from .heatmap import (
    DEFAULT_PEAK_RATIO,
    BBox,
    _decode_stack,
    _ious,
    box_to_frame,
    select_vp,  # noqa: F401  (kept importable from here: perfbench/tracing.py wraps it)
)
from .heatmap_io import _read_stacks
from .heatmap_io import read_heatmap_file  # noqa: F401  (likewise)

__all__ = [
    "PipelineConfig",
    "DetectionRecord",
    "DetectionTable",
    "VP_FIELDS",
    "parse_detections",
    "filter_detections",
    "detections_to_pairs",
    "run_calibration",
    "run_evaluation",
    "load_measurements",
    "format_json",
    "format_rows",
    "Rows",
]


@dataclass(frozen=True)
class PipelineConfig:
    """Frame/box policies and decoding knobs.

    ``max_frames`` defaults to the video policy (1500); frame-folder datasets
    conventionally raise it to 5000 via a config file, not code. ``parallel``
    is accepted for compatibility and has no effect: decoding is batched, and
    threads made it slower. The heatmap grid is no field: each heatmap file
    states its own. The constructor checks every field, and keeps
    ``image_size`` and ``principal_point`` as tuples of floats.
    """

    frame_stride: int = 10
    max_frames: int = 1500
    max_boxes_per_frame: int = 10
    static_iou: float = 0.9
    static_min_hits: int = 3
    peak_ratio: float = DEFAULT_PEAK_RATIO
    min_pairs: int = 5
    image_size: tuple[float, float] | None = None
    principal_point: tuple[float, float] | None = None
    pair_mode: str = "ordered"
    parallel: bool = False

    def __post_init__(self):
        for name, low in (("frame_stride", 1), ("max_frames", 1), ("max_boxes_per_frame", 1),
                          ("static_min_hits", 1), ("min_pairs", 1)):
            object.__setattr__(self, name, check_integer(getattr(self, name), name, low))
        for name in ("peak_ratio", "static_iou"):
            value = getattr(self, name)
            # 0 < True <= 1 holds, but a JSON boolean is not a ratio
            if not (is_real(value) and 0.0 < value <= 1.0):
                raise ValueError(f"{name} must lie in (0, 1], got {value!r}")
        if self.pair_mode not in PAIR_MODES:
            raise ValueError(f"pair_mode must be one of {PAIR_MODES}")
        if self.image_size is not None:
            object.__setattr__(self, "image_size", check_image_size(self.image_size))
        if self.principal_point is not None:
            point = as_point(self.principal_point, "principal_point")
            object.__setattr__(self, "principal_point", tuple(point.tolist()))

    @classmethod
    def from_file(cls, path) -> "PipelineConfig":
        with reading(f"config {path}"):
            data = json.loads(Path(path).read_text())
            if not isinstance(data, dict):
                raise ValueError("a config must hold a JSON object")
            return cls(**data)


# frame indices are an int64 column
_FRAME_LIMIT = 2**63


@dataclass(frozen=True)
class DetectionRecord:
    """One detected vehicle; each vanishing point is an ``(x, y)`` pair of numbers.

    The row view of a :class:`DetectionTable`.
    """

    frame_index: int
    box: BBox
    confidence: float
    vp_first: tuple[float, float] | None = None
    vp_second: tuple[float, float] | None = None
    vp_first_direction: tuple[float, float] | None = None
    vp_second_direction: tuple[float, float] | None = None
    heatmap_ref: str | None = None

    def __post_init__(self):
        if self.frame_index < 0:
            raise ValueError("frame_index must be >= 0")
        if self.frame_index >= _FRAME_LIMIT:
            raise ValueError(f"frame_index must be below 2**63, got {self.frame_index}")
        if not (0.0 <= self.confidence <= 1.0):
            raise ValueError(f"confidence must lie in [0, 1], got {self.confidence}")
        has_inline = (self.vp_first is not None or self.vp_first_direction is not None) and (
            self.vp_second is not None or self.vp_second_direction is not None
        )
        if not has_inline and self.heatmap_ref is None:
            raise ValueError("record needs either inline vanishing points or a heatmap reference")
        if self.heatmap_ref is not None and not isinstance(self.heatmap_ref, str):
            raise TypeError(f"heatmap must be a path, got {self.heatmap_ref!r}")


# The vanishing-point fields of a record, in the order of DetectionTable.vps:
# row c of the points and row c + 2 of the directions are channel c
VP_FIELDS = ("vp_first", "vp_second", "vp_first_direction", "vp_second_direction")


class DetectionTable:
    """Detection records as columns: the array form of a list of :class:`DetectionRecord`.

    ``frame_index`` is an int64 ``(n,)`` column, ``boxes`` an ``(n, 4)``
    float column of ``(x_min, y_min, x_max, y_max)`` and ``confidence`` an
    ``(n,)`` float column. ``vps`` stacks the four vanishing-point columns
    of :data:`VP_FIELDS` as ``(4, n, 2)``, NaN where a record has none, and
    ``vp_given`` is their ``(4, n)`` presence mask. ``heatmap_ref`` is an
    ``(n,)`` object column of paths, None where a record has none. All are
    read-only copies. The constructor takes the columns as they are:
    :func:`parse_detections` checks a file's, and :meth:`of` takes records
    that their own constructor checked. Iterating yields one
    :class:`DetectionRecord` per row, in order, and indexing the one of a row.
    """

    __slots__ = ("frame_index", "boxes", "confidence", "vps", "vp_given", "heatmap_ref")

    def __init__(self, frame_index, boxes, confidence, vps, vp_given, heatmap_ref):
        dtypes = (np.int64, float, float, float, bool, object)
        for name, column, dtype in zip(self.__slots__, (frame_index, boxes, confidence, vps,
                                                        vp_given, heatmap_ref), dtypes):
            column = np.array(column, dtype=dtype)
            column.setflags(write=False)
            object.__setattr__(self, name, column)

    def __setattr__(self, name, value):
        raise AttributeError("DetectionTable is immutable")

    @classmethod
    def of(cls, records) -> "DetectionTable":
        """``records`` itself if a DetectionTable, else the table of its
        :class:`DetectionRecord` items."""
        if isinstance(records, DetectionTable):
            return records
        records = list(records)
        n = len(records)
        vps = np.full((4, n, 2), np.nan)
        given = np.zeros((4, n), dtype=bool)
        for j, name in enumerate(VP_FIELDS):
            values = [getattr(rec, name) for rec in records]
            given[j] = [value is not None for value in values]
            vps[j, given[j]] = np.reshape([v for v in values if v is not None], (-1, 2))
        return cls(
            [rec.frame_index for rec in records],
            np.reshape([rec.box.as_tuple() for rec in records], (n, 4)),
            [rec.confidence for rec in records],
            vps,
            given,
            [rec.heatmap_ref for rec in records],
        )

    def take(self, rows) -> "DetectionTable":
        """The table of ``rows``, in their order."""
        return DetectionTable(
            self.frame_index[rows],
            self.boxes[rows],
            self.confidence[rows],
            self.vps[:, rows],
            self.vp_given[:, rows],
            self.heatmap_ref[rows],
        )

    def __len__(self) -> int:
        return len(self.frame_index)

    def __getitem__(self, k: int) -> DetectionRecord:
        vps = {
            name: tuple(self.vps[j, k].tolist()) if self.vp_given[j, k] else None
            for j, name in enumerate(VP_FIELDS)
        }
        return DetectionRecord(
            frame_index=int(self.frame_index[k]),
            box=BBox(*self.boxes[k].tolist()),
            confidence=float(self.confidence[k]),
            heatmap_ref=self.heatmap_ref[k],
            **vps,
        )

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))


_INT, _LIST, _STR = frozenset((int,)), frozenset((list,)), frozenset((str,))
_FRAME, _BOX = itemgetter("frame"), itemgetter("box")


def _opt_vec(value) -> tuple[float, float] | None:
    if value is None:
        return None
    if type(value) is list and len(value) == 2 and all_real(value):
        x, y = float(value[0]), float(value[1])
        if math.isfinite(x) and math.isfinite(y):
            return x, y
    raise ValueError(f"expected a finite [x, y] pair of numbers, got {value!r}")


def _record(text) -> DetectionRecord:
    """The record of one JSON line. A bad line raises one of
    :data:`READ_ERRORS` for the first check it fails, in reading order:
    JSON, the fields' types, box, confidence, vanishing points, then the
    record's own checks of frame, confidence and payload."""
    data = json.loads(text)
    frame, box, confidence = data["frame"], data["box"], data.get("confidence", 1.0)
    if type(frame) is not int:
        raise ValueError(f"frame must be an integer, got {frame!r}")
    if type(box) is not list or not all_real(box):
        raise ValueError(f"box must be a list of numbers, got {box!r}")
    if not is_real(confidence):
        raise ValueError(f"confidence must be a number, got {confidence!r}")
    return DetectionRecord(
        frame_index=frame,
        box=BBox(*map(float, box)),
        confidence=float(confidence),
        heatmap_ref=data.get("heatmap"),
        **{name: _opt_vec(data.get(name)) for name in VP_FIELDS},
    )


# json.loads without its per-call checks: the decoder's scanner, which
# returns a value and where it ends, or raises StopIteration
_SCAN = json.JSONDecoder().scan_once


def _json_rows(texts) -> list:
    """``json.loads`` of every text.

    Each text goes to the scanner alone, from its first character; where one
    fails or ends early (whitespace around the value, extra data, a bad value),
    every text goes to ``json.loads``.
    """
    # a StopIteration ends the map early
    scanned = list(map(_SCAN, texts, repeat(0)))
    if len(scanned) == len(texts) and [end for _, end in scanned] == list(map(len, texts)):
        return [row for row, _ in scanned]
    return list(map(json.loads, texts))


def _floats(values, width: int) -> np.ndarray:
    """``values``, lists of ``width`` JSON numbers each, as an ``(n, width)`` array."""
    if not (_LIST.issuperset(map(type, values)) and set(map(len, values)) <= {width}
            and all_real(chain.from_iterable(values))):
        raise ValueError(f"not all lists of {width} numbers")
    return np.fromiter(chain.from_iterable(values), float, width * len(values)).reshape(-1, width)


def _vp_column(values) -> np.ndarray:
    """The ``(n, 2)`` column of one vanishing-point field, NaN where not given."""
    given = np.array([value is not None for value in values], dtype=bool)
    points = _floats([value for value in values if value is not None], 2)
    if not np.isfinite(points).all():
        raise ValueError("vanishing points must be finite")
    column = np.full((len(values), 2), np.nan)
    column[given] = points
    return column


def _read_table(texts) -> DetectionTable:
    """The table of the JSON lines ``texts``, every check run on whole columns.

    A bad line raises one of :data:`READ_ERRORS` that does not name it;
    :func:`_record` finds it and its cause.
    """
    rows = _json_rows(texts)
    frames = list(map(_FRAME, rows))
    boxes = _floats(list(map(_BOX, rows)), 4)
    confidence = [row.get("confidence", 1.0) for row in rows]
    if not (_INT.issuperset(map(type, frames)) and all_real(confidence)):
        raise ValueError("a frame or a confidence of the wrong type")
    # past int64, fromiter raises OverflowError
    frames = np.fromiter(frames, np.int64, len(frames))
    confidence = np.fromiter(confidence, float, len(confidence))
    vps = np.stack([_vp_column([row.get(name) for row in rows]) for name in VP_FIELDS])
    refs = [row.get("heatmap") for row in rows]
    given = ~np.isnan(vps[..., 0])
    inline = (given[0] | given[2]) & (given[1] | given[3])
    mapped = np.array([ref is not None for ref in refs], dtype=bool)
    if not ((boxes[:, 0] < boxes[:, 2]).all() and (boxes[:, 1] < boxes[:, 3]).all()
            and (frames >= 0).all() and ((0.0 <= confidence) & (confidence <= 1.0)).all()
            and (inline | mapped).all() and _STR.issuperset(map(type, compress(refs, mapped)))):
        raise ValueError("a box, frame, confidence or payload out of range")
    return DetectionTable(frames, boxes, confidence, vps, given, refs)


# Lines read into one table at a time. A part's JSON objects take about
# 1 KB a line while it is read, and what they leave in the allocator's
# arenas adds to the peak of the decode that follows; more lines a part
# save little time.
_LINES = 1024


def parse_detections(path) -> DetectionTable:
    """Read a JSON-lines detections file, sorted input required, into a :class:`DetectionTable`.

    Up to ``_LINES`` lines at a time are read by :func:`_read_table`, which
    runs every check on whole columns. Only a part that fails is read again
    line by line with :func:`_record`, and the first line that fails is
    reported as ``InputFormatError`` naming it and the first check it fails.
    """
    with reading(f"detections {path}"):
        lines = Path(path).read_text().splitlines()
    numbers = [idx for idx, line in enumerate(lines, start=1) if line.strip()]
    parts = []
    for start in range(0, max(len(numbers), 1), _LINES):
        texts = [lines[idx - 1] for idx in numbers[start : start + _LINES]]
        try:
            parts.append(_read_table(texts))
        except READ_ERRORS:
            for idx, text in zip(numbers[start:], texts):
                try:
                    _record(text)
                except READ_ERRORS as exc:
                    raise InputFormatError(f"detections {path} line {idx}: {exc}") from exc
            raise AssertionError(f"the columns of lines {numbers[start]} to {idx} fail, "
                                 "but each line passes on its own")
    # the VP columns and their masks stack rows along their second axis
    table = DetectionTable(*(
        np.concatenate([getattr(part, name) for part in parts], axis=int(name.startswith("vp")))
        for name in DetectionTable.__slots__
    ))
    if (table.frame_index[1:] < table.frame_index[:-1]).any():
        raise InputFormatError("detections must be sorted by frame index")
    return table


# Pairs of (current, previous-frame) boxes compared at once by the static
# filter. A block's temporaries take about 150 bytes a pair, so this keeps
# them near 0.6 MB, under crowded frames and a large max_boxes_per_frame
# too; a block costs a few numpy calls.
_PAIRS = 1 << 12


def _sampled_top(frames, confidence, config: PipelineConfig) -> np.ndarray:
    """Rows on the frame stride below ``max_frames``, at most
    ``max_boxes_per_frame`` of the highest confidence per frame, ties in
    input order; in (frame, input) order."""
    stride = config.frame_stride
    # every frame is below 2**63, so a larger stride leaves frame 0 alone
    on_stride = frames % stride == 0 if stride < _FRAME_LIMIT else frames == 0
    rows = np.flatnonzero(on_stride & (frames < config.max_frames))
    rows = rows[np.lexsort((rows, -confidence[rows], frames[rows]))]
    starts = np.flatnonzero(np.diff(frames[rows], prepend=-1))
    rank = np.arange(len(rows)) - np.repeat(starts, np.diff(np.append(starts, len(rows))))
    rows = rows[rank < config.max_boxes_per_frame]
    return rows[np.lexsort((rows, frames[rows]))]


def _static_kept(boxes, frames, config: PipelineConfig) -> np.ndarray:
    """Mask of the rows that static suppression keeps, rows in (frame, input) order.

    A row's track is that of the first row of the previous frame whose box
    overlaps its own by IoU above ``static_iou``, or a new one; a row is
    dropped once its track has more than ``static_min_hits`` rows.
    """
    n = len(frames)
    new = np.diff(frames, prepend=-1) != 0
    group = np.cumsum(new) - 1
    # the rows of the previous frame are [lo, lo + count) of each row; none
    # for the first frame
    bounds = np.append(0, np.flatnonzero(new))
    lo = bounds[group]
    count = bounds[group + 1] - lo
    ends = np.cumsum(count)
    track = np.full(n, -1)
    a = 0
    while a < n:
        base = ends[a] - count[a]
        b = max(a + 1, int(np.searchsorted(ends, base + _PAIRS, side="right")))
        cur = np.repeat(np.arange(a, b), count[a:b])
        prev = np.arange(base, ends[b - 1]) - np.repeat(ends[a:b] - count[a:b] - lo[a:b], count[a:b])
        hit = np.flatnonzero(_ious(boxes[cur], boxes[prev]) > config.static_iou)
        first = np.diff(cur[hit], prepend=-1) != 0
        track[cur[hit[first]]] = prev[hit[first]]
        a = b
    hits = [1] * n
    matched = np.flatnonzero(track >= 0)
    for row, prev in zip(matched.tolist(), track[matched].tolist()):
        hits[row] = hits[prev] + 1
    return np.array(hits) <= config.static_min_hits


def filter_detections(records, config: PipelineConfig):
    """Frame sampling, per-frame top-k, and static-vehicle suppression.

    Keeps frames divisible by the stride below ``max_frames`` and at most
    ``max_boxes_per_frame`` highest-confidence boxes per frame. A box that
    keeps overlapping (IoU above ``static_iou``) with a box of the previous
    sampled frame is tracked; once it has appeared ``static_min_hits`` times
    it counts as a parked vehicle and later appearances are dropped.

    Works on the columns of a :class:`DetectionTable`: sampling and top-k are
    array operations, and static suppression compares every box left by
    top-k with those of the previous sampled frame, dropped ones included,
    in one pass. Returns a table of
    the kept rows for a table, and a list of the kept records for a list,
    in (frame, input) order: a subsequence of sorted input.
    """
    if not isinstance(records, DetectionTable):
        records = list(records)
    table = DetectionTable.of(records)
    rows = _sampled_top(table.frame_index, table.confidence, config)
    rows = rows[_static_kept(table.boxes[rows], table.frame_index[rows], config)]
    return table.take(rows) if records is table else [records[k] for k in rows]


# Records decoded together: enough to spread the fixed cost of a batched
# decode, few enough that the stack stays small however long the input is.
# heatmap_io reads fewer where their grids would pass its chunk byte limit.
_CHUNK = 64


def detections_to_pairs(records, config: PipelineConfig, base_dir=".") -> PairSet:
    """Decode every record into a vanishing-point pair, dropping failures.

    ``records`` is a :class:`DetectionTable` or a list of
    :class:`DetectionRecord`, which is converted once. Both routes fill
    box-coordinate columns, and one :func:`~vpcalib.heatmap.box_to_frame`
    call per channel takes them to frame pixels. Inline records take the
    table's point column of a channel where given, else its direction
    column. Heatmap records go in chunks of at most ``_CHUNK``, which
    :mod:`~vpcalib.heatmap_io` reads and checks on the grid of the first
    heatmap file in record order; the first bad file in record order, one
    on another grid included, raises its :class:`InputFormatError`. Each
    channel of a chunk's stack is decoded in one batch as by
    :func:`~vpcalib.heatmap.decode_stack`, from the grid's cell tables,
    which the process keeps.
    Records whose channel has only degenerate scales, whose inline values
    are a zero-length direction, overflow or exceed
    :data:`~vpcalib.calibration.MAX_COORDINATE` in frame pixels, or whose
    two vanishing points coincide, are dropped. The result keeps the input
    order; ``config.parallel`` has no effect on it.
    """
    table = DetectionTable.of(records)
    mapped = np.not_equal(table.heatmap_ref, None)
    # per channel, (n, 2) box-coordinate points and directions; NaN where a
    # channel decodes to nothing
    ends = np.where(table.vp_given[:2, :, None], table.vps[:2], table.vps[2:])
    ends[:, mapped] = np.nan
    is_direction = ~table.vp_given[:2] & ~mapped
    mapped = np.flatnonzero(mapped)
    if len(mapped):
        for start, scales, stack in _read_stacks(table.heatmap_ref[mapped], base_dir, _CHUNK):
            rows = mapped[start : start + stack.shape[1]]
            for c, maps in enumerate(stack):
                decoded, points, directions = _decode_stack(maps, scales, config.peak_ratio)[:3]
                ends[c, rows[decoded]] = points
                is_direction[c, rows[decoded]] = directions
    for c in range(2):
        ends[c] = box_to_frame(ends[c], is_direction[c], table.boxes)
    return PairSet.valid_rows(*ends, *is_direction)


def load_measurements(path) -> list[DistanceMeasurement]:
    """Ground-truth file: JSON list of {"a": [x, y], "b": [x, y], "distance": d}."""
    with reading(f"measurements {path}"):
        data = json.loads(Path(path).read_text())
        if not isinstance(data, list):
            raise ValueError("a measurements file must hold a JSON list")
    out = []
    for idx, item in enumerate(data):
        with reading(f"measurement {idx} of {path}"):
            out.append(DistanceMeasurement(item["a"], item["b"], item["distance"]))
    return out


def run_calibration(detections_path, config: PipelineConfig) -> dict:
    """Detections file -> calibration result dict (not yet written to disk)."""
    if config.image_size is None and config.principal_point is None:
        raise InputFormatError(
            "image_size is required (CLI flag or config) unless principal_point is set"
        )
    records = parse_detections(detections_path)
    records = filter_detections(records, config)
    pairs = detections_to_pairs(records, config, Path(detections_path).parent)
    calibration = calibrate(pairs, config.image_size, min_pairs=config.min_pairs,
                            principal_point=config.principal_point)
    out = calibration.to_dict()
    out["n_records"] = len(records)
    if config.image_size is not None:
        out["image_size"] = list(config.image_size)
    return out


def run_evaluation(calibration_path, measurements_path, config: PipelineConfig) -> dict:
    """Calibration + measurements files -> evaluation report dict."""
    with reading(f"calibration {calibration_path}"):
        calibration = CameraCalibration.from_dict(json.loads(Path(calibration_path).read_text()))
    measurements = load_measurements(measurements_path)
    report = evaluate(measurements, calibration, pair_mode=config.pair_mode)
    return {
        "mean_error_percent": report.mean_error * 100.0,
        "n_measurements": report.n_measurements,
        "n_skipped": report.n_skipped,
        "pair_mode": report.pair_mode,
        "per_pair_errors": Rows((report.pair_i, report.pair_j, report.errors)),
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


_FLOAT_TEXT = "{:.17g}".format


@dataclass(frozen=True)
class Rows:
    """Equal-length number columns that :func:`format_json` prints as a list of rows.

    An evaluate report's ``[[i, j, r], ...]`` held as its three columns, so
    no list is built per row.
    """

    columns: tuple


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
        return _FLOAT_TEXT(float(value))
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        inner = ", ".join(f"{json.dumps(str(k))}: {_format_value(v)}" for k, v in value.items())
        return "{" + inner + "}"
    if isinstance(value, Rows):
        template = "[" + ", ".join(["{}"] * len(value.columns)) + "]"
        rows = format_rows(template, value.columns, ", ")
        if rows is None:
            raise TypeError("Rows columns must hold ints or floats")
        return "[" + rows + "]"
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_format_value(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


# How each kind of column prints: ints as str() does, floats as _FLOAT_TEXT
# does, and text as it is
_CODE = {"i": "%d", "u": "%d", "f": "%.17g", "U": "%s"}
_KIND = {int: "i", float: "f"}


def _column_kind(column) -> str | None:
    """The kind of a column as ``_CODE`` knows it, or None.

    None unless the column is an int, float or str array, or a sequence of
    plain ints or of plain floats: bools print as true/false, numpy scalars
    by value, a Python str quoted. A non-finite float raises ``ValueError``.
    """
    if isinstance(column, np.ndarray):
        kind = column.dtype.kind
    else:
        kinds = set(map(type, column))
        kind = _KIND.get(kinds.pop()) if len(kinds) == 1 else None
    if kind == "f":
        finite = np.isfinite(column)
        if not finite.all():
            raise ValueError(f"non-finite number in output: {column[np.argmin(finite)]}")
    return kind if kind in _CODE else None


def format_rows(template: str, columns, sep: str) -> str | None:
    """``template`` filled in with each row of equal-length columns, joined by ``sep``.

    ``template`` has a ``{}`` per column. Numbers print as
    :func:`format_json` prints them, and a str array's entries as they are,
    unquoted. A detections file holds ~10k records and an evaluate report
    ~90k ``[i, j, r]`` rows, so the whole text is one %-format call. A column
    is an int, float or str array, or a sequence of plain ints or of plain
    floats; if one is anything else, the result is None.
    """
    kinds = [_column_kind(column) for column in columns]
    if None in kinds:
        return None
    n, width = len(columns[0]), len(columns)
    values = [None] * (n * width)
    for k, column in enumerate(columns):
        values[k::width] = column.tolist() if isinstance(column, np.ndarray) else column
    row = template.replace("%", "%%").format(*(_CODE[kind] for kind in kinds))
    return sep.join([row] * n) % tuple(values)


def format_json(value) -> str:
    """Deterministic JSON text: insertion-ordered keys, 17-digit floats."""
    return _format_value(value) + "\n"
