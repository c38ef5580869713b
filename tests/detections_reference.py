"""Record-by-record detections reader and filter, kept as references.

These are the per-line parser, the per-frame filter loop and the one-pair
IoU that :mod:`vpcalib.pipeline` replaced with its columnar
``DetectionTable`` stages and :mod:`vpcalib.heatmap` with its column
``_ious``. The tests require the columnar forms to give the same records,
the same kept rows in the same order, the same IoUs and the same error
messages. They build
the library's own :class:`DetectionRecord`, whose checks include the one
on frame indices beyond the int64 column.
"""

import json
import math
from pathlib import Path

from vpcalib.errors import READ_ERRORS, InputFormatError, reading
from vpcalib.heatmap import BBox
from vpcalib.pipeline import DetectionRecord, parse_detections

_NUMBER = frozenset((int, float))

# a record that every check passes
GOOD = {"frame": 0, "box": [0, 0, 100, 50], "confidence": 0.9,
        "vp_first": [3.0, -1.0], "vp_second": [-4.0, 2.0]}


def record(frame, box, confidence=1.0):
    return DetectionRecord(frame_index=frame, box=BBox(*box), confidence=confidence,
                           vp_first=(3.0, -1.0), vp_second=(-4.0, 2.0))


def _opt_vec(value):
    if value is None:
        return None
    if type(value) is list and len(value) == 2 and _NUMBER.issuperset(map(type, value)):
        x, y = float(value[0]), float(value[1])
        if math.isfinite(x) and math.isfinite(y):
            return x, y
    raise ValueError(f"expected a finite [x, y] pair of numbers, got {value!r}")


def _parse_record(data):
    frame, box, confidence = data["frame"], data["box"], data.get("confidence", 1.0)
    if type(frame) is not int:
        raise ValueError(f"frame must be an integer, got {frame!r}")
    if type(box) is not list or not _NUMBER.issuperset(map(type, box)):
        raise ValueError(f"box must be a list of numbers, got {box!r}")
    if type(confidence) not in _NUMBER:
        raise ValueError(f"confidence must be a number, got {confidence!r}")
    return DetectionRecord(
        frame_index=frame,
        box=BBox(*map(float, box)),
        confidence=float(confidence),
        vp_first=_opt_vec(data.get("vp_first")),
        vp_second=_opt_vec(data.get("vp_second")),
        vp_first_direction=_opt_vec(data.get("vp_first_direction")),
        vp_second_direction=_opt_vec(data.get("vp_second_direction")),
        heatmap_ref=data.get("heatmap"),
    )


def parse_lines(path):
    """The records of a detections file, one ``json.loads`` and record per line."""
    with reading(f"detections {path}"):
        lines = Path(path).read_text().splitlines()
    records = []
    for idx, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            records.append(_parse_record(json.loads(line)))
        except READ_ERRORS as exc:
            raise InputFormatError(f"detections {path} line {idx}: {exc}") from exc
    if any(b.frame_index < a.frame_index for a, b in zip(records, records[1:])):
        raise InputFormatError("detections must be sorted by frame index")
    return records


def iou(a, b):
    """Intersection over union of two boxes, one pair in Python floats; 0
    when they do not overlap or when their areas leave no usable union."""
    ix = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    iy = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    area = (a.x_max - a.x_min) * (a.y_max - a.y_min)
    area_o = (b.x_max - b.x_min) * (b.y_max - b.y_min)
    union = area + area_o - inter
    return inter / union if union > 0 else 0.0


def filter_loop(records, config):
    """The kept records, one frame and one IoU comparison at a time."""
    by_frame = {}
    for rec in records:
        if rec.frame_index % config.frame_stride != 0:
            continue
        if rec.frame_index >= config.max_frames:
            continue
        by_frame.setdefault(rec.frame_index, []).append(rec)

    kept = []
    # tracks of the previous sampled frame: list of (box, consecutive hits)
    previous = []
    for frame in sorted(by_frame):
        frame_records = by_frame[frame]
        if len(frame_records) > config.max_boxes_per_frame:
            order = sorted(
                range(len(frame_records)),
                key=lambda k: (-frame_records[k].confidence, k),
            )[: config.max_boxes_per_frame]
            frame_records = [frame_records[k] for k in sorted(order)]
        current = []
        for rec in frame_records:
            hits = 1
            for prev_box, prev_hits in previous:
                if iou(rec.box, prev_box) > config.static_iou:
                    hits = prev_hits + 1
                    break
            current.append((rec.box, hits))
            if hits <= config.static_min_hits:
                kept.append(rec)
        previous = current
    return kept


def _outcome(parse, path):
    """The repr of the records ``parse`` reads from ``path``, or its error message."""
    try:
        return repr(list(parse(path)))
    except InputFormatError as exc:
        return f"InputFormatError: {exc}"


def same_as_line_parser(path):
    """What :func:`parse_lines` makes of ``path``, asserted to be what
    ``parse_detections`` makes of it; the repr tells -0.0 from 0.0 and an int from a float."""
    expected = _outcome(parse_lines, path)
    assert _outcome(parse_detections, path) == expected
    return expected
