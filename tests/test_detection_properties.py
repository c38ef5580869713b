"""Property tests: the columnar detections reader and filter against the
record-by-record ones in ``detections_reference``, and the IoU of the
filter's column comparison and of ``BBox.iou`` against the reference's.

Needs Hypothesis (the ``test`` extra) and is skipped without it. The examples
are derandomized and bounded, so the suite stays deterministic and quick.
"""

import json

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from detections_reference import GOOD, filter_loop, iou, record, same_as_line_parser  # noqa: E402
from vpcalib.heatmap import BBox, _ious  # noqa: E402
from vpcalib.pipeline import DetectionTable, PipelineConfig, filter_detections  # noqa: E402

BOUNDED = settings(max_examples=200, derandomize=True, deadline=None, database=None)

# Parking spots and offsets: two boxes of one spot overlap by IoU
# (100 - d) / (100 + d) for an offset difference d along x, which is 0.9 at
# d = 5.263 and exactly 0.6 at d = 25.
SPOTS = [(0, 0, 100, 100), (300, 40, 400, 140)]
OFFSETS = [0.0, 0.0, 0.0, 5.26, 5.27, 25.0, 24.99, 60.0]


@st.composite
def scenes(draw):
    """Records of sampled frames with gaps and off-stride frames between them,
    crowded frames with tied confidences, and parked boxes whose overlap with
    the previous frame's sits just above or below ``static_iou``."""
    stride = draw(st.sampled_from([1, 2, 5, 10]))
    config = PipelineConfig(
        frame_stride=stride,
        max_frames=draw(st.integers(1, 12 * stride)),
        max_boxes_per_frame=draw(st.integers(1, 4)),
        static_iou=draw(st.sampled_from([0.5, 0.6, 0.9])),
        static_min_hits=draw(st.integers(1, 3)),
    )
    frames = []
    for step in sorted(draw(st.sets(st.integers(0, 9), min_size=1, max_size=10))):
        frames += [stride * step] + [stride * step + 1] * (draw(st.integers(0, 3)) == 0)
    parked = draw(st.lists(st.sampled_from(SPOTS), min_size=1, max_size=3))
    records = []
    for frame in frames:
        boxes = [(x0 + dx, y0, x1 + dx, y1) for (x0, y0, x1, y1), dx
                 in zip(parked, draw(st.lists(st.sampled_from(OFFSETS), min_size=3, max_size=3)))
                 if draw(st.integers(0, 3))]
        for _ in range(draw(st.integers(0, 3))):
            x0, y0 = draw(st.integers(0, 400)), draw(st.integers(0, 100))
            boxes.append((x0, y0, x0 + draw(st.integers(1, 120)), y0 + draw(st.integers(1, 120))))
        for box in draw(st.permutations(boxes)):
            confidence = draw(st.sampled_from([0.25, 0.5, 1.0]) | st.floats(0, 1))
            records.append(record(frame, box, confidence))
    if draw(st.integers(0, 9)) == 0:
        records = draw(st.permutations(records))
    return records, config


# The last box overlaps both boxes of frame 10 by IoU above 0.5: the
# untracked one first (0.515), the tracked one best (0.5625).
FIRST_NOT_BEST = [record(0, (0, 0, 100, 100)), record(10, (60, 0, 160, 100)),
                  record(10, (0, 0, 100, 100)), record(20, (28, 0, 128, 100))]


@BOUNDED
@given(scene=scenes())
@example(scene=(FIRST_NOT_BEST, PipelineConfig(static_iou=0.5, static_min_hits=2)))
def test_filter_keeps_the_rows_of_the_loop(scene):
    records, config = scene
    expected = [id(rec) for rec in filter_loop(records, config)]
    assert [id(rec) for rec in filter_detections(records, config)] == expected
    rows = filter_detections(DetectionTable.of(records), config)
    assert list(rows) == [records[k] for k in map([id(r) for r in records].index, expected)]


NUMBERS = st.integers() | st.floats() | st.integers(10**300, 10**310)
VALUES = (st.none() | st.booleans() | NUMBERS | st.text(max_size=3)
          | st.lists(st.integers(-5, 5) | st.floats(-10, 10), min_size=2, max_size=2)
          | st.lists(st.integers(0, 50) | st.floats(-1, 60), min_size=4, max_size=4))
VALUES = VALUES | st.lists(VALUES, max_size=5)
FIELDS = ["frame", "box", "confidence", "vp_first", "vp_second", "vp_first_direction",
          "vp_second_direction", "heatmap"]


@st.composite
def lines(draw):
    """Mostly a good record with up to two fields replaced or removed; else
    a cut record, another JSON value or text."""
    data = {**GOOD, "frame": draw(st.integers(-2, 40))}
    for field in draw(st.lists(st.sampled_from(FIELDS), max_size=2)):
        if draw(st.integers(0, 3)):
            data[field] = draw(VALUES)
        else:
            data.pop(field, None)
    text = json.dumps(data)
    kind = draw(st.integers(0, 19))
    if kind == 0:
        return text[:-3]
    if kind == 1:
        return draw(st.sampled_from(["", " ", "[1, 2]", "7", "null", '"frame"']) | st.text(max_size=8))
    return text


@BOUNDED
@given(content=st.lists(lines(), max_size=8).map("\n".join))
def test_parse_gives_the_records_or_message_of_the_line_parser(tmp_path_factory, content):
    path = tmp_path_factory.mktemp("detections", numbered=True) / "det.jsonl"
    path.write_text(content, encoding="utf-8")
    same_as_line_parser(path)


# Box corners from small to huge: equal boxes, overlaps whose areas
# underflow to zero and extents whose areas overflow to infinity.
CORNERS = (st.floats(-1e3, 1e3) | st.floats(-1e-150, 1e-150) | st.floats(-1e200, 1e200)
           | st.sampled_from([0.0, 1e-200, 2e-200, 1e-320, 1e154, 1e308, -1e308]))


@st.composite
def boxes(draw):
    x0, x1 = sorted(draw(st.lists(CORNERS, min_size=2, max_size=2, unique=True)))
    y0, y1 = sorted(draw(st.lists(CORNERS, min_size=2, max_size=2, unique=True)))
    return BBox(x0, y0, x1, y1)


@BOUNDED
@given(a=boxes(), b=boxes() | st.just(None), threshold=st.sampled_from([0.0, 0.5, 0.9, 1.0]))
@example(a=BBox(0, 0, 1e-200, 1e-200), b=None, threshold=0.0)
@example(a=BBox(-1e308, -1e308, 1e308, 1e308), b=None, threshold=0.5)
def test_the_filters_iou_is_the_reference_iou(a, b, threshold):
    b = a if b is None else b
    expected = iou(a, b)
    assert 0.0 <= expected <= 1.0
    rows = (np.array([a.as_tuple(), b.as_tuple()]), np.array([b.as_tuple(), a.as_tuple()]))
    assert _ious(*rows).tobytes() == np.array([expected, iou(b, a)]).tobytes()
    assert (_ious(*rows)[:1] > threshold).tolist() == [expected > threshold]
    assert type(a.iou(b)) is float and a.iou(b) == expected
