"""Property tests: the public one-grid and one-box calls of the stack decode
have the bits, and raise the errors, of the scalar bodies they replaced.

``decode_heatmap``, ``accuracy_measure`` and ``vp_of_pixel`` are one-grid
calls of the array code that ``decode_stack`` runs; ``BBox.center``,
``half_size``, ``iou``, ``bbox_normalize`` and ``bbox_denormalize`` are
one-box calls of ``bbox_arrays``, ``_ious``, ``frame_to_box`` and
``box_to_frame``. The references are in ``tests/diamond_reference.py`` and
``tests/detections_reference.py``. The grids hold exact and noisy peaks,
ghost peaks, negative responses, empty grids and peaks on the grid diagonal,
whose points lie at infinity; the boxes reach areas that underflow to zero
and extents that overflow.

Needs Hypothesis (the ``test`` extra) and is skipped without it. The
examples are derandomized and bounded, so the suite stays deterministic and
quick.
"""

import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import diamond_reference as ref  # noqa: E402
from detections_reference import iou  # noqa: E402
from diamond_reference import same_bits  # noqa: E402
from vpcalib.heatmap import (  # noqa: E402
    DEFAULT_SCALES,
    BBox,
    Heatmap,
    accuracy_measure,
    bbox_denormalize,
    bbox_normalize,
    decode_heatmap,
    encode_vp,
    vp_of_pixel,
)

BOUNDED = settings(max_examples=250, derandomize=True, deadline=None, database=None)

SCALES = st.sampled_from(DEFAULT_SCALES) | st.floats(1e-3, 1e3)
KINDS = ["exact", "noisy", "ghosts", "diagonal", "negative", "empty", "uniform"]


@st.composite
def heatmaps(draw):
    """One grid of a kind in KINDS, its numbers drawn from a seeded generator."""
    resolution = draw(st.sampled_from([8, 16, 64]))
    scale = draw(SCALES)
    kind = draw(st.sampled_from(KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def peak(sigma):
        r, t = np.exp(rng.uniform(np.log(0.05), np.log(1e4))), rng.uniform(0.0, 2.0 * np.pi)
        vp = [r * np.cos(t), r * np.sin(t)] if rng.random() < 0.8 else [np.cos(t), np.sin(t), 0.0]
        return encode_vp(vp, scale, resolution, sigma).values

    if kind == "exact":
        values = peak(1.0)
    elif kind in ("noisy", "ghosts"):
        values = peak(2.0) + rng.uniform(0.0, 0.05, (resolution, resolution))
        if kind == "ghosts":
            for _ in range(rng.integers(1, 4)):
                values[tuple(rng.integers(0, resolution, 2))] = rng.uniform(0.85, 1.0)
    elif kind == "diagonal":
        # cells (i, i) decode to points at infinity; a near-maximum ridge along it
        values = np.zeros((resolution, resolution))
        k = np.arange(resolution)
        values[k, k] = rng.uniform(0.0, 1.0, resolution)
        values[tuple(rng.integers(0, resolution, 2))] = rng.uniform(0.7, 1.0)
    elif kind == "negative":
        values = 0.5 * peak(1.0) - peak(2.0) if rng.random() < 0.7 else -peak(2.0) - 1e-3
    elif kind == "empty":
        values = np.zeros((resolution, resolution)) * draw(st.sampled_from([1.0, -1.0]))
    else:
        values = np.ones((resolution, resolution))
    return Heatmap(values, scale)


def outcome(call, *args):
    """What ``call`` returns, or the type and message of what it raises."""
    try:
        return call(*args)
    except Exception as exc:  # noqa: BLE001  (both sides must raise alike)
        return type(exc), str(exc)


def same_outcome(got, expected) -> bool:
    if isinstance(expected, tuple) and isinstance(expected[0], type):
        return got == expected
    return type(got) is type(expected) and same_bits(got, expected)


@st.composite
def positions(draw, resolution):
    """A peak cell and nonempty ``(n, 2)`` candidate positions: cells, cells
    on the diagonal and fractional positions, some off the grid."""
    cell = st.tuples(st.integers(0, resolution - 1), st.integers(0, resolution - 1))
    diagonal = st.integers(0, resolution - 1).map(lambda i: (i, i))
    fractional = st.tuples(st.floats(-1.0, resolution), st.floats(-1.0, resolution))
    rows = draw(st.lists(cell | diagonal | fractional, min_size=1, max_size=8))
    return draw(cell | diagonal), np.array(rows, dtype=float)


@st.composite
def cases(draw):
    h = draw(heatmaps())
    return h, draw(st.sampled_from([0.3, 0.8, 1.0]) | st.floats(0.01, 1.0)), \
        draw(positions(h.resolution))


# a finite peak whose candidates all lie on the diagonal, at infinity
ALL_AT_INFINITY = (encode_vp([5.0, 3.0], 1.0), 0.8,
                   ((18, 10), np.array([[10.0, 10.0], [0.0, 0.0]])))
# a threshold of exactly 1.0, and one that underflows to 0 above negative responses
THRESHOLD_ONE = (encode_vp([5.0, 3.0], 0.3, 16), 1.0, ((3, 4), np.array([[3.0, 4.0]])))
UNDERFLOW = (Heatmap(np.where(np.eye(8) > 0, -1.0, 5e-324), 1.0), 0.3,
             ((1, 2), np.array([[1.0, 2.0]])))


@BOUNDED
@given(case=cases())
@example(case=ALL_AT_INFINITY)
@example(case=THRESHOLD_ONE)
@example(case=UNDERFLOW)
@example(case=(Heatmap(-np.ones((8, 8)), 1.0), 0.8, ((3, 3), np.array([[3.5, 2.0]]))))
def test_the_one_grid_decode_is_the_reference(case):
    h, peak_ratio, (peak, candidates) = case
    decoded = outcome(decode_heatmap, h, peak_ratio)
    expected = outcome(ref.decode_heatmap, h, peak_ratio)
    if isinstance(expected[0], type):
        assert decoded == expected
    else:
        (got_peak, got_candidates), (want_peak, want_candidates) = decoded, expected
        assert got_peak == want_peak and all(type(k) is int for k in got_peak)
        assert same_bits(got_candidates, want_candidates)
        assert same_outcome(outcome(accuracy_measure, h, got_peak, got_candidates),
                            outcome(ref.accuracy_measure, h, want_peak, want_candidates))
    # any positions around any peak cell, the diagonal's included
    assert same_outcome(outcome(accuracy_measure, h, peak, candidates),
                        outcome(ref.accuracy_measure, h, peak, candidates))
    R, (rows, cols) = h.resolution, candidates.T
    assert same_bits(vp_of_pixel(rows, cols, h.scale, R), ref.vp_of_pixel(rows, cols, h.scale, R))
    assert same_bits(vp_of_pixel(float(peak[0]), peak[1], h.scale, R),
                     ref.vp_of_pixel(float(peak[0]), peak[1], h.scale, R))


# Box corners from small to huge: areas that underflow to zero and
# extents that overflow to infinity.
CORNERS = (st.floats(-1e3, 1e3) | st.floats(-1e-150, 1e-150) | st.floats(-1e200, 1e200)
           | st.sampled_from([0.0, 5e-324, 1e-200, 2e-200, 1e154, 1e308, -1e308]))
POINT = st.tuples(CORNERS, CORNERS)


@st.composite
def boxes(draw):
    x0, x1 = sorted(draw(st.lists(CORNERS, min_size=2, max_size=2, unique=True)))
    y0, y1 = sorted(draw(st.lists(CORNERS, min_size=2, max_size=2, unique=True)))
    return BBox(x0, y0, x1, y1)


@BOUNDED
@given(box=boxes(), other=boxes(),
       points=POINT.map(np.array) | st.lists(POINT, max_size=5).map(
           lambda p: np.array(p, dtype=float).reshape(-1, 2)))
@example(box=BBox(0.0, 0.0, 5e-324, 1e-200), other=BBox(0.0, 0.0, 5e-324, 1e-200),
         points=np.array([1.0, -1.0]))
@example(box=BBox(-1e308, -1e308, 1e308, 1e308), other=BBox(0.0, 0.0, 10.0, 10.0),
         points=np.array([[1e308, -1e308], [0.0, 0.0]]))
def test_the_one_box_calls_are_the_reference(box, other, points):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = (box.center, box.half_size, box.iou(other),
               bbox_normalize(points, box), bbox_denormalize(points, box),
               bbox_normalize(points.reshape(1, -1, 2), box))
    with np.errstate(all="ignore"):
        expected = (ref.box_center(box), ref.box_half_size(box), iou(box, other),
                    ref.bbox_normalize(points, box), ref.bbox_denormalize(points, box),
                    ref.bbox_normalize(points.reshape(1, -1, 2), box))
    assert type(got[2]) is float
    assert all(same_bits(g, e) for g, e in zip(got, expected))
