"""Property tests: a malformed input file ends as InputFormatError, never as
another exception.

Needs Hypothesis (the ``test`` extra) and is skipped without it. The examples
are derandomized and bounded, so the suite stays deterministic and quick.
"""

import json
import struct

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from vpcalib.errors import InputFormatError  # noqa: E402
from vpcalib.heatmap_io import MAGIC, read_heatmap_arrays  # noqa: E402
from vpcalib.pipeline import DetectionRecord, parse_detections  # noqa: E402

BOUNDED = settings(max_examples=150, derandomize=True, deadline=None, database=None)

# Any JSON value, with NaN, infinities and integers too large for a float.
SCALARS = (
    st.none() | st.booleans() | st.integers() | st.integers(10**300, 10**310)
    | st.floats() | st.text(max_size=4)
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3)
    ),
    max_leaves=8,
)
SMALL = st.integers(0, 2)


def _grids(draw, channels, scales, resolution, width):
    n = channels * scales * resolution * resolution
    values = draw(st.lists(st.floats(width=width), min_size=n, max_size=n))
    return np.reshape(np.asarray(values, dtype=float), (channels, scales, resolution, resolution))


@st.composite
def json_heatmaps(draw):
    """A well-formed JSON heatmap file with up to two fields replaced by any JSON value."""
    c, s, r = draw(SMALL), draw(SMALL), draw(SMALL)
    payload = {
        "magic": "DVP1",
        "resolution": r,
        "scales": draw(st.lists(st.floats(), min_size=s, max_size=s)),
        "channels": c,
        "data": _grids(draw, c, s, r, 64).tolist(),
    }
    for key in draw(st.lists(st.sampled_from(sorted(payload)), max_size=2)):
        payload[key] = draw(JSON_VALUES)
    return json.dumps(payload).encode()


@st.composite
def dvp_heatmaps(draw):
    """A DVP file whose header counts may disagree with its body, cut or extended."""
    counts = SMALL | st.integers(0, 2**32 - 1)
    c, s, r = draw(counts), draw(counts), draw(counts)
    scales = draw(st.lists(st.floats(), min_size=min(s, 3), max_size=min(s, 3)))
    blob = MAGIC + struct.pack(f"<II{len(scales)}dI", r, s, *scales, c)
    if max(c, s, r) <= 2:
        blob += _grids(draw, c, s, r, 32).astype("<f4").tobytes()
    cut = draw(st.integers(0, len(blob)))
    return blob[:cut] + draw(st.binary(max_size=8)) if draw(st.booleans()) else blob


@BOUNDED
@given(blob=st.binary(max_size=64) | st.binary(max_size=64).map(MAGIC.__add__)
       | json_heatmaps() | dvp_heatmaps())
@example(blob=b'{"magic": "DVP1", "resolution": 1e999, "scales": [0.5], "data": []}')
@example(blob=b"[" * 100_000)
def test_heatmap_reader_raises_only_input_format_error(tmp_path_factory, blob):
    directory = tmp_path_factory.mktemp("heatmaps", numbered=True)
    for name in ("obs.dvp", "obs.json"):
        path = directory / name
        path.write_bytes(blob)
        try:
            scales, values = read_heatmap_arrays(path)
        except InputFormatError:
            continue
        assert values.ndim == 4 and values.shape[1] == len(scales)
        assert np.isfinite(values).all() and all(s > 0 for s in scales)


VECTORS = st.lists(st.floats() | st.integers(-5, 5), min_size=2, max_size=2) | JSON_VALUES
RECORDS = st.fixed_dictionaries(
    {},
    optional={
        "frame": st.integers(-1, 30) | JSON_VALUES,
        "box": st.just([0, 0, 10, 10]) | st.lists(st.floats() | st.integers(), max_size=5)
        | JSON_VALUES,
        "confidence": st.floats() | JSON_VALUES,
        "vp_first": VECTORS,
        "vp_second": VECTORS,
        "vp_first_direction": VECTORS,
        "vp_second_direction": VECTORS,
        "heatmap": st.text(max_size=4) | JSON_VALUES,
    },
).map(json.dumps)
LINES = RECORDS | JSON_VALUES.map(json.dumps) | st.text(max_size=20)


@BOUNDED
@given(content=st.lists(LINES, max_size=4).map(lambda lines: "\n".join(lines).encode())
       | st.binary(max_size=40))
@example(content=b'{"frame": 1e999, "box": [0, 0, 9, 9], "vp_first": [3, 0], "vp_second": [3, 1]}')
@example(content=b'{"frame": 0, "box": [0, 0, 9, 9], "confidence": 1e999, "heatmap": "a.dvp"}')
def test_detections_parser_raises_only_input_format_error(tmp_path_factory, content):
    path = tmp_path_factory.mktemp("detections", numbered=True) / "det.jsonl"
    path.write_bytes(content)
    try:
        records = parse_detections(path)
    except InputFormatError:
        return
    assert all(isinstance(rec, DetectionRecord) for rec in records)
