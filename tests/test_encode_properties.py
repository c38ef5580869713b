"""Property tests: the encoder's grid block and the DVP writer give the bits
of the grid-by-grid bodies they replaced.

``HeatmapCodec.encode``, ``encode_pair`` and ``encode_vp`` rasterize every
channel and scale of one call into a single float64 block, check it once
and return views of it; ``write_heatmap_file`` converts every grid into one
float32 array and writes the header and the grids from their own buffers.
The references, ``rasterize``, ``encode`` and ``nearest_cells`` in
``tests/diamond_reference.py`` and ``write_file`` in
``tests/heatmap_io_reference.py``, make one grid at a time and build a file
in a bytearray. The points lie far off, at infinity, and in cells on the
grid's border, where the peak is clipped; the grids are as small as 2 x 2,
smaller than a sigma = 2 peak.

Needs Hypothesis (the ``test`` extra) and is skipped without it. The
examples are derandomized and bounded, so the suite stays deterministic and
quick.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import diamond_reference as ref  # noqa: E402
from diamond_reference import same_bits  # noqa: E402
from heatmap_io_reference import write_file  # noqa: E402
from vpcalib.heatmap import DEFAULT_SCALES, HeatmapCodec, encode_vp, vp_of_pixel  # noqa: E402
from vpcalib.heatmap_io import read_heatmap_file, write_heatmap_file  # noqa: E402

BOUNDED = settings(max_examples=120, derandomize=True, deadline=None, database=None)

SCALE_SETS = [DEFAULT_SCALES, (0.5,), (1e-3, 1.0, 1e3)]


@st.composite
def grids(draw):
    """A scale set, a resolution and a sigma."""
    return (draw(st.sampled_from(SCALE_SETS)), draw(st.sampled_from([2, 3, 16, 64, 128])),
            draw(st.sampled_from([0.5, 1.0, 2.0])))


@st.composite
def points(draw, scales, resolution):
    """A homogeneous box-coordinate point: finite over nine decades, at
    infinity, or in a cell on the border of one scale's grid."""
    kind = draw(st.sampled_from(["finite", "infinite", "border"]))
    t = draw(st.floats(0.0, 2.0 * np.pi))
    if kind == "finite":
        r = draw(st.floats(1e-3, 1e6))
        return np.array([r * np.cos(t), r * np.sin(t), 1.0])
    if kind == "infinite":
        return np.array([np.cos(t), np.sin(t), 0.0])
    edge = draw(st.sampled_from([0, resolution - 1])) + draw(st.floats(-0.49, 0.49))
    along = draw(st.floats(0.0, resolution - 1.0))
    row, col = (edge, along) if draw(st.booleans()) else (along, edge)
    return vp_of_pixel(row, col, draw(st.sampled_from(scales)), resolution)


def same_heatmaps(got, want) -> bool:
    return len(got) == len(want) and all(
        g.scale == w.scale and same_bits(g.values, w.values) for g, w in zip(got, want))


@BOUNDED
@given(grid=grids(), data=st.data())
# a sigma = 2 peak on the corner cell of a 2 x 2 grid, and a point at infinity
@example(grid=(DEFAULT_SCALES, 2, 2.0), data=None)
def test_the_encoders_give_the_references_grids(grid, data):
    scales, resolution, sigma = grid
    if data is None:
        first, second = vp_of_pixel(0.0, 0.0, 0.03, 2), np.array([1.0, 0.0, 0.0])
    else:
        first, second = (data.draw(points(scales, resolution)) for _ in range(2))
    codec = HeatmapCodec(resolution=resolution, scales=scales, sigma=sigma)
    want = [ref.encode(p, scales, resolution, sigma) for p in (first, second)]
    pair = codec.encode_pair(first, second)
    assert len(pair) == 2
    assert all(same_heatmaps(got, w) for got, w in zip(pair, want))
    assert same_heatmaps(codec.encode(second), want[1])
    assert same_heatmaps([encode_vp(first, s, resolution, sigma) for s in scales], want[0])


@st.composite
def channel_maps(draw):
    """Channel-major heatmaps of the codec, some grids replaced by hand-built
    float32, int or float64 arrays that float32 rounds (the writer's cast)."""
    scales, resolution, sigma = draw(grids())
    codec = HeatmapCodec(resolution=resolution, scales=scales, sigma=sigma)
    maps = [codec.encode(draw(points(scales, resolution)))
            for _ in range(draw(st.integers(1, 3)))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    for h in (h for channel in maps for h in channel):
        kind = draw(st.sampled_from(["codec", "float32", "int", "float64"]))
        shape = (resolution, resolution)
        if kind == "float32":
            h.values = rng.normal(0.0, 1e3, shape).astype(np.float32)
        elif kind == "int":
            h.values = rng.integers(-2**20, 2**20, shape)
        elif kind == "float64":
            # within float32's range, down to its subnormals
            h.values = rng.normal(0.0, 1.0, shape) * 10.0 ** rng.integers(-42, 36, shape)
    return maps


@BOUNDED
@given(maps=channel_maps(), suffix=st.sampled_from([".dvp", ".json"]))
def test_the_writer_gives_the_references_bytes(maps, suffix):
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp) / f"got{suffix}", Path(tmp) / f"want{suffix}"
        # a longer file is overwritten in place and cut to length
        got.write_bytes(b"\xff" * 300_000)
        write_heatmap_file(got, maps)
        write_file(want, maps)
        assert got.read_bytes() == want.read_bytes()
        assert same_heatmaps(read_heatmap_file(got)[0], read_heatmap_file(want)[0])


@BOUNDED
@given(grid=grids(), data=st.data())
def test_each_returned_grid_is_its_own(grid, data):
    # writing into one heatmap's values, in place, changes no other heatmap
    scales, resolution, sigma = grid
    codec = HeatmapCodec(resolution=resolution, scales=scales, sigma=sigma)
    first, second = (data.draw(points(scales, resolution)) for _ in range(2))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pair.dvp"
        write_heatmap_file(path, codec.encode_pair(first, second))
        for maps in (codec.encode_pair(first, second), [codec.encode(first)],
                     read_heatmap_file(path)):
            flat = [h for channel in maps for h in channel]
            k = data.draw(st.integers(0, len(flat) - 1))
            before = [h.values.copy() for h in flat]
            flat[k].values += 1.0
            flat[k].values[0, 0] = -7.0
            for j, (h, old) in enumerate(zip(flat, before)):
                assert h.values.dtype == np.float64 and h.values.flags.c_contiguous
                assert same_bits(h.values, old) == (j != k)
