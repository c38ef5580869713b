"""The column kernels of the diamond mapping against the ``(..., 3)`` references.

``projective`` and ``heatmap`` map points between the projective plane, the
diamond and the grid on separate ``x``, ``y`` and ``w`` arrays, with the
scales on a leading axis; ``tests/diamond_reference.py`` keeps the forms
they replaced. Every result must have the same bits as the reference's and
raise the same errors: here for every sample of every cell of the default
grid, and in ``test_diamond_column_properties.py`` for points at infinity,
signed zeros, subnormal and huge coordinates.
"""

import numpy as np
import pytest

import diamond_reference as ref
from diamond_reference import columns, same_bits
from vpcalib import projective as pj
from vpcalib.heatmap import (
    DEFAULT_RESOLUTION,
    DEFAULT_SCALES,
    _CellTables,
    _nearest_cells,
    _vp_by_scale,
    _SUBPIXEL,
)


class TestDefaultGrid:
    # cells per block: the references stack every scale's copy of the samples
    BLOCK = 1024

    def test_every_sample_of_every_cell_maps_as_the_reference(self):
        scales, resolution = DEFAULT_SCALES, DEFAULT_RESOLUTION
        s, r, c = np.indices((len(scales), resolution, resolution)).reshape(3, -1)
        for lo in range(0, len(s), self.BLOCK):
            block = slice(lo, lo + self.BLOCK)
            chosen, row, col = s[block], r[block], c[block]
            rows, cols = row[:, None] + _SUBPIXEL[:, 0], col[:, None] + _SUBPIXEL[:, 1]
            samples = ref.vp_by_scale(scales, chosen, rows, cols, resolution)
            assert same_bits(np.stack(_vp_by_scale(scales, chosen, rows, cols, resolution), -1),
                             samples)
            # a fresh table per block, so it maps every cell of the block
            cells, dirs = _CellTables(scales, resolution).lookup(chosen, row, col)
            expected = ref.nearest_cells(samples, scales, resolution)
            flat = expected[..., 0] * resolution + expected[..., 1]
            assert np.array_equal(cells, np.moveaxis(flat, 0, 1))
            assert same_bits(dirs, ref.directions(samples.reshape(-1, 3)).reshape(dirs.shape))

    def test_cell_tables_hold_the_reference_points(self):
        tables = _CellTables(DEFAULT_SCALES, DEFAULT_RESOLUTION)
        s, r, c = np.indices(tables.ideal.shape)
        vp = ref.vp_by_scale(DEFAULT_SCALES, s, r, c, DEFAULT_RESOLUTION)
        assert same_bits(tables.vp, vp)
        directions = ref.directions(vp.reshape(-1, 3)).reshape(s.shape + (2,))
        assert same_bits(tables.direction, directions)


@pytest.mark.parametrize("function", [pj.canonical, pj.to_diamond, pj.from_diamond])
def test_the_origin_is_no_point(function):
    p = np.array([[1.0, 2.0, 3.0], [0.0, -0.0, 0.0]])
    with pytest.raises(ValueError, match=r"\(0, 0, 0\) is not a projective point"):
        function(p)
    with pytest.raises(ValueError, match=r"\(0, 0, 0\) is not a projective point"):
        ref.canonical(p)
    for kernel in (pj.to_diamond_columns, pj.diamond_xy, pj.from_diamond_columns):
        with pytest.raises(ValueError, match=r"\(0, 0, 0\) is not a projective point"):
            kernel(*columns(p))
    with pytest.raises(ValueError, match=r"\(0, 0, 0\) is not a projective point"):
        _nearest_cells(*columns(p), DEFAULT_SCALES, 64)
