"""Property tests: the column kernels of the diamond mapping have the bits
of the ``(..., 3)`` references in ``tests/diamond_reference.py``.

The points include points at infinity, signed zeros, subnormal and huge
coordinates, and scales at which a subnormal coordinate rounds to zero.
Needs Hypothesis (the ``test`` extra) and is skipped without it. The
examples are derandomized and bounded, so the suite stays deterministic and
quick.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import diamond_reference as ref  # noqa: E402
from diamond_reference import columns, same_bits  # noqa: E402
from vpcalib import projective as pj  # noqa: E402
from vpcalib.errors import OutOfDiamond  # noqa: E402
from vpcalib.heatmap import (  # noqa: E402
    DEFAULT_SCALES,
    _directions,
    _nearest_cells,
    diamond_to_pixel,
    pixel_to_diamond,
    vp_of_pixel,
)

BOUNDED = settings(max_examples=200, derandomize=True, deadline=None, database=None)
TINY = float(np.finfo(float).smallest_subnormal)
HUGE = float(np.finfo(float).max)

# signed zeros, subnormals, ordinary and huge magnitudes of either sign
COMPONENT = st.one_of(
    st.sampled_from([0.0, -0.0, TINY, -TINY, 1.0, -1.0, HUGE, -HUGE]),
    st.floats(-1e-307, 1e-307, allow_subnormal=True),
    st.floats(-1e6, 1e6),
    st.floats(allow_nan=False, allow_infinity=False),
)
POINT = st.tuples(COMPONENT, COMPONENT, COMPONENT).filter(any)  # (0, 0, 0) is no point
AT_INFINITY = st.tuples(COMPONENT, COMPONENT, st.sampled_from([0.0, -0.0])).filter(any)
POINTS = st.lists(st.one_of(POINT, AT_INFINITY), min_size=1, max_size=12).map(np.array)
# scales small enough that a subnormal y rounds to zero at one scale only
SCALES = st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=4, unique=True).map(
    lambda s: tuple(sorted(s))
) | st.just(DEFAULT_SCALES)


@BOUNDED
@given(p=POINTS)
@example(p=np.array([[-0.0, -TINY, -0.0], [0.0, -0.0, 1.0], [-TINY, -0.0, 0.0],
                     [HUGE, -HUGE, HUGE]]))
def test_the_diamond_mapping_has_the_bits_of_the_reference(p):
    # a sum of huge coordinates overflows to inf in both forms alike
    with np.errstate(over="ignore"):
        assert same_bits(pj.canonical(p), ref.canonical(p))
        assert same_bits(pj.to_diamond(p), ref.to_diamond(p))
        assert same_bits(np.stack(pj.to_diamond_columns(*columns(p)), axis=-1),
                         ref.to_diamond(p))
        assert same_bits(np.stack(pj.diamond_xy(*columns(p)), axis=-1),
                         ref.dehomogenize(ref.to_diamond(p)))
        assert same_bits(pj.from_diamond(p), ref.from_diamond(p))
        assert same_bits(np.stack(pj.from_diamond_columns(*columns(p)), axis=-1),
                         ref.from_diamond(p))
        # a single point, as 0-d columns
        assert same_bits(pj.to_diamond(p[0]), ref.to_diamond(p[0]))
        assert same_bits(pj.from_diamond(p[0]), ref.from_diamond(p[0]))


@BOUNDED
@given(p=POINTS, scales=SCALES)
@example(p=np.array([[1.0, TINY, 0.0], [1.0, -TINY, 0.0], [-2.0, -TINY, 0.0]]),
         scales=(0.03, 0.1, 0.3, 1.0))
def test_nearest_cells_and_directions_have_the_bits_of_the_reference(p, scales):
    row, col = _nearest_cells(*columns(p), scales, 16)
    expected = ref.nearest_cells(p, scales, 16)
    assert same_bits(row, expected[..., 0]) and same_bits(col, expected[..., 1])
    with np.errstate(over="ignore", invalid="ignore"):
        assert same_bits(_directions(*columns(p)), ref.directions(p))


@BOUNDED
@given(rc=st.lists(st.tuples(st.floats(-2.0, 66.0), st.floats(-2.0, 66.0)), min_size=1,
                   max_size=12).map(np.array),
       scale=st.sampled_from(DEFAULT_SCALES))
@example(rc=np.array([[0.0, 0.0], [63.0, 63.0], [31.5, 31.5], [-0.5, 70.0]]), scale=1.0)
def test_grid_positions_map_as_the_reference(rc, scale):
    """Fractional cells off the grid are shrunk onto the diamond first."""
    assert same_bits(vp_of_pixel(rc[:, 0], rc[:, 1], scale),
                     ref.vp_of_pixel(rc[:, 0], rc[:, 1], scale, 64))
    xy = pixel_to_diamond(rc)
    assert same_bits(xy, ref.pixel_to_diamond(rc, 64))
    inside = np.abs(xy[:, 0]) + np.abs(xy[:, 1]) <= 1.0 + 1e-9
    assert same_bits(diamond_to_pixel(xy[inside]), ref.diamond_to_pixel(xy[inside], 64))
    if not inside.all():
        with pytest.raises(OutOfDiamond) as got:
            diamond_to_pixel(xy)
        with pytest.raises(OutOfDiamond) as expected:
            ref.diamond_to_pixel(xy, 64)
        assert str(got.value) == str(expected.value)
