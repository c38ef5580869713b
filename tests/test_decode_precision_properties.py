"""Property tests: the near-maximum cells of a decode, found in the stack's precision.

``_decode_stack`` compares each grid against its float64 threshold in the
grid's own dtype, against the smallest value of that dtype at or above the
threshold. That must select exactly the cells that the float64 comparison
selects, so a float32 stack decodes to the bits of the same values in
float64. The values sit on the threshold and one ulp either side of it,
among subnormals, negative values and all-zero grids.

Needs Hypothesis (the ``test`` extra) and is skipped without it. The examples
are derandomized and bounded, so the suite stays deterministic and quick.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from vpcalib.heatmap import DEFAULT_SCALES, _decode_stack, _round_up  # noqa: E402

BOUNDED = settings(max_examples=200, derandomize=True, deadline=None, database=None)
DTYPES = st.sampled_from([np.float32, np.float64])
RESOLUTION = 8

SUBNORMAL32 = float(np.finfo(np.float32).smallest_subnormal)
SUBNORMAL64 = float(np.finfo(np.float64).smallest_subnormal)
# thresholds on a float32 value, between two of them, among the subnormals
# and below the smallest one
THRESHOLDS = (st.floats(0.0, 3.0e38, allow_subnormal=True)
              | st.floats(0.0, 1e-36, allow_subnormal=True)
              | st.floats(0.0, 1.0).map(lambda t: float(np.float32(t)))
              | st.sampled_from([0.0, SUBNORMAL64, SUBNORMAL32 / 2, SUBNORMAL32,
                                 1.5 * SUBNORMAL32, 0.8, 0.8 * float(np.float32(0.9))]))


def _around(threshold: float, dtype) -> np.ndarray:
    """Values of ``dtype`` on, next to and far from ``threshold``."""
    nearest = np.array(threshold, dtype=dtype)
    up = np.nextafter(nearest, np.inf, dtype=dtype)
    down = np.nextafter(nearest, -np.inf, dtype=dtype)
    with np.errstate(over="ignore"):
        twice = 2.0 * nearest
    return np.array([nearest, up, down, np.nextafter(up, np.inf, dtype=dtype),
                     np.nextafter(down, -np.inf, dtype=dtype), 0.0, -0.0, -nearest,
                     np.finfo(dtype).smallest_subnormal, -np.finfo(dtype).smallest_subnormal,
                     twice, nearest / 2.0], dtype=dtype)


@BOUNDED
@given(threshold=THRESHOLDS, dtype=DTYPES, extra=st.lists(THRESHOLDS, max_size=4))
@example(threshold=0.8 * float(np.float32(0.3)), dtype=np.float32, extra=[])
def test_the_rounded_up_threshold_selects_what_the_float64_one_does(threshold, dtype, extra):
    values = np.concatenate([_around(threshold, dtype)]
                            + [np.array(extra, dtype=dtype)]).astype(dtype)
    t = np.array([threshold])
    rounded = _round_up(t, dtype)
    assert rounded.dtype == dtype
    # the same cells, with no float64 copy of the values
    assert np.array_equal(values >= rounded, values.astype(np.float64) >= t)


@st.composite
def stacks(draw):
    """float32 stacks of grids with ties at the 0.8 threshold: every cell
    holds the top, a value on, next to or far from ``0.8 * top``, or noise."""
    n = draw(st.integers(1, 4))
    values = np.zeros((n, len(DEFAULT_SCALES), RESOLUTION, RESOLUTION), dtype=np.float32)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    for grid in values.reshape(-1, RESOLUTION, RESOLUTION):
        kind = draw(st.integers(0, 5))
        if kind == 0:
            continue  # an all-zero grid
        top = np.float32(draw(st.sampled_from([1.0, 0.3, 0.9, 1e-38, 2e-45, 7.5])
                              | st.floats(float(np.float32(1e-40)), 10.0, width=32)))
        near = _around(0.8 * float(top), np.float32)
        near = near[near <= top]
        grid[...] = rng.choice(near, size=grid.shape) if kind < 4 else rng.uniform(
            -0.1, 0.5, grid.shape).astype(np.float32) * top
        grid[tuple(rng.integers(0, RESOLUTION, 2))] = top
        if kind == 5:
            grid[...] = -np.abs(grid)  # a grid of negative responses only
    return values


@BOUNDED
@given(values=stacks())
def test_a_float32_stack_decodes_to_the_bits_of_its_float64_copy(values):
    single = _decode_stack(values, DEFAULT_SCALES, 0.8)
    double = _decode_stack(values.astype(np.float64), DEFAULT_SCALES, 0.8)
    for a, b in zip(single, double):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
