"""Property tests of the diamond-space mapping.

Needs Hypothesis (the ``test`` extra) and is skipped without it. The examples
are derandomized and bounded, so the suite stays deterministic and quick.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from vpcalib.projective import cross_residual, dehomogenize, from_diamond, to_diamond  # noqa: E402

BOUNDED = settings(max_examples=150, derandomize=True, deadline=None, database=None)

# zero (points on the axes and at infinity) and magnitudes over 100 decades,
# kept where the squared cross products of cross_residual stay finite and normal
COMPONENT = st.one_of(
    st.just(0.0),
    st.floats(1e-50, 1e50),
    st.floats(-1e50, -1e-50),
)
POINT = st.tuples(COMPONENT, COMPONENT, COMPONENT).filter(any)  # (0, 0, 0) is no point


@BOUNDED
@given(points=st.lists(POINT, min_size=1, max_size=16))
def test_diamond_round_trip_returns_the_same_projective_point(points):
    p = np.array(points)
    d = to_diamond(p)
    xy = dehomogenize(d)
    assert np.all(np.abs(xy[:, 0]) + np.abs(xy[:, 1]) <= 1.0 + 1e-12)
    assert np.all(cross_residual(from_diamond(d), p) <= 1e-9)
    # every representative of a point maps the same way
    scaled = to_diamond(-3.5 * p)
    assert np.all(cross_residual(scaled, d) <= 1e-12)
