"""Property tests: the array estimators give the bits of the per-pair loop.

``calibrate`` on a :class:`PairSet`, on the same pairs as a list of
:class:`VPPair`, and the per-pair loop kept below as the reference must
write the same calibration file, or raise the same error with the same
message. The generated pairs mix real-focal, imaginary-focal and
direction-only pairs, near-vertical pair lines and coincident points.

Needs Hypothesis (the ``test`` extra) and is skipped without it. The examples
are derandomized and bounded, so the suite stays deterministic and quick.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from vpcalib.calibration import (  # noqa: E402
    CameraCalibration,
    CameraIntrinsics,
    PairSet,
    VPPair,
    calibrate,
    plane_normal_from_horizon,
)
from vpcalib.errors import (  # noqa: E402
    DegenerateInput,
    ImaginaryFocal,
    InsufficientPairs,
    NearVerticalHorizon,
    NearZeroFocal,
    VPCalibError,
)
from vpcalib.pipeline import format_json  # noqa: E402

BOUNDED = settings(max_examples=200, derandomize=True, deadline=None, database=None)
PRINCIPAL_POINT = np.array([960.0, 540.0])
FOCAL_EPSILON = 1.0
SLOPE_EPSILON = 1e-6


# -- the per-pair loop the array estimators replaced ---------------------------


def _reference_focal(pair):
    if not pair.finite:
        raise DegenerateInput("no focal constraint")
    p = PRINCIPAL_POINT
    radicand = -float(np.dot(pair.first - p, pair.second - p))
    if radicand <= 0.0:
        raise ImaginaryFocal("")
    if radicand < FOCAL_EPSILON * FOCAL_EPSILON:
        raise NearZeroFocal("")
    return float(np.sqrt(radicand))


def _reference_slope(pair):
    if pair.first_is_direction and pair.second_is_direction:
        return None
    if pair.first_is_direction or pair.second_is_direction:
        d = pair.first if pair.first_is_direction else pair.second
        n = np.linalg.norm(d)
        if n == 0 or abs(d[0]) <= 1e-9 * n:
            return None
        return float(d[1] / d[0])
    dx = pair.first[0] - pair.second[0]
    if abs(dx) <= SLOPE_EPSILON:
        return None
    return float((pair.first[1] - pair.second[1]) / dx)


def _reference_calibrate(pairs, min_pairs):
    focals = []
    for pair in pairs:
        try:
            focals.append(_reference_focal(pair))
        except (ImaginaryFocal, NearZeroFocal, DegenerateInput):
            pass
    if len(focals) < min_pairs:
        raise InsufficientPairs(
            f"{len(focals)} usable pairs for focal estimation, need {min_pairs}"
        )
    if not pairs:
        raise InsufficientPairs("no pairs given")
    slopes = [_reference_slope(pair) for pair in pairs]
    usable = [s for s in slopes if s is not None]
    if len(usable) * 2 < len(pairs):
        raise NearVerticalHorizon(
            f"{len(pairs) - len(usable)} of {len(pairs)} pair lines are near-vertical"
        )
    if len(usable) < min_pairs:
        raise InsufficientPairs(
            f"{len(usable)} usable pairs for horizon estimation, need {min_pairs}"
        )
    slope = float(np.median(usable))
    intercepts = []
    for pair in pairs:
        if not pair.first_is_direction:
            intercepts.append(pair.first[1] - pair.first[0] * slope)
        if not pair.second_is_direction:
            intercepts.append(pair.second[1] - pair.second[0] * slope)
    horizon = np.array([slope, -1.0, float(np.median(intercepts))])
    intrinsics = CameraIntrinsics(float(np.median(focals)), PRINCIPAL_POINT)
    return CameraCalibration(
        intrinsics=intrinsics,
        horizon=horizon,
        plane_normal=plane_normal_from_horizon(horizon, intrinsics),
        n_pairs_used=len(focals),
        n_pairs_rejected=len(pairs) - len(focals),
    )


# -- generated pairs -------------------------------------------------------------

COORD = st.floats(-5000.0, 5000.0, allow_nan=False, allow_infinity=False)
POINT = st.tuples(COORD, COORD)
UNIT = st.floats(0.0, 2 * np.pi).map(lambda a: (np.cos(a), np.sin(a)))


@st.composite
def rows(draw):
    """One raw pair row: (first, second, first_is_direction, second_is_direction)."""
    kind = draw(st.sampled_from(
        ["finite", "orthogonal", "direction", "directions", "vertical", "coincident"]
    ))
    u, v = draw(POINT), draw(POINT)
    if kind == "orthogonal":  # a real focal length near 1200 px
        f = draw(st.floats(300.0, 3000.0))
        a = np.subtract(u, PRINCIPAL_POINT)
        scale = -f * f / max(float(a @ a), 1.0)
        v = tuple(PRINCIPAL_POINT + scale * a + draw(st.floats(-50.0, 50.0)))
    if kind == "vertical":  # a pair line within slope_epsilon of vertical
        v = (u[0] + draw(st.sampled_from([0.0, 1e-7, -1e-6, 2e-6])), v[1])
    if kind == "coincident":  # equal, within np.allclose, or just outside it
        v = tuple(np.multiply(u, 1.0 + draw(st.sampled_from([0.0, 1e-6, 1e-5, 1e-4]))))
    first_dir = kind in ("direction", "directions") and draw(st.booleans())
    second_dir = kind == "directions" or (kind == "direction" and not first_dir)
    if first_dir:
        u = draw(UNIT | st.sampled_from([(1e-10, 1.0), (0.0, 0.0)]))
    if second_dir:
        v = draw(UNIT)
    return u, v, first_dir, second_dir


def _outcome(fn):
    """The calibration file ``fn`` writes, or its error and message."""
    try:
        return format_json(fn().to_dict())
    except VPCalibError as exc:
        return type(exc).__name__, str(exc)


@BOUNDED
@given(raw=st.lists(rows(), max_size=24), min_pairs=st.integers(1, 5))
def test_array_estimators_match_the_per_pair_loop(raw, min_pairs):
    # the pipeline's drop rule against VPPair's checks, one pair at a time
    pairs = []
    for u, v, first_dir, second_dir in raw:
        try:
            pairs.append(VPPair(u, v, first_is_direction=first_dir, second_is_direction=second_dir))
        except ValueError:
            pass
    columns = [np.reshape([r[k] for r in raw], (-1, 2)) for k in (0, 1)]
    columns += [np.array([r[k] for r in raw], dtype=bool) for k in (2, 3)]
    pair_set = PairSet.valid_rows(*columns)
    assert len(pair_set) == len(pairs)

    def run(given_pairs):
        return lambda: calibrate(given_pairs, None, min_pairs=min_pairs,
                                 principal_point=PRINCIPAL_POINT)

    expected = _outcome(lambda: _reference_calibrate(pairs, min_pairs))
    assert _outcome(run(pair_set)) == expected
    assert _outcome(run(pairs)) == expected


@BOUNDED
@given(
    raw=st.lists(rows(), max_size=24).flatmap(
        lambda raw: st.tuples(st.just(raw), st.permutations(raw))
    ),
    min_pairs=st.integers(1, 5),
)
def test_calibrate_ignores_the_order_of_the_pairs(raw, min_pairs):
    def outcome(given_rows):
        columns = [np.reshape([r[k] for r in given_rows], (-1, 2)) for k in (0, 1)]
        columns += [np.array([r[k] for r in given_rows], dtype=bool) for k in (2, 3)]
        pairs = PairSet.valid_rows(*columns)
        return _outcome(lambda: calibrate(pairs, None, min_pairs=min_pairs,
                                          principal_point=PRINCIPAL_POINT))

    given_order, permuted = raw
    assert outcome(permuted) == outcome(given_order)
