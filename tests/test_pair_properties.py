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
    if kind == "vertical":  # a pair line within SLOPE_EPSILON of vertical
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


# -- a common shift of the principal point and the vanishing points --------------

# Relative bound on what a shift may change. Shifting a coordinate of up to
# ~2e4 px rounds it by ~4e-12 px; the scenes below keep every focal radicand
# above 200 px^2 and every pair line within 20:1 of horizontal, so f, the
# slope and the unit normal move by well under 1e-10 of their size.
SHIFT_RTOL = 1e-9
ANGLE = st.floats(0.0, 2 * np.pi)


@st.composite
def shifted_scenes(draw):
    """Raw pair rows about a principal point, that point, and a shift.

    Each row is either a pair on opposite sides of the principal point (a
    real focal length), one on the same side (an imaginary one), or a point
    with a direction at infinity. The points lie 20 to 4000 px from the
    principal point, and the two of a pair at least 10 px apart; pair lines
    steeper than 20:1 are left out. So a shift moves no row across a
    threshold of the estimators (coincident points, near-zero focal length,
    near-vertical pair line).
    """
    p = np.array([draw(st.floats(0.0, 4000.0)), draw(st.floats(0.0, 3000.0))])
    t = np.array([draw(st.floats(-5000.0, 5000.0)), draw(st.floats(-5000.0, 5000.0))])
    raw = []
    for _ in range(draw(st.integers(5, 24))):
        kind = draw(st.sampled_from(["real", "imaginary", "direction"]))
        alpha, r1 = draw(ANGLE), draw(st.floats(20.0, 4000.0))
        a = r1 * np.array([np.cos(alpha), np.sin(alpha)])
        if kind == "direction":
            phi = draw(ANGLE)
            d = np.array([np.cos(phi), np.sin(phi)])
            if abs(d[0]) < 0.05:
                continue
            raw.append((p + a, d, False, True))
            continue
        delta = draw(st.floats(-1.0, 1.0)) + (np.pi if kind == "real" else 0.0)
        r2 = r1 + draw(st.floats(10.0, 3000.0))
        b = r2 * np.array([np.cos(alpha + delta), np.sin(alpha + delta)])
        if abs(a[0] - b[0]) < 0.05 * np.linalg.norm(a - b):
            continue
        raw.append((p + a, p + b, False, False))
    return raw, p, t


@BOUNDED
@given(scene=shifted_scenes())
def test_a_common_shift_moves_only_the_horizon_intercept(scene):
    raw, p, t = scene

    def run(shift):
        first = np.array([u + (0.0 if d else shift) for u, _, d, _ in raw]).reshape(-1, 2)
        second = np.array([v + (0.0 if d else shift) for _, v, _, d in raw]).reshape(-1, 2)
        masks = [np.array([r[k] for r in raw], dtype=bool) for k in (2, 3)]
        pairs = PairSet(first, second, *masks)
        return calibrate(pairs, None, min_pairs=1, principal_point=p + shift)

    try:
        before = run(np.zeros(2))
    except VPCalibError as exc:
        with pytest.raises(type(exc)):
            run(t)
        return
    after = run(t)
    assert after.n_pairs_used == before.n_pairs_used
    assert after.intrinsics.f == pytest.approx(before.intrinsics.f, rel=SHIFT_RTOL)
    # plane_normal's sign is fixed by the horizon's -1; unit_normal's flips
    # with a z component of zero, which a horizon through the principal point has
    unit = [c.plane_normal / np.linalg.norm(c.plane_normal) for c in (before, after)]
    np.testing.assert_allclose(unit[1], unit[0], rtol=0, atol=SHIFT_RTOL)
    m, c = before.horizon[0], before.horizon[2]
    assert after.horizon[0] == pytest.approx(m, rel=SHIFT_RTOL, abs=SHIFT_RTOL)
    # y = m x + c moved by (t_x, t_y): y - t_y = m (x - t_x) + c
    expected = c + t[1] - m * t[0]
    scale = abs(c) + abs(t[1]) + abs(m * t[0]) + np.linalg.norm(p)
    assert after.horizon[2] == pytest.approx(expected, rel=0, abs=SHIFT_RTOL * scale)
