"""Property tests: the public per-item camera and plane functions, the tape
sampler and ``evaluate`` give the bits of the scalar references.

Each public function (``project_point``, ``ground_point``,
``project_direction``, ``vehicle_vps``, ``vehicle_bbox_3d``,
``project_to_plane``, ``measured_distance``) is a one-row call of the
column code that scenes and evaluations run; ``tests/synthetic_reference.py``
keeps the per-item bodies they replaced. The cases cover points behind the
camera, pixels above the horizon and at ``max_range``, directions parallel
to the image plane, headings whose vanishing points lie at infinity, sampler
runs with many rejected attempts and measurements whose endpoints do not
project.

Needs Hypothesis (the ``test`` extra) and is skipped without it. The examples
are derandomized and bounded, so the suite stays deterministic and quick.
"""

import dataclasses
import re
from collections import Counter

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import synthetic_reference as ref  # noqa: E402
from vpcalib.calibration import CameraCalibration, CameraIntrinsics, project_to_plane  # noqa: E402
from vpcalib.errors import (  # noqa: E402
    InsufficientMeasurements,
    PointOnHorizon,
    UnprojectablePoint,
)
from vpcalib.evaluation import PAIR_MODES, evaluate, measured_distance, ratio_error  # noqa: E402
from vpcalib.synthetic import (  # noqa: E402
    SceneSpec,
    SyntheticCamera,
    SyntheticVehicle,
    _MEASUREMENT_BATCH,
    _measurements,
    camera_rotation,
    generate_scene,
    make_camera,
    vehicle_bbox_3d,
    vehicle_vps,
)

BOUNDED = settings(max_examples=150, derandomize=True, deadline=None, database=None)


def _same(got, expected) -> bool:
    """The same error, both None, or the same shape and bytes."""
    if isinstance(got, tuple) or isinstance(expected, tuple):
        return isinstance(got, tuple) and isinstance(expected, tuple) and got == expected
    if got is None or expected is None:
        return got is None and expected is None
    got, expected = np.asarray(got), np.asarray(expected)
    return got.shape == expected.shape and got.tobytes() == expected.tobytes()


def _outcome(fn, *args):
    """``fn(*args)``, or the type and message of the error it raises."""
    try:
        return fn(*args)
    except (PointOnHorizon, UnprojectablePoint) as exc:
        return type(exc), str(exc)


cameras = st.builds(
    SyntheticCamera,
    f=st.floats(20.0, 3000.0),
    principal_point=st.tuples(st.floats(0.0, 1920.0), st.floats(0.0, 1080.0)).map(np.array),
    # 90 degrees looks straight down: every horizontal direction is parallel to the image
    rotation=st.builds(camera_rotation, st.floats(-30.0, 90.0) | st.just(90.0),
                       st.floats(-20.0, 20.0)),
    image_size=st.just((1920.0, 1080.0)),
    height=st.floats(1.0, 50.0),
)
# unit-scale vectors, away from lengths whose squares underflow
VECTORS = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: np.linalg.norm(v) > 1e-3)


@st.composite
def camera_cases(draw):
    camera = draw(cameras)
    # world points ahead, behind and beside the camera, its centre included
    points = draw(st.lists(st.tuples(st.floats(-300, 300), st.floats(-300, 300),
                                     st.floats(-40, 40)), min_size=1, max_size=8))
    points.append(tuple(camera.center))
    # pixels in and around the frame, so above the horizon too
    pixels = draw(st.lists(st.tuples(st.floats(-2000, 4000), st.floats(-2000, 3000)),
                           min_size=1, max_size=8))
    directions = draw(st.lists(VECTORS, min_size=1, max_size=4))
    # parallel to the image plane: a combination of the camera's x and y axes
    a, b, _ = draw(VECTORS)
    directions.append(tuple(camera.rotation.T @ np.array([a, b, 0.0])))
    # headings whose heading or axle is parallel to the image plane: the
    # camera's optical axis in the world is rotation[2]
    axis = camera.rotation[2]
    headings = draw(st.lists(st.floats(0.0, 2 * np.pi), min_size=1, max_size=4))
    headings += [np.arctan2(-axis[0], axis[1]), np.arctan2(axis[1], axis[0])]
    return camera, points, pixels, directions, headings


def test_camera_functions_match_the_scalar_references():
    kinds = Counter()

    @BOUNDED
    @given(case=camera_cases(), max_range=st.floats(1.0, 2000.0))
    def check(case, max_range):
        camera, points, pixels, directions, headings = case
        for point in points:
            expected = ref.project_point(camera, point)
            kinds["point behind the camera"] += expected is None
            assert _same(camera.project_point(point), expected)
        for pixel in pixels:
            assert _same(camera.ground_point(pixel, max_range),
                         ref.ground_point(camera, pixel, max_range))
            unbounded = ref.ground_point(camera, pixel, np.inf)
            if unbounded is None:
                kinds["pixel above the horizon"] += 1
                continue
            # exactly at the range is in it, and just short of it is past it
            edge = np.hypot(unbounded[0], unbounded[1])
            for bound in (edge, np.nextafter(edge, 0.0)):
                expected = ref.ground_point(camera, pixel, bound)
                kinds["pixel at max_range" if expected is not None else "pixel past max_range"] += 1
                assert _same(camera.ground_point(pixel, bound), expected)
        for direction in directions:
            expected = ref.project_direction(camera, direction)
            kinds["direction parallel to the image"] += expected is None
            assert _same(camera.project_direction(direction), expected)
        for k, heading in enumerate(headings):
            vehicle = SyntheticVehicle((10.0 * k, -3.0 * k), heading, (4.0 + k, 1.5, 1.2 + 0.1 * k))
            got, expected = vehicle_vps(camera, vehicle), ref.vehicle_vps(camera, vehicle)
            kinds["vanishing point at infinity"] += not expected.finite
            assert _same([got.first, got.second], [expected.first, expected.second])
            assert (got.first_is_direction, got.second_is_direction) == (
                expected.first_is_direction, expected.second_is_direction)
            assert _same(vehicle_bbox_3d(vehicle), ref.vehicle_bbox_3d(vehicle))

    check()
    for kind in ("point behind the camera", "pixel above the horizon", "pixel at max_range",
                 "pixel past max_range", "direction parallel to the image",
                 "vanishing point at infinity"):
        assert kinds[kind], f"no {kind} among the examples: {dict(kinds)}"


sampler_specs = st.builds(
    SceneSpec,
    seed=st.integers(0, 2**40),
    n_vehicles=st.just(1),
    # short focal lengths and low tilts reject many attempts
    f=st.floats(20.0, 3000.0),
    tilt_deg=st.floats(1.0, 85.0),
    roll_deg=st.floats(-10.0, 10.0),
    image_size=st.sampled_from([(1920.0, 1080.0), (640.0, 480.0)]),
    n_measurements=st.integers(0, 40),
    camera_height=st.floats(2.0, 30.0),
)


def test_sampler_matches_the_scalar_loop():
    kinds = Counter()

    @BOUNDED
    @given(spec=sampler_specs)
    # a camera looking up sees no road: every attempt fails
    @example(spec=SceneSpec(seed=5, n_vehicles=1, tilt_deg=-20.0, n_measurements=3))
    def check(spec):
        camera = make_camera(spec)
        try:
            expected, attempts = ref.measurements(spec, camera)
        except InsufficientMeasurements as exc:
            kinds["too little road"] += 1
            with pytest.raises(InsufficientMeasurements, match=re.escape(str(exc))):
                _measurements(spec, camera)
            return
        got = _measurements(spec, camera)
        kinds["no measurement"] += not spec.n_measurements
        # the sampler's first batch holds two attempts per measurement
        kinds["more than one batch of attempts"] += attempts > 2 * spec.n_measurements
        assert len(got) == len(expected) == spec.n_measurements
        for m, e in zip(got, expected):
            assert _same([*m.a, *m.b, m.ground_truth], [*e.a, *e.b, e.ground_truth])

    check()
    for kind in ("too little road", "no measurement", "more than one batch of attempts"):
        assert kinds[kind], f"no {kind} among the examples: {dict(kinds)}"


def test_sampler_past_its_batch_size_matches_the_scalar_loop():
    # more measurements than one batch of attempts can give
    spec = SceneSpec(seed=8, n_vehicles=1, tilt_deg=12.0, n_measurements=_MEASUREMENT_BATCH + 1)
    camera = make_camera(spec)
    expected, attempts = ref.measurements(spec, camera)
    assert attempts > _MEASUREMENT_BATCH
    got = _measurements(spec, camera)
    assert _same([[*m.a, *m.b, m.ground_truth] for m in got],
                 [[*e.a, *e.b, e.ground_truth] for e in expected])


@BOUNDED
@given(
    seed=st.integers(0, 1000),
    n_measurements=st.integers(2, 30),
    f_scale=st.floats(0.5, 2.0),
    normal_shift=st.tuples(st.floats(-0.2, 0.2), st.floats(-0.2, 0.2)),
    above=st.lists(st.integers(0, 29), max_size=3),
    delta=st.floats(0.1, 20.0),
)
def test_evaluate_matches_the_per_measurement_loop(seed, n_measurements, f_scale, normal_shift,
                                                   above, delta):
    _, measurements, truth = generate_scene(
        SceneSpec(seed=seed, n_vehicles=1, n_measurements=n_measurements))
    calibration = CameraCalibration(
        intrinsics=CameraIntrinsics(truth.intrinsics.f * f_scale, truth.intrinsics.principal_point),
        horizon=truth.horizon,
        plane_normal=truth.plane_normal + [*normal_shift, 0.0],
        delta=delta,
    )
    # an endpoint far above the horizon: its measurement is skipped
    for k in above:
        if k < len(measurements):
            measurements[k] = dataclasses.replace(measurements[k], b=[500.0, -1e6])
    for m in measurements:
        assert _same(_outcome(measured_distance, m, calibration),
                     _outcome(ref.measured_distance, m, calibration))
        ends = [_outcome(ref.project_to_plane, end, calibration) for end in (m.a, m.b)]
        for end, expected in zip((m.a, m.b), ends):
            assert _same(_outcome(project_to_plane, end, calibration), expected)
        # a batch gives the bits of its one-point calls
        batch = next((e for e in ends if isinstance(e, tuple)), None)
        assert _same(_outcome(project_to_plane, np.stack([m.a, m.b]), calibration),
                     batch or np.stack(ends))
    measured, truth_distances, n_skipped = ref.distances(measurements, calibration)
    if len(measured) < 2:
        with pytest.raises(InsufficientMeasurements):
            evaluate(measurements, calibration)
        return
    for mode in PAIR_MODES:
        report = evaluate(measurements, calibration, pair_mode=mode)
        assert (report.n_measurements, report.n_skipped) == (len(measured), n_skipped)
        i, j = report.pair_i, report.pair_j
        errors = ratio_error(i, j, measured, truth_distances)
        if mode == "unordered-min":
            errors = np.minimum(errors, ratio_error(j, i, measured, truth_distances))
        assert _same(report.errors, errors)
        assert _same(report.mean_error, float(np.mean(errors)))
