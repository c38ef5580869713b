import dataclasses

import numpy as np
import pytest

from vpcalib.calibration import CameraCalibration, CameraIntrinsics
from vpcalib.errors import InsufficientMeasurements, UnprojectablePoint
from vpcalib.evaluation import (
    PAIR_MODES,
    DistanceMeasurement,
    evaluate,
    measured_distance,
    ratio_error,
)
from vpcalib.synthetic import SceneSpec, generate_scene
from synthetic_reference import measured_distance as reference_distance


@pytest.fixture
def frontoparallel():
    # road plane z = 1 facing the camera head-on: distances are pixel / f
    return CameraCalibration(
        intrinsics=CameraIntrinsics(500.0, [100.0, 80.0]),
        horizon=[0.0, -1.0, 1e9],
        plane_normal=[0.0, 0.0, -1.0],
    )


class TestRatioError:
    def test_hand_computed_case(self):
        assert ratio_error(0, 1, [2.2, 4.0], [2.0, 4.0]) == pytest.approx(0.1)

    def test_perfect_calibration_is_zero(self):
        assert ratio_error(0, 1, [3.7, 5.1], [3.7, 5.1]) == 0.0

    @pytest.mark.parametrize("k", [0.1, 1.0, 7.0])
    def test_invariant_under_global_rescale(self, k):
        measured = np.array([2.2, 4.0, 9.5])
        truth = [2.0, 4.0, 9.0]
        base = ratio_error(0, 2, measured, truth)
        assert ratio_error(0, 2, measured * k, truth) == pytest.approx(base, rel=1e-12)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            ratio_error(0, 1, [1.0, 0.0], [1.0, 2.0])

    def test_asymmetry(self):
        measured = [2.2, 4.0]
        truth = [2.0, 4.0]
        assert ratio_error(0, 1, measured, truth) != ratio_error(1, 0, measured, truth)

    @pytest.mark.parametrize("mode", PAIR_MODES)
    def test_index_arrays_match_the_scalar_loop(self, mode):
        _, measurements, truth = generate_scene(SceneSpec(seed=29, n_vehicles=5, n_measurements=6))
        wrong = CameraCalibration(
            intrinsics=CameraIntrinsics(truth.intrinsics.f * 1.2, truth.intrinsics.principal_point),
            horizon=truth.horizon,
            plane_normal=truth.plane_normal,
        )
        # the one-measurement reference, which evaluate's columns must match
        d = [reference_distance(m, wrong) for m in measurements]
        g = [m.ground_truth for m in measurements]

        def scalar(a, b):
            # the per-pair formula in Python floats
            ratio = g[a] / g[b]
            return abs(d[a] / d[b] - ratio) / ratio

        n = len(d)
        pairs = [(a, b) for a in range(n) for b in range(n) if (a != b if mode == "ordered" else a < b)]
        i, j = (np.array(k) for k in zip(*pairs))
        assert ratio_error(i, j, d, g).tolist() == [scalar(a, b) for a, b in pairs]
        assert [ratio_error(a, b, d, g) for a, b in pairs] == [scalar(a, b) for a, b in pairs]
        expected = [
            (a, b, min(scalar(a, b), scalar(b, a)) if mode == "unordered-min" else scalar(a, b))
            for a, b in pairs
        ]
        assert evaluate(measurements, wrong, pair_mode=mode).per_pair_errors == tuple(expected)


class TestMeasuredDistance:
    def test_frontoparallel_scales_pixels_by_inverse_focal(self, frontoparallel):
        m = DistanceMeasurement([100.0, 80.0], [160.0, 160.0], 1.0)
        pixel = np.hypot(60.0, 80.0)
        assert measured_distance(m, frontoparallel) == pytest.approx(pixel / 500.0)

    def test_point_on_horizon_is_unprojectable(self):
        cal = CameraCalibration(
            intrinsics=CameraIntrinsics(100.0, [0.0, 0.0]),
            horizon=[0.0, -1.0, -100.0],
            plane_normal=[0.0, -100.0, -100.0],
        )
        m = DistanceMeasurement([0.0, -100.0], [5.0, 0.0], 2.0)
        with pytest.raises(UnprojectablePoint):
            measured_distance(m, cal)

    def test_near_horizon_large_but_finite(self):
        cal = CameraCalibration(
            intrinsics=CameraIntrinsics(100.0, [0.0, 0.0]),
            horizon=[0.0, -1.0, -100.0],
            plane_normal=[0.0, -100.0, -100.0],
        )
        m = DistanceMeasurement([0.0, -99.0], [0.0, -98.9], 1.0)
        d = measured_distance(m, cal)
        assert np.isfinite(d) and d > 0.0

    def test_exact_scene_measures_truth(self):
        spec = SceneSpec(seed=17, n_vehicles=5, n_measurements=6)
        _, measurements, truth = generate_scene(spec)
        for m in measurements:
            assert measured_distance(m, truth) == pytest.approx(m.ground_truth, rel=1e-9)


class TestEvaluate:
    def test_two_measurements_make_two_ordered_pairs(self, frontoparallel):
        ms = [
            DistanceMeasurement([100.0, 80.0], [200.0, 80.0], 0.2),
            DistanceMeasurement([100.0, 80.0], [100.0, 230.0], 0.3),
        ]
        report = evaluate(ms, frontoparallel)
        assert len(report.per_pair_errors) == 2
        assert report.pair_mode == "ordered"
        assert report.mean_error == pytest.approx(0.0, abs=1e-12)

    def test_exact_scene_error_is_zero(self):
        spec = SceneSpec(seed=23, n_vehicles=5, n_measurements=10)
        _, measurements, truth = generate_scene(spec)
        report = evaluate(measurements, truth)
        assert report.mean_error < 1e-9
        assert report.n_measurements == 10
        assert report.n_skipped == 0

    def test_perturbed_focal_reproducible_error(self):
        spec = SceneSpec(seed=23, n_vehicles=5, n_measurements=10)
        _, measurements, truth = generate_scene(spec)
        wrong = CameraCalibration(
            intrinsics=CameraIntrinsics(truth.intrinsics.f * 1.1, truth.intrinsics.principal_point),
            horizon=truth.horizon,
            plane_normal=truth.plane_normal,
            delta=truth.delta,
        )
        r1 = evaluate(measurements, wrong)
        r2 = evaluate(measurements, wrong)
        assert r1.mean_error > 0.0
        assert r1.mean_error == r2.mean_error
        assert r1.per_pair_errors == r2.per_pair_errors

    def test_mean_matches_per_pair_errors(self):
        spec = SceneSpec(seed=29, n_vehicles=5, n_measurements=6)
        _, measurements, truth = generate_scene(spec)
        wrong = CameraCalibration(
            intrinsics=CameraIntrinsics(truth.intrinsics.f * 1.2, truth.intrinsics.principal_point),
            horizon=truth.horizon,
            plane_normal=truth.plane_normal,
        )
        report = evaluate(measurements, wrong)
        assert report.mean_error == pytest.approx(
            np.mean([r for _, _, r in report.per_pair_errors]), rel=1e-12
        )
        n = report.n_measurements
        assert len(report.per_pair_errors) == n * (n - 1)

    def test_unordered_modes(self, frontoparallel):
        ms = [
            DistanceMeasurement([100.0, 80.0], [200.0, 80.0], 0.21),
            DistanceMeasurement([100.0, 80.0], [100.0, 230.0], 0.3),
            DistanceMeasurement([150.0, 90.0], [250.0, 220.0], 0.35),
        ]
        ordered = evaluate(ms, frontoparallel, pair_mode="ordered")
        umin = evaluate(ms, frontoparallel, pair_mode="unordered-min")
        ufirst = evaluate(ms, frontoparallel, pair_mode="unordered-first")
        assert len(ordered.per_pair_errors) == 6
        assert len(umin.per_pair_errors) == 3
        assert len(ufirst.per_pair_errors) == 3
        assert umin.mean_error <= ordered.mean_error + 1e-15
        with pytest.raises(ValueError):
            evaluate(ms, frontoparallel, pair_mode="bogus")

    def test_skipped_measurements_counted(self):
        cal = CameraCalibration(
            intrinsics=CameraIntrinsics(100.0, [0.0, 0.0]),
            horizon=[0.0, -1.0, -100.0],
            plane_normal=[0.0, -100.0, -100.0],
        )
        ms = [
            DistanceMeasurement([0.0, 0.0], [10.0, 0.0], 1.0),
            DistanceMeasurement([0.0, 10.0], [10.0, 10.0], 1.0),
            DistanceMeasurement([0.0, -100.0], [10.0, 0.0], 1.0),  # on horizon
        ]
        report = evaluate(ms, cal)
        assert report.n_measurements == 2
        assert report.n_skipped == 1

    def test_endpoint_above_the_horizon_skipped(self):
        # its ray meets the road plane behind the camera, at a distance that
        # would count as a measurement, and a wrong one
        spec = SceneSpec(seed=17, n_vehicles=5, n_measurements=6)
        _, measurements, truth = generate_scene(spec)
        assert evaluate(measurements, truth).mean_error == pytest.approx(0.0, abs=1e-9)
        moved = measurements[:2] + [dataclasses.replace(measurements[2], a=[100.0, -1e6])]
        report = evaluate(moved + measurements[3:], truth)
        assert (report.n_measurements, report.n_skipped) == (5, 1)
        assert report.mean_error == pytest.approx(0.0, abs=1e-9)
        # a normal that puts the plane behind the camera projects nothing
        flipped = dataclasses.replace(truth, plane_normal=-truth.plane_normal)
        with pytest.raises(InsufficientMeasurements, match="0 projectable"):
            evaluate(measurements, flipped)

    def test_insufficient_measurements(self, frontoparallel):
        ms = [DistanceMeasurement([0.0, 0.0], [10.0, 0.0], 1.0)]
        with pytest.raises(InsufficientMeasurements):
            evaluate(ms, frontoparallel)

    def test_global_delta_invariance(self):
        spec = SceneSpec(seed=23, n_vehicles=5, n_measurements=8)
        _, measurements, truth = generate_scene(spec)
        for delta in (0.1, 1.0, 7.0):
            scaled = CameraCalibration(
                intrinsics=truth.intrinsics,
                horizon=truth.horizon,
                plane_normal=truth.plane_normal,
                delta=delta,
            )
            report = evaluate(measurements, scaled)
            assert report.mean_error < 1e-9


def test_measurement_validation():
    with pytest.raises(ValueError):
        DistanceMeasurement([1.0, 2.0], [1.0, 2.0], 1.0)
    with pytest.raises(ValueError):
        DistanceMeasurement([1.0, 2.0], [3.0, 4.0], -1.0)
