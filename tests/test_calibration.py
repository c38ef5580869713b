import dataclasses
import warnings

import numpy as np
import pytest

from vpcalib.calibration import (
    FOCAL_EPSILON,
    MAX_COEFFICIENT,
    MAX_COORDINATE,
    CameraCalibration,
    CameraIntrinsics,
    PairSet,
    VPPair,
    calibrate,
    estimate_focal,
    estimate_horizon,
    focal_from_pair,
    plane_normal_from_horizon,
    project_to_plane,
)
from vpcalib.errors import (
    ImaginaryFocal,
    InsufficientPairs,
    NearVerticalHorizon,
    NearZeroFocal,
    PointOnHorizon,
)
from vpcalib.synthetic import SceneSpec, generate_scene


def pair(u, v, **kw):
    return VPPair(np.asarray(u, float), np.asarray(v, float), **kw)


class TestPairSet:
    def test_rejects_what_vppair_rejects(self):
        for first, second in [
            ([[1.0, np.nan]], [[0.0, 0.0]]),
            ([[1.0, 2.0, 3.0]], [[0.0, 0.0, 0.0]]),
            ([[1.0, 2.0]], [[1.0, 2.0 + 1e-9]]),
            ([[1.0, 2.0], [3.0, 4.0]], [[5.0, 6.0]]),
        ]:
            with pytest.raises(ValueError):
                PairSet(first, second)
        with pytest.raises(ValueError):
            PairSet([[1.0, 2.0]], [[3.0, 4.0]], first_is_direction=[True, False])
        # a direction may equal the other member's position
        assert len(PairSet([[1.0, 2.0]], [[1.0, 2.0]], first_is_direction=[True])) == 1

    def test_rejects_coordinates_beyond_the_bound(self):
        # the focal radicand of this pair would overflow to -inf
        first, second = [1.7e308, 0.0], [-1.7e308, 0.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for build in (lambda: VPPair(first, second), lambda: PairSet([first], [second]),
                          lambda: PairSet([[MAX_COORDINATE * 1.5, 0.0]], [[0.0, 0.0]]),
                          lambda: PairSet([[0.0, 0.0]], [[0.0, -np.inf]])):
                with pytest.raises(ValueError, match="finite values of magnitude"):
                    build()
            # within the bound, the pair still counts
            edge = PairSet([[MAX_COORDINATE, 0.0]], [[-MAX_COORDINATE, 0.0]])
            assert estimate_focal(edge, [0.0, 0.0], min_pairs=1) == MAX_COORDINATE

    def test_iterates_as_the_vppairs_it_holds(self):
        pairs = [pair([100, 0], [-100, 0]), pair([0.6, 0.8], [5, 7], first_is_direction=True)]
        columns = PairSet.of(pairs)
        assert PairSet.of(columns) is columns
        assert len(columns) == len(list(columns)) == 2
        for got, want in zip(columns, pairs):
            np.testing.assert_array_equal(got.first, want.first)
            np.testing.assert_array_equal(got.second, want.second)
            assert got.first_is_direction == want.first_is_direction
            assert got.second_is_direction == want.second_is_direction

    def test_immutable(self):
        columns = PairSet([[1.0, 2.0]], [[3.0, 4.0]])
        with pytest.raises(AttributeError):
            columns.first = np.zeros((1, 2))
        with pytest.raises(ValueError):
            columns.first[0, 0] = 3.0


class TestFocalFromPair:
    def test_symmetric_points(self):
        assert focal_from_pair(pair([100, 0], [-100, 0]), [0.0, 0.0]) == pytest.approx(100.0)

    def test_offset_principal_point(self):
        f = focal_from_pair(pair([1260, 340], [360, 340]), [960.0, 540.0])
        assert f == pytest.approx(np.sqrt(140000.0), rel=1e-12)

    def test_same_side_points_are_invalid(self):
        with pytest.raises(ImaginaryFocal):
            focal_from_pair(pair([100, 0], [200, 0]), [0.0, 0.0])

    def test_tiny_focal_rejected(self):
        with pytest.raises(NearZeroFocal):
            focal_from_pair(pair([0.5, 0], [-0.5, 0]), [0.0, 0.0])

    def test_perpendicular_points_are_invalid(self):
        # (u - p) . (v - p) == 0 exactly: no real focal length, not a tiny one
        with pytest.raises(ImaginaryFocal):
            focal_from_pair(pair([100, 0], [0, 100]), [0.0, 0.0])

    def test_a_focal_of_exactly_the_smallest_plausible_one_is_kept(self):
        assert focal_from_pair(pair([1, 0], [-1, 0]), [0.0, 0.0]) == FOCAL_EPSILON

    def test_orthogonality_identity(self, rng):
        # for every accepted pair, f^2 + (u - p) . (v - p) = 0 exactly
        p = np.array([960.0, 540.0])
        for _ in range(200):
            u = rng.uniform(-2000, 4000, 2)
            v = rng.uniform(-2000, 4000, 2)
            try:
                f = focal_from_pair(pair(u, v), p)
            except (ImaginaryFocal, NearZeroFocal):
                continue
            assert f * f + np.dot(u - p, v - p) == pytest.approx(0.0, abs=1e-6)


class TestEstimateFocal:
    def test_median_absorbs_outlier(self):
        pairs = [
            pair([100, 0], [-100, 0]),
            pair([110, 0], [-110, 0]),
            pair([5000, 0], [-5000, 0]),
        ]
        assert estimate_focal(pairs, [0.0, 0.0], min_pairs=3) == pytest.approx(110.0)

    def test_even_count_averages_central_pair(self):
        pairs = [pair([100, 0], [-100, 0]), pair([200, 0], [-200, 0])]
        assert estimate_focal(pairs, [0.0, 0.0], min_pairs=2) == pytest.approx(150.0)

    def test_permutation_invariant(self, rng):
        pairs = [pair([100 + k, 0], [-(100 + k), 0]) for k in range(9)]
        f0 = estimate_focal(pairs, [0.0, 0.0])
        for _ in range(5):
            rng.shuffle(pairs)
            assert estimate_focal(pairs, [0.0, 0.0]) == f0

    def test_insufficient_pairs(self):
        pairs = [pair([100, 0], [-100, 0])] * 4
        with pytest.raises(InsufficientPairs):
            estimate_focal(pairs, [0.0, 0.0], min_pairs=5)

    def test_imaginary_pairs_do_not_count(self):
        pairs = [pair([100, 0], [-100, 0])] * 5 + [pair([10, 0], [20, 0])] * 10
        f = estimate_focal(pairs, [0.0, 0.0], min_pairs=5)
        assert f == pytest.approx(100.0)


class TestEstimateHorizon:
    def test_median_slope(self):
        pairs = [
            pair([0, 0], [10, 1]),   # slope 0.1
            pair([0, 5], [10, 7]),   # slope 0.2
            pair([0, -3], [10, 6]),  # slope 0.9
        ]
        h = estimate_horizon(pairs, min_pairs=3)
        assert h[0] == pytest.approx(0.2)
        assert h[1] == -1.0

    def test_exact_line_recovered(self):
        # every vanishing point on y = 0.5 x + 30
        pts = [(0.0, 30.0), (10.0, 35.0), (20.0, 40.0), (40.0, 50.0), (-10.0, 25.0), (60.0, 60.0)]
        pairs = [pair(pts[2 * k], pts[2 * k + 1]) for k in range(3)]
        h = estimate_horizon(pairs, min_pairs=3)
        np.testing.assert_allclose(h, [0.5, -1.0, 30.0], atol=1e-12)

    def test_outlier_robustness(self):
        spec = SceneSpec(seed=7, n_vehicles=100, outlier_fraction=0.3, roll_deg=3.0)
        pairs, _, truth = generate_scene(spec)
        h = estimate_horizon(pairs)
        angle = np.degrees(np.arctan(h[0]) - np.arctan(truth.horizon[0]))
        assert abs(angle) < 0.2
        # intercept error at the image centre column of a 1080p frame
        x_mid = 960.0
        y_est = h[0] * x_mid + h[2]
        y_true = truth.horizon[0] * x_mid + truth.horizon[2]
        assert abs(y_est - y_true) < 2.0

    def test_near_vertical_majority_aborts(self):
        vertical = [pair([5, k], [5, 100 + k]) for k in range(6)]
        sloped = [pair([0, k], [10, 1 + k]) for k in range(4)]
        with pytest.raises(NearVerticalHorizon):
            estimate_horizon(vertical + sloped, min_pairs=3)

    def test_insufficient_pairs(self):
        pairs = [pair([0, k], [10, 1 + k]) for k in range(3)]
        with pytest.raises(InsufficientPairs):
            estimate_horizon(pairs, min_pairs=5)

    def test_a_direction_at_the_vertical_tolerance_has_no_slope(self):
        # |d_x| is exactly 1e-9 * |d|, as |d| rounds to 1.0: the direction is
        # taken as vertical, so only the other pair's slope 0.1 counts
        pairs = [pair([0, 0], [10, 1]),
                 pair([1e-9, 1.0], [50.0, 7.0], first_is_direction=True)]
        assert estimate_horizon(pairs, min_pairs=1)[0] == pytest.approx(0.1)

    def test_direction_only_contributes_slope(self):
        # four finite pairs with slope 0.3, one direction-only pair whose
        # direction has slope 0.3 as well; intercepts all at 12
        pairs = [
            pair([x, 0.3 * x + 12], [x + 10, 0.3 * (x + 10) + 12])
            for x in (-20.0, 0.0, 20.0, 40.0)
        ]
        pairs.append(
            pair([1.0, 0.3], [50.0, 0.3 * 50.0 + 12], first_is_direction=True)
        )
        h = estimate_horizon(pairs, min_pairs=5)
        np.testing.assert_allclose(h, [0.3, -1.0, 12.0], atol=1e-12)

    def test_breakdown_stays_within_clean_range(self, rng):
        clean_slope = 0.25
        pairs = [
            pair([x, clean_slope * x + 5], [x + 7, clean_slope * (x + 7) + 5])
            for x in np.linspace(-50, 50, 11)
        ]
        for _ in range(4):  # < 50% corrupted
            u = rng.uniform(-1e4, 1e4, 2)
            v = rng.uniform(-1e4, 1e4, 2)
            pairs.append(pair(u, v))
        h = estimate_horizon(pairs)
        assert h[0] == pytest.approx(clean_slope, abs=1e-9)


class TestPlaneNormal:
    def test_direct_product(self):
        n = plane_normal_from_horizon([0.0, -1.0, 100.0], CameraIntrinsics(1000.0, [0.0, 0.0]))
        np.testing.assert_allclose(n, [0.0, -1000.0, 100.0])

    def test_line_at_infinity_gives_frontoparallel_normal(self):
        n = plane_normal_from_horizon([0.0, 0.0, 1.0], CameraIntrinsics(1.0, [0.0, 0.0]))
        np.testing.assert_allclose(n, [0.0, 0.0, 1.0])

    def test_matches_synthetic_truth(self):
        spec = SceneSpec(seed=3, n_vehicles=10, tilt_deg=32.0, roll_deg=-4.0)
        _, _, truth = generate_scene(spec)
        n = plane_normal_from_horizon(truth.horizon, truth.intrinsics)
        unit = n / np.linalg.norm(n)
        truth_unit = truth.unit_normal
        if unit[2] < 0:
            unit = -unit
        assert np.arccos(np.clip(np.dot(unit, truth_unit), -1, 1)) < 1e-6


class TestProjectToPlane:
    @pytest.fixture
    def frontoparallel(self):
        return CameraCalibration(
            intrinsics=CameraIntrinsics(500.0, [100.0, 80.0]),
            horizon=[0.0, -1.0, 1e9],
            plane_normal=[0.0, 0.0, -1.0],  # the plane z = 1
        )

    def test_optical_axis(self, frontoparallel):
        q = project_to_plane([100.0, 80.0], frontoparallel)
        np.testing.assert_allclose(q, [0.0, 0.0, 1.0])

    def test_plane_behind_the_camera_rejected(self, frontoparallel):
        # the plane z = -1 meets every ray at t = -1
        behind = dataclasses.replace(frontoparallel, plane_normal=[0.0, 0.0, 1.0])
        with pytest.raises(PointOnHorizon):
            project_to_plane([100.0, 80.0], behind)

    def test_plane_equation_always_satisfied(self, rng):
        spec = SceneSpec(seed=11, n_vehicles=10)
        _, _, truth = generate_scene(spec)
        pts = rng.uniform([0, 600], [1920, 1080], size=(200, 2))
        Q = project_to_plane(pts, truth)
        residual = np.abs(Q @ truth.plane_normal + truth.delta)
        assert residual.max() < 1e-12 * np.abs(truth.delta)

    def test_point_on_horizon_rejected(self):
        cal = CameraCalibration(
            intrinsics=CameraIntrinsics(100.0, [0.0, 0.0]),
            horizon=[0.0, -1.0, -100.0],
            plane_normal=[0.0, -100.0, -100.0],  # horizon preimage at y = -100
        )
        with pytest.raises(PointOnHorizon):
            project_to_plane([0.0, -100.0], cal)

    def test_distance_ratios_match_truth(self):
        spec = SceneSpec(seed=5, n_vehicles=10, n_measurements=8)
        _, measurements, truth = generate_scene(spec)
        measured = []
        for m in measurements:
            qa = project_to_plane(m.a, truth)
            qb = project_to_plane(m.b, truth)
            measured.append(np.linalg.norm(qa - qb))
        for i in range(len(measured)):
            for j in range(len(measured)):
                if i == j:
                    continue
                lhs = measured[i] / measured[j]
                rhs = measurements[i].ground_truth / measurements[j].ground_truth
                assert lhs == pytest.approx(rhs, rel=1e-9)


class TestCalibrate:
    def test_exact_scene_recovery(self):
        spec = SceneSpec(seed=42, n_vehicles=20)
        pairs, _, truth = generate_scene(spec)
        cal = calibrate(pairs, spec.image_size)
        assert cal.intrinsics.f == pytest.approx(truth.intrinsics.f, rel=1e-3)
        angle = np.arccos(np.clip(np.dot(cal.unit_normal, truth.unit_normal), -1, 1))
        assert np.degrees(angle) < 0.1
        assert cal.n_pairs_used == 20
        assert cal.n_pairs_rejected == 0

    def test_extreme_pairs_give_a_calibration_within_the_coefficient_bound(self):
        # steep pair lines near x = 0 set the median slope near -2e56, and
        # points near x = MAX_COORDINATE set the median intercept near 2e106
        big = MAX_COORDINATE
        first = [[0.0, big]] * 5 + [[big, big * (0.1 + 0.01 * k)] for k in range(4)]
        first += [[big, 0.1 * k * big] for k in range(9)]
        second = [[1.01e-6, -big]] * 5 + [[0.9 * big, -0.2 * big]] * 4 + [[0.0, 1.0]] * 9
        pairs = PairSet(first, second, second_is_direction=[False] * 9 + [True] * 9)
        cal = calibrate(pairs, (1920, 1080))
        assert 1e106 < np.abs(cal.plane_normal).max() <= MAX_COEFFICIENT
        assert 1e106 < np.abs(cal.horizon).max() <= MAX_COEFFICIENT
        assert CameraCalibration.from_dict(cal.to_dict()) is not None
        with pytest.raises(ValueError, match="plane_normal must be three numbers of magnitude"):
            dataclasses.replace(cal, plane_normal=cal.plane_normal * 1e50)

    def test_too_few_pairs(self):
        pairs = [pair([100 + k, 0], [-(100 + k), 0]) for k in range(4)]
        with pytest.raises(InsufficientPairs):
            calibrate(pairs, (1920, 1080), min_pairs=5)

    def test_near_zero_focal_pairs_are_rejected(self):
        # real focal lengths of 0.5 and 0.995 px: below the 1 px floor
        tiny = [pair([0.5, 0], [-0.5, 0]), pair([0.99, 0], [-1.0, 0])]
        for p in tiny:
            with pytest.raises(NearZeroFocal):
                focal_from_pair(p, [0.0, 0.0])
        pairs = [pair([100 + k, 0], [-(100 + k), 0]) for k in range(5)] + tiny
        cal = calibrate(pairs, None, principal_point=[0.0, 0.0])
        assert (cal.n_pairs_used, cal.n_pairs_rejected) == (5, 2)
        assert cal.intrinsics.f == 102.0

    def test_global_rescaling_consistency(self):
        spec = SceneSpec(seed=9, n_vehicles=15)
        pairs, _, _ = generate_scene(spec)
        k = 2.5
        scaled_pairs = [pair(p.first * k, p.second * k) for p in pairs]
        cal = calibrate(pairs, spec.image_size)
        cal_k = calibrate(scaled_pairs, (spec.image_size[0] * k, spec.image_size[1] * k))
        assert cal_k.intrinsics.f == pytest.approx(cal.intrinsics.f * k, rel=1e-12)
        np.testing.assert_allclose(
            cal_k.intrinsics.principal_point, cal.intrinsics.principal_point * k
        )
        assert cal_k.horizon[2] == pytest.approx(cal.horizon[2] * k, rel=1e-9)
        assert np.dot(cal_k.unit_normal, cal.unit_normal) == pytest.approx(1.0, abs=1e-12)

    def test_principal_point_override(self):
        spec = SceneSpec(seed=21, n_vehicles=10)
        pairs, _, truth = generate_scene(spec)
        cal = calibrate(pairs, spec.image_size, principal_point=truth.intrinsics.principal_point)
        np.testing.assert_allclose(
            cal.intrinsics.principal_point, truth.intrinsics.principal_point
        )

    def test_round_trip_through_dict(self):
        spec = SceneSpec(seed=13, n_vehicles=8)
        pairs, _, _ = generate_scene(spec)
        cal = calibrate(pairs, spec.image_size)
        again = CameraCalibration.from_dict(cal.to_dict())
        assert again.intrinsics.f == cal.intrinsics.f
        np.testing.assert_array_equal(again.horizon, cal.horizon)
        np.testing.assert_array_equal(again.plane_normal, cal.plane_normal)
