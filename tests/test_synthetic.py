import numpy as np
import pytest

from vpcalib.calibration import focal_from_pair
from vpcalib.projective import incidence_residual, line_through
from vpcalib.synthetic import (
    SceneSpec,
    SyntheticCamera,
    SyntheticVehicle,
    camera_rotation,
    generate_observations,
    generate_scene,
    ground_truth_calibration,
    make_camera,
    vehicle_bbox_3d,
    vehicle_vps,
)


@pytest.fixture
def camera():
    return SyntheticCamera(
        f=1200.0,
        principal_point=np.array([960.0, 540.0]),
        rotation=camera_rotation(25.0, 2.0),
        image_size=(1920.0, 1080.0),
        height=10.0,
    )


class TestVehicleVPs:
    def test_focal_identity_for_every_pair(self, camera, rng):
        for _ in range(300):
            veh = SyntheticVehicle(rng.uniform(-30, 30, 2), rng.uniform(0, 2 * np.pi))
            pair = vehicle_vps(camera, veh)
            if not pair.finite:
                continue
            f = focal_from_pair(pair, camera.principal_point)
            assert f == pytest.approx(camera.f, rel=1e-9)

    def test_all_vps_collinear_on_horizon(self, camera, rng):
        truth = ground_truth_calibration(camera)
        points = []
        for _ in range(1000):
            veh = SyntheticVehicle(rng.uniform(-30, 30, 2), rng.uniform(0, 2 * np.pi))
            pair = vehicle_vps(camera, veh)
            if pair.finite:
                points.append([*pair.first, 1.0])
                points.append([*pair.second, 1.0])
        residual = incidence_residual(truth.horizon, np.array(points))
        assert residual.max() < 1e-7

    def test_straight_down_camera_yields_directions(self):
        camera = SyntheticCamera(
            f=1000.0,
            principal_point=np.array([500.0, 500.0]),
            rotation=camera_rotation(90.0, 0.0),
            image_size=(1000.0, 1000.0),
        )
        pair = vehicle_vps(camera, SyntheticVehicle(np.array([0.0, 0.0]), 0.0))
        assert pair.first_is_direction and pair.second_is_direction
        assert np.linalg.norm(pair.first) == pytest.approx(1.0)

    def test_pair_line_slope_uses_direction(self, camera):
        veh = SyntheticVehicle(np.array([5.0, 20.0]), 0.7)
        pair = vehicle_vps(camera, veh)
        line = line_through([*pair.first, 1.0], [*pair.second, 1.0])
        truth = ground_truth_calibration(camera)
        # pair line is the horizon itself for exact inputs
        assert abs(-line[0] / line[1] - truth.horizon[0]) < 1e-9


class TestGroundTruth:
    def test_unit_normal_and_height_give_metric_distances(self, camera):
        spec = SceneSpec(seed=3, n_vehicles=3, n_measurements=5)
        _, measurements, truth = generate_scene(spec)
        assert np.linalg.norm(truth.plane_normal) == pytest.approx(1.0)
        assert truth.delta == spec.camera_height

    def test_horizon_matches_tilt(self):
        # zero roll: horizon is horizontal at y = p_y - f * tan(tilt)
        cam = SyntheticCamera(
            f=1000.0,
            principal_point=np.array([500.0, 400.0]),
            rotation=camera_rotation(20.0, 0.0),
            image_size=(1000.0, 800.0),
        )
        truth = ground_truth_calibration(cam)
        assert truth.horizon[0] == pytest.approx(0.0, abs=1e-12)
        y = truth.horizon[2]
        assert y == pytest.approx(400.0 - 1000.0 * np.tan(np.radians(20.0)), rel=1e-12)

    def test_rotation_validation(self):
        with pytest.raises(ValueError):
            SyntheticCamera(
                f=1.0,
                principal_point=np.zeros(2),
                rotation=np.eye(3) * 2.0,
                image_size=(10, 10),
            )


    @pytest.mark.parametrize("f", [1e-320, 9.9e-61, 1.1e60, 1e300])
    def test_focal_lengths_outside_the_length_range_are_rejected(self, f):
        # at f = 1e-320 every point projected onto the principal point
        with pytest.raises(ValueError, match="f must be a finite number in"):
            SyntheticCamera(f=f, principal_point=np.array([960.0, 540.0]),
                            rotation=camera_rotation(25.0, 2.0), image_size=(1920.0, 1080.0))

    @pytest.mark.parametrize("f", [1e-60, 1e60])
    def test_every_valid_scene_builds_its_camera(self, f):
        assert make_camera(SceneSpec(seed=1, n_vehicles=1, f=f)).f == f


class TestGenerateScene:
    def test_deterministic_for_seed(self):
        spec = SceneSpec(seed=99, n_vehicles=12, noise_sigma_px=1.5, outlier_fraction=0.25)
        pairs1, ms1, _ = generate_scene(spec)
        pairs2, ms2, _ = generate_scene(spec)
        for a, b in zip(pairs1, pairs2):
            np.testing.assert_array_equal(a.first, b.first)
            np.testing.assert_array_equal(a.second, b.second)
        for a, b in zip(ms1, ms2):
            np.testing.assert_array_equal(a.a, b.a)
            assert a.ground_truth == b.ground_truth

    def test_parallel_equals_serial(self):
        spec = SceneSpec(seed=5, n_vehicles=16, noise_sigma_px=2.0)
        serial, _, _ = generate_scene(spec, parallel=False)
        para, _, _ = generate_scene(spec, parallel=True)
        for a, b in zip(serial, para):
            np.testing.assert_array_equal(a.first, b.first)
            np.testing.assert_array_equal(a.second, b.second)

    def test_different_seeds_differ(self):
        a, _, _ = generate_scene(SceneSpec(seed=1, n_vehicles=5))
        b, _, _ = generate_scene(SceneSpec(seed=2, n_vehicles=5))
        assert not np.allclose(a[0].first, b[0].first)

    def test_a_camera_without_road_places_every_vehicle_at_its_foot(self):
        # looking up, no pixel sees road: every vehicle spends all 256 tries, and
        # its heading and dimensions come from the window its last try left
        spec = SceneSpec(seed=11, n_vehicles=3, tilt_deg=-30.0, n_measurements=0)
        observations, _, _ = generate_observations(spec)
        for k in range(spec.n_vehicles):
            stream = np.random.default_rng(np.random.SeedSequence((spec.seed, k)))
            draws = stream.random(6 + 2 * 255)
            assert observations.position[k].tolist() == [0.0, 0.0]
            assert observations.heading[k] == 2.0 * np.pi * draws[512]
            low, high = np.array([3.8, 1.6, 1.3]), np.array([5.2, 2.0, 1.8])
            assert observations.dims[k].tolist() == (low + (high - low) * draws[513:]).tolist()

    def test_outlier_fraction_marks_observations(self):
        spec = SceneSpec(seed=77, n_vehicles=40, outlier_fraction=0.3)
        observations, _, _ = generate_observations(spec)
        assert sum(o.is_outlier for o in observations) == 12

    def test_boxes_are_valid_and_anchored(self):
        spec = SceneSpec(seed=8, n_vehicles=10)
        observations, _, _ = generate_observations(spec)
        camera = make_camera(spec)
        for obs in observations:
            anchor = camera.project_point(
                np.array([obs.vehicle.position[0], obs.vehicle.position[1], 0.0])
            )
            assert obs.box.x_min <= anchor[0] <= obs.box.x_max
            assert obs.box.y_min <= anchor[1] <= obs.box.y_max

    def test_bbox_3d_has_eight_corners(self):
        corners = vehicle_bbox_3d(SyntheticVehicle(np.array([1.0, 2.0]), 0.3))
        assert corners.shape == (8, 3)
        assert set(np.round(corners[:, 2], 9)) == {0.0, 1.5}

    def test_measurements_in_frame(self):
        spec = SceneSpec(seed=4, n_vehicles=3, n_measurements=12)
        _, measurements, _ = generate_scene(spec)
        assert len(measurements) == 12
        w, h = spec.image_size
        for m in measurements:
            assert 0 <= m.a[0] < w and 0 <= m.a[1] < h
            assert 0 <= m.b[0] < w and 0 <= m.b[1] < h

    def test_spec_json_round_trip(self):
        spec = SceneSpec(seed=6, n_vehicles=7, noise_sigma_px=0.5)
        import json

        again = SceneSpec.from_json(json.dumps(spec.to_dict()))
        assert again == spec

    def test_spec_json_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="tilt"):
            SceneSpec.from_json('{"seed": 1, "n_vehicles": 2, "tilt": 30}')

    @pytest.mark.parametrize("f", [500.0, 3000.0])
    @pytest.mark.parametrize("tilt", [5.0, 45.0, 85.0])
    @pytest.mark.parametrize("roll", [-10.0, 10.0])
    def test_oracle_closes_across_geometries(self, f, tilt, roll):
        from vpcalib.calibration import calibrate
        from vpcalib.evaluation import evaluate

        spec = SceneSpec(seed=555, n_vehicles=15, f=f, tilt_deg=tilt, roll_deg=roll)
        pairs, measurements, truth = generate_scene(spec)
        cal = calibrate(pairs, spec.image_size)
        assert cal.intrinsics.f == pytest.approx(truth.intrinsics.f, rel=1e-9)
        angle = np.arccos(np.clip(abs(np.dot(cal.unit_normal, truth.unit_normal)), -1, 1))
        assert np.degrees(angle) < 1e-5
        assert evaluate(measurements, cal).mean_error < 1e-9


class TestGroundPoint:
    def test_back_projection_round_trip(self, camera, rng):
        for _ in range(100):
            pixel = rng.uniform([0, 0], [1920, 1080])
            ground = camera.ground_point(pixel)
            if ground is None:
                continue
            assert ground[2] == 0.0
            reproj = camera.project_point(ground)
            np.testing.assert_allclose(reproj, pixel, atol=1e-6)

    def test_above_horizon_sees_no_ground(self, camera):
        truth = ground_truth_calibration(camera)
        # a pixel well above the horizon line
        x = 960.0
        y_horizon = truth.horizon[0] * x + truth.horizon[2]
        assert camera.ground_point([x, y_horizon - 50.0]) is None

    def test_range_cutoff(self, camera):
        truth = ground_truth_calibration(camera)
        x = 960.0
        y_horizon = truth.horizon[0] * x + truth.horizon[2]
        just_below = camera.ground_point([x, y_horizon + 1.0], max_range=100.0)
        assert just_below is None
