import numpy as np
import pytest

from vpcalib.errors import DegenerateHomography
from vpcalib.projective import cross_residual, incidence_residual, line_through
from vpcalib.synthetic import (
    AugmentationParams,
    SceneSpec,
    apply_homography,
    augment,
    generate_observations,
    homography_from_corners,
    make_camera,
    vehicle_bbox_3d,
)

IMAGE_SIZE = (128.0, 128.0)


@pytest.fixture
def box_points(rng):
    # projected 3D box corners of a plausible vehicle crop
    return rng.uniform(20.0, 100.0, size=(8, 2))


class TestHomography:
    def test_identity_from_matching_corners(self):
        corners = np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0], [0.0, 10.0]])
        H = homography_from_corners(corners, corners)
        np.testing.assert_allclose(H, np.eye(3), atol=1e-12)

    def test_maps_corners_exactly(self, rng):
        src = np.array([[0.0, 0.0], [127.0, 0.0], [127.0, 127.0], [0.0, 127.0]])
        dst = src + rng.normal(0, 12.5, (4, 2))
        H = homography_from_corners(src, dst)
        np.testing.assert_allclose(apply_homography(H, src), dst, atol=1e-9)

    def test_collinear_corners_degenerate(self):
        src = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        with pytest.raises(DegenerateHomography):
            homography_from_corners(src, src + 1.0)


class TestAugment:
    def test_noop_parameters_give_identity(self, box_points):
        params = AugmentationParams(corner_sigma=0.0, bbox_jitter=0.0, flip_prob=0.0, rng_seed=1)
        H, box, flipped = augment(IMAGE_SIZE, box_points, params)
        np.testing.assert_array_equal(H, np.eye(3))
        assert not flipped
        np.testing.assert_allclose(
            [box.x_min, box.y_min], box_points.min(axis=0), atol=1e-12
        )
        np.testing.assert_allclose(
            [box.x_max, box.y_max], box_points.max(axis=0), atol=1e-12
        )

    @pytest.mark.parametrize("thin", [0, 1])
    def test_only_the_thin_side_is_widened(self, thin):
        # eight points on the line x = 50 (or y = 50): the box is 1e-9 px wide
        # (or tall) and keeps its 80 px along the line
        points = np.empty((8, 2))
        points[:, thin] = 50.0
        points[:, 1 - thin] = np.linspace(20.0, 100.0, 8)
        params = AugmentationParams(corner_sigma=0.0, bbox_jitter=0.0, flip_prob=0.0, rng_seed=1)
        _, box, _ = augment(IMAGE_SIZE, points, params)
        expected = [(50.0, 20.0, 50.0 + 1e-9, 100.0), (20.0, 50.0, 100.0, 50.0 + 1e-9)][thin]
        assert box.as_tuple() == expected

    def test_deterministic_in_seed(self, box_points):
        params = AugmentationParams(rng_seed=42)
        H1, box1, f1 = augment(IMAGE_SIZE, box_points, params)
        H2, box2, f2 = augment(IMAGE_SIZE, box_points, params)
        np.testing.assert_array_equal(H1, H2)
        assert box1 == box2 and f1 == f2

    def test_vanishing_points_transform_covariantly(self):
        spec = SceneSpec(seed=15, n_vehicles=6)
        observations, _, _ = generate_observations(spec)
        camera = make_camera(spec)
        failures = 0
        for k, obs in enumerate(observations):
            if not obs.pair.finite:
                continue
            corners_world = vehicle_bbox_3d(obs.vehicle)
            pts = np.array([camera.project_point(c) for c in corners_world])
            params = AugmentationParams(rng_seed=1000 + k)
            H, _, _ = augment(camera.image_size, pts, params)
            for vp in (obs.pair.first, obs.pair.second):
                mapped = np.asarray(H) @ np.array([vp[0], vp[1], 1.0])
                expected = apply_homography(H, vp)
                residual = cross_residual(mapped, np.array([expected[0, 0], expected[0, 1], 1.0]))
                if residual > 1e-9:
                    failures += 1
        assert failures == 0

    def test_flip_maps_x_to_width_minus_one_minus_x(self, box_points):
        params = AugmentationParams(corner_sigma=0.0, bbox_jitter=0.0, flip_prob=1.0, rng_seed=3)
        H, _, flipped = augment(IMAGE_SIZE, box_points, params)
        assert flipped
        vp = np.array([37.0, 81.0])
        out = apply_homography(H, vp)[0]
        assert out[0] == pytest.approx(IMAGE_SIZE[0] - 1.0 - vp[0])
        assert out[1] == pytest.approx(vp[1])

    def test_incidence_preserved_under_warp(self, rng, box_points):
        params = AugmentationParams(rng_seed=9)
        H, _, _ = augment(IMAGE_SIZE, box_points, params)
        H = np.asarray(H)
        for _ in range(50):
            p = np.array([*rng.uniform(0, 128, 2), 1.0])
            q = np.array([*rng.uniform(0, 128, 2), 1.0])
            line = line_through(p, q)
            r = 0.3 * p + 0.7 * q  # on the line
            mapped_line = np.linalg.inv(H).T @ line
            assert incidence_residual(mapped_line, H @ r) < 1e-9

    def test_jitter_moves_box_corners(self, box_points):
        base = AugmentationParams(corner_sigma=0.0, bbox_jitter=0.0, flip_prob=0.0, rng_seed=5)
        jit = AugmentationParams(corner_sigma=0.0, bbox_jitter=5.0, flip_prob=0.0, rng_seed=5)
        _, box0, _ = augment(IMAGE_SIZE, box_points, base)
        _, box1, _ = augment(IMAGE_SIZE, box_points, jit)
        deltas = np.array(box1.as_tuple()) - np.array(box0.as_tuple())
        assert np.all(np.abs(deltas) <= 5.0)
        assert np.any(deltas != 0.0)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            AugmentationParams(corner_sigma=-1.0)
        with pytest.raises(ValueError):
            AugmentationParams(flip_prob=1.5)

    # what the augment command rejects in a spec file, the constructor
    # rejects in Python: rng_seed 7.9 would run as 7, True as 1
    @pytest.mark.parametrize("field, value", [
        ("rng_seed", 7.9), ("rng_seed", True), ("rng_seed", "7"), ("rng_seed", -1),
        ("flip_prob", True), ("flip_prob", "0.5"),
        ("corner_sigma", True), ("corner_sigma", "12.5"),
        ("bbox_jitter", False), ("bbox_jitter", "5"),
    ])
    def test_param_types(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must"):
            AugmentationParams(**{field: value})

    def test_params_take_numpy_numbers(self):
        params = AugmentationParams(corner_sigma=np.float64(1.0), bbox_jitter=np.int64(2),
                                    flip_prob=np.float32(0.5), rng_seed=np.int64(3))
        assert params.rng_seed == 3 and type(params.rng_seed) is int
