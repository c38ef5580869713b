import numpy as np
import pytest

from vpcalib.calibration import PairSet, VanishingPointCalibrator
from vpcalib.errors import PointOnHorizon
from vpcalib.synthetic import SceneSpec, generate_scene


@pytest.fixture
def scene():
    spec = SceneSpec(seed=31, n_vehicles=15)
    pairs, measurements, truth = generate_scene(spec)
    return spec, pairs, measurements, truth


def pairs_as_array(pairs):
    return np.array([[*p.first, *p.second] for p in pairs])


class TestEstimatorProtocol:
    def test_get_params_round_trip(self):
        est = VanishingPointCalibrator(image_size=(1920, 1080), min_pairs=7)
        params = est.get_params()
        clone = VanishingPointCalibrator(**params)
        assert clone.get_params() == params

    def test_set_params_returns_self(self):
        est = VanishingPointCalibrator()
        assert est.set_params(min_pairs=3) is est
        assert est.min_pairs == 3

    def test_set_params_rejects_unknown(self):
        with pytest.raises(ValueError):
            VanishingPointCalibrator().set_params(bogus=1)

    def test_sklearn_clone_compatible(self):
        sklearn = pytest.importorskip("sklearn")
        est = VanishingPointCalibrator(image_size=(640, 480), delta=2.0)
        clone = sklearn.clone(est)
        assert clone.get_params() == est.get_params()


class TestFit:
    def test_fit_sets_attributes(self, scene):
        spec, pairs, _, truth = scene
        est = VanishingPointCalibrator(image_size=spec.image_size).fit(pairs)
        assert est.focal_ == pytest.approx(truth.intrinsics.f, rel=1e-9)
        assert est.n_pairs_used_ == len(pairs)
        assert est.n_pairs_rejected_ == 0
        assert est.horizon_.shape == (3,)
        assert est.plane_normal_.shape == (3,)

    def test_fit_accepts_array_input(self, scene):
        spec, pairs, _, truth = scene
        from_list = VanishingPointCalibrator(image_size=spec.image_size).fit(pairs)
        for X in (pairs_as_array(pairs), PairSet.of(pairs)):
            est = VanishingPointCalibrator(image_size=spec.image_size).fit(X)
            assert est.calibration_.to_dict() == from_list.calibration_.to_dict()
        assert est.focal_ == pytest.approx(truth.intrinsics.f, rel=1e-9)

    def test_fit_requires_geometry_hint(self, scene):
        _, pairs, _, _ = scene
        with pytest.raises(ValueError):
            VanishingPointCalibrator().fit(pairs)

    def test_fit_with_principal_point_only(self, scene):
        spec, pairs, _, truth = scene
        est = VanishingPointCalibrator(
            principal_point=tuple(truth.intrinsics.principal_point)
        ).fit(pairs)
        assert est.focal_ == pytest.approx(truth.intrinsics.f, rel=1e-9)

    def test_fit_with_origin_principal_point(self, scene):
        # coordinates may be centred already; a zero principal point is valid
        spec, pairs, _, truth = scene
        pp = truth.intrinsics.principal_point
        shifted = [
            type(pairs[0])(p.first - pp, p.second - pp) for p in pairs if p.finite
        ]
        est = VanishingPointCalibrator(principal_point=(0.0, 0.0)).fit(shifted)
        assert est.focal_ == pytest.approx(truth.intrinsics.f, rel=1e-9)

    def test_bad_array_shape_rejected(self):
        with pytest.raises(ValueError):
            VanishingPointCalibrator(image_size=(64, 64)).fit(np.zeros((5, 3)))


class TestTransform:
    def test_transform_preserves_distance_ratios(self, scene):
        # the plane normal is unnormalized and delta defaults to 1, so only
        # relative distances are meaningful without a metric reference
        spec, pairs, measurements, truth = scene
        est = VanishingPointCalibrator(image_size=spec.image_size)
        est.fit(pairs)
        distances = []
        for m in measurements:
            plane_pts = est.transform(np.stack([m.a, m.b]))
            assert plane_pts.shape == (2, 3)
            distances.append(np.linalg.norm(plane_pts[0] - plane_pts[1]))
        for i in range(1, len(measurements)):
            lhs = distances[i] / distances[0]
            rhs = measurements[i].ground_truth / measurements[0].ground_truth
            assert lhs == pytest.approx(rhs, rel=1e-6)

    def test_delta_rescales_transform_linearly(self, scene):
        spec, pairs, measurements, truth = scene
        base = VanishingPointCalibrator(image_size=spec.image_size).fit(pairs)
        scaled = VanishingPointCalibrator(image_size=spec.image_size, delta=3.0).fit(pairs)
        pts = np.stack([measurements[0].a, measurements[0].b])
        np.testing.assert_allclose(scaled.transform(pts), 3.0 * base.transform(pts), rtol=1e-12)

    def test_point_above_the_horizon_rejected(self, scene):
        # its ray meets the road plane behind the camera
        spec, pairs, measurements, _ = scene
        est = VanishingPointCalibrator(image_size=spec.image_size).fit(pairs)
        est.transform(measurements[0].a)
        with pytest.raises(PointOnHorizon):
            est.transform([measurements[0].a, [100.0, -1e6]])

    def test_transform_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            VanishingPointCalibrator(image_size=(64, 64)).transform([[1.0, 2.0]])
