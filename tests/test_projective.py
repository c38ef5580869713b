import numpy as np
import pytest

from vpcalib.errors import DegenerateInput, InvalidScale
from vpcalib.projective import (
    cross_residual,
    dehomogenize,
    from_diamond,
    incidence_residual,
    is_ideal,
    line_through,
    projectively_equal,
    row_dots,
    row_norms,
    scale_point,
    sgn,
    to_diamond,
)

from conftest import random_projective_points


class TestDiamondForward:
    def test_unit_point(self):
        np.testing.assert_array_equal(to_diamond([1.0, 1.0, 1.0]), [-1.0, -1.0, 3.0])

    def test_origin_uses_positive_sign_branch(self):
        np.testing.assert_array_equal(to_diamond([0.0, 0.0, 1.0]), [-1.0, 0.0, 1.0])

    def test_point_at_infinity_maps_to_finite_diamond_point(self):
        d = to_diamond([1.0, 0.0, 0.0])
        np.testing.assert_array_equal(d, [0.0, -1.0, 1.0])
        X, Y = dehomogenize(d)
        assert abs(X) + abs(Y) <= 1.0 + 1e-12

    def test_cartesian_of_unit_point(self):
        np.testing.assert_allclose(dehomogenize(to_diamond([1, 1, 1])), [-1 / 3, -1 / 3])

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            to_diamond([0.0, 0.0, 0.0])


class TestDiamondInverse:
    def test_unit_point(self):
        np.testing.assert_array_equal(from_diamond([-1.0, -1.0, 3.0]), [-1.0, -1.0, -1.0])
        assert projectively_equal(from_diamond([-1, -1, 3]), [1, 1, 1])

    def test_bottom_vertex_is_x_infinity(self):
        np.testing.assert_array_equal(from_diamond([0.0, -1.0, 1.0]), [-1.0, 0.0, 0.0])
        assert projectively_equal(from_diamond([0, -1, 1]), [1, 0, 0])


class TestRoundTrip:
    def test_bulk_random_points(self, rng):
        pts = random_projective_points(rng, 100_000)
        back = from_diamond(to_diamond(pts))
        assert cross_residual(back, pts).max() < 1e-9

    def test_axis_points(self):
        axis_cases = [
            [0.0, 2.0, 1.0],
            [0.0, -2.0, 1.0],
            [3.0, 0.0, 1.0],
            [-3.0, 0.0, 1.0],
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
            [-1.0, 0.0, 0.0],
        ]
        for p in axis_cases:
            assert projectively_equal(from_diamond(to_diamond(p)), p), p

    def test_forward_of_inverse_on_interior(self, rng):
        X = rng.uniform(-1, 1, size=(5000,))
        Y = rng.uniform(-1, 1, size=(5000,))
        keep = np.abs(X) + np.abs(Y) < 0.999
        d = np.stack([X[keep], Y[keep], np.ones(int(keep.sum()))], axis=-1)
        assert cross_residual(to_diamond(from_diamond(d)), d).max() < 1e-9


class TestBoundedness:
    def test_bulk_including_infinity(self, rng):
        pts = random_projective_points(rng, 100_000, include_infinite=1000)
        xy = dehomogenize(to_diamond(pts))
        assert np.max(np.abs(xy).sum(axis=1)) <= 1.0 + 1e-12

    def test_axis_points_stay_bounded(self):
        for p in ([5, 0, 1], [-5, 0, 1], [0, 7, 1], [0, -7, 1], [0, 0, 1], [2, 0, 0], [0, 2, 0]):
            xy = dehomogenize(to_diamond(np.asarray(p, dtype=float)))
            assert np.abs(xy).sum() <= 1.0 + 1e-12, p


class TestEquivariance:
    def test_positive_scaling(self, rng):
        pts = random_projective_points(rng, 2000)
        lam = rng.uniform(0.1, 10.0, size=(2000, 1))
        assert cross_residual(to_diamond(pts * lam), to_diamond(pts)).max() < 1e-12

    def test_negative_scaling(self, rng):
        pts = random_projective_points(rng, 2000)
        assert cross_residual(to_diamond(-pts), to_diamond(pts)).max() < 1e-12


class TestLineThrough:
    def test_x_axis(self):
        line = line_through([0, 0, 1], [1, 0, 1])
        assert projectively_equal(line, [0, 1, 0])

    def test_line_at_infinity(self):
        line = line_through([1, 0, 0], [0, 1, 0])
        assert projectively_equal(line, [0, 0, 1])

    def test_slope_of_hand_computed_line(self):
        # cross product by hand: (-50, -200, 5000)
        line = line_through([100, 0, 1], [-100, 50, 1])
        assert projectively_equal(line, [-50, -200, 5000])
        slope = -line[0] / line[1]
        assert slope == pytest.approx(-0.25)

    def test_incidence_property(self, rng):
        p = random_projective_points(rng, 500)
        q = random_projective_points(rng, 500)
        line = line_through(p, q)
        assert incidence_residual(line, p).max() < 1e-9
        assert incidence_residual(line, q).max() < 1e-9

    def test_equal_points_rejected(self):
        with pytest.raises(DegenerateInput):
            line_through([1.0, 2.0, 1.0], [2.0, 4.0, 2.0])


class TestScalePoint:
    def test_shrinks_cartesian(self):
        np.testing.assert_allclose(scale_point([10.0, 20.0, 1.0], 0.1), [1.0, 2.0, 1.0])

    def test_infinity_is_fixed(self):
        assert projectively_equal(scale_point([1.0, 0.0, 0.0], 0.03), [1.0, 0.0, 0.0])

    def test_plain_arithmetic(self):
        np.testing.assert_allclose(scale_point([-300.0, 50.0, 1.0], 0.03), [-9.0, 1.5, 1.0])

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(InvalidScale):
            scale_point([1.0, 1.0, 1.0], bad)


def test_sgn_of_zero_is_one():
    assert sgn(0.0) == 1.0
    np.testing.assert_array_equal(sgn([-2.0, 0.0, 3.0]), [-1.0, 1.0, 1.0])


def test_is_ideal_flags_directions():
    assert is_ideal([1.0, 2.0, 0.0])
    assert not is_ideal([1.0, 2.0, 1.0])
    # relative threshold: far-but-finite points stay finite, w ~ 0 does not
    assert not is_ideal([1e6, 0.0, 1.0], rel_eps=1e-9)
    assert is_ideal([1e9, 0.0, 1e-3], rel_eps=1e-9)


def test_row_dots_give_the_bits_of_np_dot():
    # The estimators take per-pair dot products and norms row by row; the
    # calibration file keeps its bytes only while these equal the per-vector
    # np.dot and np.linalg.norm bit for bit. On a BLAS whose ddot fuses the
    # multiply and add, a plain sum of products differs on about a quarter
    # of these rows.
    rng = np.random.default_rng(5)
    a = rng.normal(size=(4000, 2)) * np.exp(rng.uniform(-8, 8, size=(4000, 1)))
    b = rng.normal(size=(4000, 2)) * np.exp(rng.uniform(-8, 8, size=(4000, 1)))
    for got, want, what in [
        (row_dots(a, b), [np.dot(x, y) for x, y in zip(a, b)], "np.dot"),
        (row_norms(a), [np.linalg.norm(x) for x in a], "np.linalg.norm"),
    ]:
        differ = np.flatnonzero(got != np.array(want))
        assert not len(differ), (
            f"row_dots/row_norms differ from {what} on {len(differ)} of {len(a)} rows "
            f"(first: row {differ[0]}): this numpy/BLAS build rounds them differently, "
            "so calibration files will not be byte-identical to earlier ones"
        )
