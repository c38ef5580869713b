import gc
import hashlib
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from vpcalib import heatmap
from vpcalib.errors import (
    AllScalesDegenerate,
    DegeneratePeak,
    EmptyHeatmap,
    InvalidScale,
    OutOfDiamond,
)
from vpcalib.heatmap import (
    DEFAULT_SCALES,
    BBox,
    Heatmap,
    HeatmapCodec,
    VPDetection,
    _BLOCK,
    _CellTables,
    _SUBPIXEL,
    _cell_tables,
    _decode_stack,
    _near_maximum,
    _run_means,
    accuracy_measure,
    bbox_denormalize,
    bbox_denormalize_direction,
    bbox_normalize,
    box_to_frame,
    decode_heatmap,
    decode_stack,
    diamond_to_pixel,
    encode_vp,
    frame_to_box,
    pixel_to_diamond,
    quantization_radius,
    select_vp,
    vp_of_pixel,
)
from vpcalib.heatmap_io import write_heatmap_file
from vpcalib.pipeline import DetectionRecord, PipelineConfig, detections_to_pairs
from vpcalib.projective import dehomogenize, is_ideal, scale_point, to_diamond

import diamond_reference as ref


@pytest.fixture
def box():
    return BBox(0.0, 0.0, 100.0, 50.0)


class TestBBoxCoordinates:
    def test_center_maps_to_origin(self, box):
        np.testing.assert_allclose(bbox_normalize(box.center, box), [0.0, 0.0])

    def test_corner_maps_to_unit(self, box):
        np.testing.assert_allclose(bbox_normalize([100.0, 50.0], box), [1.0, 1.0])

    def test_affine_arithmetic(self, box):
        np.testing.assert_allclose(bbox_normalize([75.0, 12.5], box), [0.5, -0.5])

    def test_denormalize_inverts(self, box, rng):
        pts = rng.uniform(-3, 3, size=(100, 2))
        np.testing.assert_allclose(bbox_normalize(bbox_denormalize(pts, box), box), pts)

    def test_invalid_box_rejected(self):
        with pytest.raises(ValueError):
            BBox(10.0, 0.0, 5.0, 20.0)

    @staticmethod
    def _rows(rng, n=400):
        """Boxes, box-coordinate or frame rows over many decades, and a direction mask."""
        corner = rng.uniform(-500.0, 2000.0, (n, 2))
        size = np.exp(rng.uniform(np.log(0.5), np.log(800.0), (n, 2)))
        boxes = np.hstack([corner, corner + size])
        rows = rng.normal(size=(n, 2)) * np.exp(rng.uniform(-5.0, 12.0, (n, 1)))
        return boxes, rows, rng.random(n) < 0.4

    def test_box_to_frame_is_the_reference_row_by_row(self, rng):
        boxes, rows, is_direction = self._rows(rng)
        bboxes = [BBox(*b) for b in boxes]
        for given in (boxes, bboxes):
            frame = box_to_frame(rows, is_direction, given)
            for row, direction, box, got in zip(rows, is_direction, bboxes, frame):
                if direction:
                    expected = row * ref.box_half_size(box)
                    expected = expected / np.linalg.norm(expected)
                else:
                    expected = ref.bbox_denormalize(row, box)
                assert np.array_equal(got, expected)

    def test_frame_to_box_is_the_reference_row_by_row(self, rng):
        boxes, rows, is_direction = self._rows(rng)
        bboxes = [BBox(*b) for b in boxes]
        for given in (boxes, bboxes):
            in_box = frame_to_box(rows, is_direction, given)
            for row, direction, box, got in zip(rows, is_direction, bboxes, in_box):
                if direction:
                    expected = row / ref.box_half_size(box)
                    expected = expected / np.linalg.norm(expected)
                else:
                    expected = ref.bbox_normalize(row, box)
                assert np.array_equal(got, expected)
        # and it inverts box_to_frame, up to rounding
        back = frame_to_box(box_to_frame(rows, is_direction, boxes), is_direction, boxes)
        unit = rows[is_direction] / np.linalg.norm(rows[is_direction], axis=1)[:, None]
        np.testing.assert_allclose(back[~is_direction], rows[~is_direction], rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(back[is_direction], unit, rtol=1e-9, atol=1e-12)

    def test_zero_length_and_overflowing_rows_come_out_non_finite_quietly(self):
        boxes = np.array([[900.0, 500.0, 1020.0, 580.0]] * 3 + [[0.0, 0.0, 0.5, 0.5]])
        rows = np.array([[0.0, 0.0], [1e308, 0.0], [1e308, -1e308], [1.7e308, 0.0]])
        is_direction = np.array([True, False, True, False])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            frame = box_to_frame(rows, is_direction, boxes)
            in_box = frame_to_box(rows, is_direction, boxes)
        # a zero-length direction is never finite; the 120 x 80 px box takes
        # huge rows past float64 one way, the 0.5 px box the other way
        assert list(np.isfinite(frame).all(axis=1)) == [False, False, False, True]
        assert list(np.isfinite(in_box).all(axis=1)) == [False, True, True, False]

    def test_iou(self):
        a = BBox(0, 0, 10, 10)
        assert a.iou(BBox(0, 0, 10, 10)) == pytest.approx(1.0)
        assert a.iou(BBox(5, 0, 15, 10)) == pytest.approx(1 / 3)
        assert a.iou(BBox(20, 20, 30, 30)) == 0.0

    def test_iou_of_boxes_whose_areas_underflow_or_overflow_is_zero(self):
        # the overlap is positive along both axes, but no area is usable
        tiny = BBox(0, 0, 1e-200, 1e-200)
        assert tiny.iou(tiny) == 0.0
        assert tiny.iou(BBox(0, 0, 2e-200, 1e-200)) == 0.0
        huge = BBox(-1e308, -1e308, 1e308, 1e308)
        assert huge.iou(huge) == 0.0
        assert huge.iou(BBox(0, 0, 10, 10)) == 0.0


class TestGridMapping:
    def test_center_of_diamond_maps_to_grid_center(self):
        np.testing.assert_allclose(diamond_to_pixel([0.0, 0.0], 64), [31.5, 31.5])

    def test_right_vertex_maps_to_corner(self):
        # rotated convention u = X + Y, v = Y - X: vertices land on grid corners
        np.testing.assert_allclose(diamond_to_pixel([1.0, 0.0], 64), [0.0, 63.0])

    def test_bottom_vertex_maps_to_corner(self):
        np.testing.assert_allclose(diamond_to_pixel([0.0, -1.0], 64), [0.0, 0.0])

    def test_out_of_diamond_rejected(self):
        with pytest.raises(OutOfDiamond):
            diamond_to_pixel([0.8, 0.4], 64)

    def test_round_trip_identity(self, rng):
        X = rng.uniform(-1, 1, size=2000)
        Y = rng.uniform(-1, 1, size=2000)
        keep = np.abs(X) + np.abs(Y) <= 1.0
        xy = np.stack([X[keep], Y[keep]], axis=-1)
        rc = diamond_to_pixel(xy, 64)
        np.testing.assert_allclose(pixel_to_diamond(rc, 64), xy, atol=1e-9)


class TestEncode:
    def test_peak_is_one_at_rounded_pixel(self, rng):
        for _ in range(50):
            vp = rng.uniform(-30, 30, size=2)
            scale = float(rng.choice(DEFAULT_SCALES))
            h = encode_vp(vp, scale)
            assert h.values.max() == 1.0
            d = to_diamond(scale_point([vp[0], vp[1], 1.0], scale))
            rc = diamond_to_pixel(dehomogenize(d), 64)
            expect = tuple(np.floor(rc + 0.5).astype(int))
            peak = np.unravel_index(np.argmax(h.values), h.values.shape)
            assert peak == expect

    def test_gaussian_mass_matches_enumeration(self):
        h = encode_vp([1.0, 1.0], 1.0, sigma=1.0)
        # independent oracle: direct summation of the truncated kernel
        ks = np.arange(-3, 4)
        oracle = np.exp(-ks[:, None] ** 2 / 2 - ks[None, :] ** 2 / 2).sum()
        assert h.values.sum() == pytest.approx(oracle, rel=1e-12)
        assert abs(h.values.sum() - 2 * np.pi) < 0.01

    @pytest.mark.parametrize("sigma, resolution, side", [
        (1.0, 64, 7), (1.0, 2, 3), (0.3, 2, 3), (1e3, 64, 127), (1e60, 64, 127), (1e60, 3, 5),
    ])
    def test_the_peak_reaches_no_farther_than_the_grid(self, sigma, resolution, side):
        # 6 sigma + 1 cells a side would take 288 MB at sigma = 1e3, and outgrow memory at 1e5
        patch = heatmap._gaussian_patch(sigma, resolution)
        assert patch.shape == (side, side) and patch[side // 2, side // 2] == 1.0
        assert not patch.flags.writeable

    def test_infinite_vp_encodable(self):
        h = encode_vp(np.array([1.0, 0.0, 0.0]), 0.03)
        assert h.values.max() == 1.0

    def test_scale_invariance_of_infinity(self):
        grids = [encode_vp(np.array([1.0, 0.0, 0.0]), s).values for s in DEFAULT_SCALES]
        for g in grids[1:]:
            np.testing.assert_array_equal(g, grids[0])

    def test_codec_encodes_each_scale_like_encode_vp(self):
        for sigma in (1.0, 2.0):
            codec = HeatmapCodec(sigma=sigma)
            for vp in _encode_cases():
                expected = [encode_vp(vp, s, sigma=sigma) for s in DEFAULT_SCALES]
                for got, want in zip(codec.encode(vp), expected):
                    assert got.scale == want.scale
                    assert np.array_equal(got.values, want.values)

    def test_codec_grids_keep_their_bytes(self):
        digest = hashlib.sha256()
        for sigma in (1.0, 2.0):
            codec = HeatmapCodec(sigma=sigma)
            for vp in _encode_cases():
                for h in codec.encode(vp):
                    digest.update(h.values.tobytes())
        # the bytes every DVP file written so far holds for these VPs
        assert digest.hexdigest() == (
            "c29fe5ef333ef53523f80e498107780e20a3f3dad73bdb292d917046294a0c6e"
        )


def test_directions_at_infinity_decode_like_the_scalar_reference(rng):
    # broad and narrow peaks of directions, so that the fused direction is
    # taken on some records and must be oriented like the peak cell's
    values, boxes = [], []
    for sigma in (1.0, 2.0):
        codec = HeatmapCodec(sigma=sigma)
        for theta in rng.uniform(0.0, 2.0 * np.pi, 40):
            maps = codec.encode(np.array([np.cos(theta), np.sin(theta), 0.0]))
            values.append(np.stack([h.values for h in maps]))
            boxes.append(BBox(0.0, 0.0, 128.0, 128.0))
    for grids, box, det in zip(values, boxes, decode_stack(np.stack(values), DEFAULT_SCALES,
                                                           boxes)):
        maps = [Heatmap(g, s) for g, s in zip(grids, DEFAULT_SCALES)]
        reference = _reference_select_vp(maps, box)
        assert reference.direction_only and _same_detection(det, reference)


def _encode_cases():
    """Finite VPs over six decades, directions, and VPs on every grid border."""
    rng = np.random.default_rng(4321)
    radius = np.exp(rng.uniform(np.log(0.01), np.log(1e4), 200))
    angle = rng.uniform(0.0, 2.0 * np.pi, 260)
    cases = [np.array([r * np.cos(t), r * np.sin(t)]) for r, t in zip(radius, angle)]
    cases += [np.array([np.cos(t), np.sin(t), 0.0]) for t in angle[200:]]
    for s in DEFAULT_SCALES:
        for k in (0, 17, 40, 63):
            for row, col in ((0, k), (63, k), (k, 0), (k, 63)):
                cases.append(vp_of_pixel(row + rng.uniform(-0.49, 0.49),
                                         col + rng.uniform(-0.49, 0.49), s))
    return cases


class TestDecode:
    def test_single_pixel(self):
        values = np.zeros((64, 64))
        values[10, 20] = 0.7
        peak, cands = decode_heatmap(Heatmap(values, 1.0))
        assert peak == (10, 20)
        assert cands.tolist() == [[10, 20]]

    def test_threshold_includes_near_maximum(self):
        values = np.zeros((64, 64))
        values[5, 5] = 1.0
        values[40, 7] = 0.85
        _, cands = decode_heatmap(Heatmap(values, 1.0), peak_ratio=0.8)
        assert len(cands) == 2

    def test_uniform_heatmap_keeps_everything(self):
        _, cands = decode_heatmap(Heatmap(np.ones((16, 16)), 1.0))
        assert len(cands) == 256

    def test_empty_heatmap_raises(self):
        with pytest.raises(EmptyHeatmap):
            decode_heatmap(Heatmap(np.zeros((64, 64)), 1.0))

    def test_negative_values_clamped(self):
        values = np.full((8, 8), -3.0)
        with pytest.raises(EmptyHeatmap):
            decode_heatmap(Heatmap(values, 1.0))

    def test_argmax_tie_break_is_row_major(self):
        values = np.zeros((8, 8))
        values[3, 6] = 1.0
        values[5, 1] = 1.0
        peak, _ = decode_heatmap(Heatmap(values, 1.0))
        assert peak == (3, 6)


class TestAccuracyMeasure:
    def test_singleton_is_zero(self):
        h = encode_vp([5.0, 2.0], 0.1)
        peak, cands = decode_heatmap(h)
        assert accuracy_measure(h, peak, cands) == 0.0

    def test_two_candidate_hand_computation(self):
        # pixels (20, 40) and (20, 41) at scale 1, R = 64, decode by hand to
        # v_A = (-3/20, -2) and v_B = (-2/21, -40/21); the mean relative
        # spread over {A, B} with peak A is ||vB - vA|| / ||vA|| / 2.
        values = np.zeros((64, 64))
        values[20, 40] = 1.0
        values[20, 41] = 0.9
        h = Heatmap(values, 1.0)
        peak, cands = decode_heatmap(h)
        assert peak == (20, 40)
        v_a = np.array([-3.0 / 20.0, -2.0])
        v_b = np.array([-2.0 / 21.0, -40.0 / 21.0])
        oracle = np.linalg.norm(v_b - v_a) / np.linalg.norm(v_a) / 2.0
        assert accuracy_measure(h, peak, cands) == pytest.approx(oracle, rel=1e-12)

    def test_degenerate_peak_rejected(self):
        # the grid cell of the diamond vertex decodes to the box centre
        rc = diamond_to_pixel([-1.0, 0.0], 64)
        values = np.zeros((64, 64))
        values[int(rc[0]), int(rc[1])] = 1.0
        h = Heatmap(values, 1.0)
        peak, cands = decode_heatmap(h)
        with pytest.raises(DegeneratePeak):
            accuracy_measure(h, peak, cands)

    def test_a_finite_peak_with_every_candidate_at_infinity_has_an_infinite_spread(self):
        # diagonal cells decode to points at infinity, which a finite peak's
        # spread skips: none is left, and the grid ranks last, as in decode_stack
        h = encode_vp([5.0, 3.0], 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert accuracy_measure(h, (18, 10), np.array([[10, 10], [0, 0]])) == np.inf

    def test_run_means_are_np_mean_bit_for_bit(self, rng):
        # runs of one length are averaged together; numpy sums a run in an
        # order that depends on its length, so each must equal np.mean alone
        lengths = np.repeat(np.arange(1, 300), 20)
        rng.shuffle(lengths)
        starts = np.concatenate([[0], np.cumsum(lengths)[:-1]])
        values = rng.uniform(0, 3, lengths.sum()) * 10.0 ** rng.integers(-3, 4, lengths.sum())
        expected = [np.mean(values[s : s + n]) for s, n in zip(starts, lengths)]
        assert _run_means(values, starts).tobytes() == np.array(expected).tobytes()

    def test_far_vp_spread_grows_with_scale(self):
        # blurrier targets make the near-maximum set non-trivial
        vp = np.array([50.0, 5.0])
        spreads = {}
        for scale in DEFAULT_SCALES:
            h = encode_vp(vp, scale, sigma=2.0)
            peak, cands = decode_heatmap(h)
            spreads[scale] = accuracy_measure(h, peak, cands)
        assert spreads[1.0] > spreads[0.03]
        best = min(DEFAULT_SCALES, key=lambda s: spreads[s])
        # non-increasing from 1.0 down to the best-conditioned scale
        chain = [s for s in DEFAULT_SCALES if s >= best]
        for small, large in zip(chain, chain[1:]):
            assert spreads[large] >= spreads[small] - 1e-12


class TestSelectVP:
    def test_round_trip_within_one_pixel(self, box, rng):
        codec = HeatmapCodec()
        for _ in range(40):
            vp = rng.uniform(-40, 40, size=2)
            if np.linalg.norm(vp) < 0.5:
                continue
            det = codec.decode(codec.encode(vp), box)
            assert not det.direction_only
            # the chosen scale's rounded pixel must contain the true position
            vp_again = ref.bbox_normalize(det.point, box)
            d = to_diamond(scale_point([vp[0], vp[1], 1.0], det.chosen_scale))
            rc_true = diamond_to_pixel(dehomogenize(d), 64)
            d2 = to_diamond(scale_point([vp_again[0], vp_again[1], 1.0], det.chosen_scale))
            rc_dec = diamond_to_pixel(dehomogenize(d2), 64)
            assert np.max(np.abs(np.floor(rc_true + 0.5) - np.floor(rc_dec + 0.5))) == 0

    def test_spread_of_selected_scale_is_minimal(self, box, rng):
        codec = HeatmapCodec()
        for _ in range(20):
            vp = rng.uniform(1.0, 30.0, size=2)
            maps = codec.encode(vp)
            det = codec.decode(maps, box)
            for h in maps:
                peak, cands = ref.decode_heatmap(h)
                vph = ref.vp_of_pixel(float(peak[0]), float(peak[1]), h.scale, 64)
                if is_ideal(vph) or np.linalg.norm(dehomogenize(vph)) < 1e-9:
                    continue
                assert det.uncertainty <= ref.accuracy_measure(h, peak, cands) + 1e-12

    def test_only_valid_scale_wins(self, box):
        maps = [Heatmap(np.zeros((64, 64)), s) for s in (0.03, 0.3, 1.0)]
        maps.insert(1, encode_vp([4.0, 9.0], 0.1))
        det = select_vp(maps, box)
        assert det.chosen_scale == 0.1

    def test_vp_at_infinity_is_direction_only(self, box):
        codec = HeatmapCodec()
        det = codec.decode(codec.encode(np.array([1.0, 0.0, 0.0])), box)
        assert det.direction_only
        assert np.isfinite(det.uncertainty)
        assert np.linalg.norm(det.point) == pytest.approx(1.0)
        # the x-direction in box coordinates stays the x-direction in pixels
        assert abs(det.point[0]) == pytest.approx(1.0)
        assert det.point[1] == pytest.approx(0.0, abs=1e-12)

    def test_broad_peaks_with_an_empty_scale_stay_in_the_chosen_cell(self, box):
        vp = np.array([40.0, 10.0])
        for empty in range(len(DEFAULT_SCALES)):
            maps = [encode_vp(vp, s, sigma=2.0) for s in DEFAULT_SCALES]
            maps[empty] = Heatmap(np.zeros((64, 64)), DEFAULT_SCALES[empty])
            det = select_vp(maps, box)
            chosen = maps[DEFAULT_SCALES.index(det.chosen_scale)]
            peak, _ = ref.decode_heatmap(chosen)
            centre = ref.bbox_denormalize(
                dehomogenize(ref.vp_of_pixel(float(peak[0]), float(peak[1]), chosen.scale, 64)), box
            )
            # the other scales moved the point off the cell centre, not out of the cell
            assert np.linalg.norm(det.point - centre) > 1e-6
            x, y = ref.bbox_normalize(det.point, box)
            rc = diamond_to_pixel(dehomogenize(to_diamond(scale_point([x, y, 1.0], chosen.scale))))
            assert tuple(np.floor(rc + 0.5).astype(int)) == peak

    def test_disagreeing_scales_fall_back_to_the_cell_centre(self, box):
        # each scale peaks at a different vanishing point: no cells overlap
        vps = ([5.0, 5.0], [-5.0, 5.0], [-5.0, -5.0], [5.0, -5.0])
        maps = [encode_vp(vp, s) for vp, s in zip(vps, DEFAULT_SCALES)]
        det = select_vp(maps, box)
        chosen = maps[DEFAULT_SCALES.index(det.chosen_scale)]
        peak, _ = ref.decode_heatmap(chosen)
        centre = ref.vp_of_pixel(float(peak[0]), float(peak[1]), chosen.scale, 64)
        assert not det.direction_only
        assert np.array_equal(det.point, ref.bbox_denormalize(dehomogenize(centre), box))

    @pytest.mark.parametrize("vp", [[3.0, 1.0, 0.0], [-14500.0, 142400.0, 1.0]])
    def test_direction_at_infinity_stays_a_unit_direction(self, box, vp):
        codec = HeatmapCodec()
        maps = codec.encode(np.array(vp))
        det = codec.decode(maps, box)
        assert det.direction_only
        assert np.linalg.norm(det.point) == pytest.approx(1.0, abs=1e-12)
        chosen = maps[DEFAULT_SCALES.index(det.chosen_scale)]
        peak, _ = ref.decode_heatmap(chosen)
        centre = ref.vp_of_pixel(float(peak[0]), float(peak[1]), chosen.scale, 64)
        centre_dir = bbox_denormalize_direction(centre[:2], box)
        # oriented like the cell centre's direction, and close to it
        assert det.point @ centre_dir / np.linalg.norm(centre_dir) > 0.999

    def test_all_degenerate_raises(self, box):
        maps = [Heatmap(np.zeros((64, 64)), s) for s in DEFAULT_SCALES]
        with pytest.raises(AllScalesDegenerate):
            select_vp(maps, box)


class TestCellTables:
    def test_every_entry_equals_the_scalar_functions(self):
        tables = _CellTables(DEFAULT_SCALES, 64)
        s, r, c = np.indices(tables.radius.shape).reshape(3, -1)
        tables.radii(s, r, c)
        cells = list(zip(s.tolist(), r.tolist(), c.tolist()))
        vp = np.array([ref.vp_of_pixel(float(i), float(j), DEFAULT_SCALES[k], 64)
                       for k, i, j in cells])
        ideal = is_ideal(vp)
        assert np.array_equal(tables.vp.reshape(-1, 3), vp)
        assert np.array_equal(tables.ideal.ravel(), ideal)
        assert np.array_equal(tables.direction.reshape(-1, 2), ref.directions(vp))
        norm = [np.nan if t else np.linalg.norm(dehomogenize(v)) for v, t in zip(vp, ideal)]
        assert np.array_equal(tables.norm.ravel(), norm, equal_nan=True)
        radius = [ref.quantization_radius(i, j, DEFAULT_SCALES[k], 64) for k, i, j in cells]
        assert np.isinf(radius).any()
        assert ref.same_bits(tables.radius.ravel(), radius)

    @pytest.mark.parametrize("edge_samples", [9, 33])
    def test_quantization_radius_equals_the_one_cell_reference(self, edge_samples):
        # the public function is the batched kernel of the table at one cell
        rng = np.random.default_rng(33)
        cells = list(zip(rng.integers(0, 4, 1500).tolist(), *rng.integers(0, 64, (2, 1500)).tolist()))
        cells += [(k, 0, 0) for k in range(4)] + [(k, 63, 31) for k in range(4)]
        got = [quantization_radius(i, j, DEFAULT_SCALES[k], 64, edge_samples) for k, i, j in cells]
        want = [ref.quantization_radius(i, j, DEFAULT_SCALES[k], 64, edge_samples)
                for k, i, j in cells]
        assert np.isinf(want).any() and np.isfinite(want).any()
        assert ref.same_bits(got, want)

    @pytest.mark.parametrize("scale", [0.0, -1.0, np.inf, np.nan, 1e-320, 1e-160, 9.9e-61, 1.1e60])
    def test_a_bad_scale_raises_the_one_scale_error(self, scale):
        # the tables, the one-cell calls, the encoder and scale_point share
        # projective.check_scale: a scale outside LENGTH_RANGE, such as one
        # whose decoded points overflow when squared, is rejected
        message = f"scale must be a number in [1e-60, 1e+60], got {scale!r}"
        for call in (lambda: _CellTables((scale, 1.0), 8),
                     lambda: vp_of_pixel(3.0, 4.0, scale, 8),
                     lambda: quantization_radius(3, 4, scale, 8),
                     lambda: encode_vp([3.0, 4.0], scale, 8),
                     lambda: scale_point([3.0, 4.0, 1.0], scale)):
            with pytest.raises(InvalidScale) as raised:
                call()
            assert str(raised.value) == message

    @pytest.mark.parametrize("scales", [(1e-160, 0.1), (9.9e-61, 0.1), (0.1, 1.1e60)])
    def test_scales_outside_the_length_range_end_in_an_error_without_a_warning(self, scales):
        # at 1e-160 the decode squared points near 1e162 and overflowed
        values = np.zeros((1, 2, 16, 16))
        values[0, :, 3, 5] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"numbers in \[1e-60, 1e\+60\]"):
                HeatmapCodec(scales=scales)
            with pytest.raises(InvalidScale, match=r"in \[1e-60, 1e\+60\]"):
                decode_stack(values, scales, [BBox(0.0, 0.0, 10.0, 10.0)])

    def test_scales_at_the_ends_of_the_length_range_decode_without_a_warning(self):
        scales = (1e-60, 1.0, 1e60)
        codec = HeatmapCodec(resolution=16, scales=scales)
        assert codec.scales == scales
        box = BBox(0.0, 0.0, 10.0, 10.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for vp in ([3.0, 4.0], [1e70, 2e70], [1.0, 0.0, 0.0], [5e59, 1e58]):
                maps = codec.encode(vp)
                det = codec.decode(maps, box)
                assert det.chosen_scale in scales and np.isfinite(det.point).all()
            for s in (scales[0], scales[-1]):
                assert np.array_equal(scale_point([3.0, 4.0, 1.0], s), [3.0 * s, 4.0 * s, 1.0])

    def test_the_point_tables_are_complete_after_construction(self):
        tables = _CellTables(DEFAULT_SCALES, 16)
        vp = ref.vp_of_pixel(*np.indices((16, 16)), DEFAULT_SCALES[2], 16)
        assert np.array_equal(tables.vp[2], vp)
        assert np.array_equal(tables.ideal[2], is_ideal(vp))
        assert np.isfinite(tables.direction).all()
        assert np.array_equal(np.isnan(tables.norm), tables.ideal)
        assert not tables._has_radius.any()

    def test_a_one_record_decode_fills_only_the_cells_it_touches(self, box):
        _cell_tables.cache_clear()
        select_vp(HeatmapCodec().encode([4.0, 9.0]), box)
        tables = _cell_tables(DEFAULT_SCALES, 64)
        # one peak per scale, each its own only near-maximum cell
        assert tables._has_radius.sum() == 4


def _mixed_chunk(rng):
    """One channel of records covering the decoder's cases, exact in float32."""
    maps, boxes = [], []

    def add(grids, box=(100.0, 200.0, 260.0, 300.0)):
        maps.append(np.stack(grids).astype(np.float32).astype(float))
        boxes.append(BBox(*box))

    for vp in ([4.0, 9.0], [-40.0, 3.0], [0.7, -0.2], [250.0, 180.0]):
        add([encode_vp(vp, s).values for s in DEFAULT_SCALES])
    for vp in ([40.0, 10.0], [-3.0, -6.0], [900.0, -50.0]):
        grids = [encode_vp(vp, s, sigma=2.0).values + rng.uniform(0.0, 0.05, (64, 64))
                 for s in DEFAULT_SCALES]
        for g in grids:
            g[tuple(rng.integers(0, 64, 2))] = rng.uniform(0.85, 1.0)  # ghost peak
        add(grids, box=(10.0, 20.0, 50.0, 44.0))
    one_empty = [encode_vp([12.0, -5.0], s, sigma=2.0).values for s in DEFAULT_SCALES]
    one_empty[2] = np.zeros((64, 64))
    add(one_empty)
    add([np.zeros((64, 64)) for _ in DEFAULT_SCALES])
    add([encode_vp([3.0, 1.0, 0.0], s).values for s in DEFAULT_SCALES])
    add([-encode_vp([5.0, 5.0], s).values + 0.5 * encode_vp([2.0, 8.0], s).values
         for s in DEFAULT_SCALES])
    return np.stack(maps), boxes


def _reference_select_vp(heatmaps, box, peak_ratio=0.8):
    """The scalar decode that decode_stack replaced, one heatmap at a time,
    every step taken from the references in ``diamond_reference``."""
    candidates, near_max_sets = [], []
    for index, h in enumerate(heatmaps):
        try:
            peak, near_max = ref.decode_heatmap(h, peak_ratio)
        except EmptyHeatmap:
            continue
        mask = np.zeros(h.values.shape, dtype=bool)
        mask[near_max[:, 0], near_max[:, 1]] = True
        near_max_sets.append((index, h, mask))
        vph = ref.vp_of_pixel(float(peak[0]), float(peak[1]), h.scale, h.resolution)
        ideal = bool(ref.is_ideal(vph))
        if not ideal and np.linalg.norm(ref.dehomogenize(vph)) < 1e-9:
            continue
        spread = ref.accuracy_measure(h, peak, near_max)
        radius = ref.quantization_radius(peak[0], peak[1], h.scale, h.resolution)
        candidates.append((spread, radius, index, h, peak, vph, ideal))
    if not candidates:
        return None
    spread, _, index, h, peak, center, ideal = min(candidates, key=lambda c: c[:3])
    vph = center
    others = [(o, mask) for i, o, mask in near_max_sets if i != index]
    if others:
        rc = np.asarray(peak) + _SUBPIXEL
        samples = ref.vp_of_pixel(rc[:, 0], rc[:, 1], h.scale, h.resolution)
        cells = ref.nearest_cells(samples, [o.scale for o, _ in others], h.resolution)
        keep = np.ones(len(rc), dtype=bool)
        for (_, mask), cell in zip(others, cells):
            keep &= mask[cell[:, 0], cell[:, 1]]
        if keep.any():
            fused = ref.vp_of_pixel(*rc[keep].mean(axis=0), h.scale, h.resolution)
            if ideal:
                xy = fused[:2] if fused[:2] @ center[:2] >= 0.0 else -fused[:2]
                fused = np.append(xy, 0.0)
            dirs = ref.directions(np.vstack([fused, center, samples[keep]]))

            def worst(direction):
                cosines = dirs[2:] @ direction
                return np.max(np.arccos(np.clip(np.abs(cosines) if ideal else cosines, -1, 1)))

            vph = center if worst(dirs[0]) > worst(dirs[1]) else fused
    if ideal:
        direction = vph[:2] * ref.box_half_size(box)
        return VPDetection(direction / np.linalg.norm(direction), spread, h.scale, True)
    return VPDetection(ref.bbox_denormalize(ref.dehomogenize(vph), box), spread, h.scale, False)


def _same_detection(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return (np.array_equal(a.point, b.point) and a.uncertainty == b.uncertainty
            and a.chosen_scale == b.chosen_scale and a.direction_only == b.direction_only)


class TestDecodeStack:
    def test_a_mixed_chunk_decodes_like_each_record_alone(self, rng):
        values, boxes = _mixed_chunk(rng)
        together = decode_stack(values, DEFAULT_SCALES, boxes)
        alone = [decode_stack(values[k : k + 1], DEFAULT_SCALES, boxes[k : k + 1])[0]
                 for k in range(len(boxes))]
        assert all(_same_detection(a, b) for a, b in zip(together, alone))
        # the chunk covers the cases it claims to
        assert sum(d is None for d in together) == 1
        assert any(d is not None and d.direction_only for d in together)
        assert any(d is not None and d.uncertainty > 0.0 for d in together)
        # float32 stacks (as DVP files store them) decode the same
        single = decode_stack(values.astype(np.float32), DEFAULT_SCALES, boxes)
        assert all(_same_detection(a, b) for a, b in zip(together, single))

    def test_decodes_equal_the_scalar_reference(self, rng):
        values, boxes = _mixed_chunk(rng)
        # plus exact encodings from the acceptance closure distribution
        codec = HeatmapCodec()
        for r, th in zip(np.exp(rng.uniform(np.log(0.5), np.log(1e3), 150)),
                         rng.uniform(0.0, 2.0 * np.pi, 150)):
            maps = codec.encode([r * np.cos(th), r * np.sin(th)])
            values = np.concatenate([values, np.stack([h.values for h in maps])[None]])
            boxes.append(BBox(0.0, 0.0, 128.0, 128.0))
        stacked = decode_stack(values, DEFAULT_SCALES, boxes)
        for grids, box, det in zip(values, boxes, stacked):
            maps = [Heatmap(g, s) for g, s in zip(grids, DEFAULT_SCALES)]
            assert _same_detection(det, _reference_select_vp(maps, box))
            if det is None:
                with pytest.raises(AllScalesDegenerate):
                    select_vp(maps, box)
            else:
                assert _same_detection(select_vp(maps, box), det)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_grid_maxima_read_at_the_argmax_have_the_bits_of_a_max_pass(self, rng, dtype):
        values = rng.standard_normal((6, 4, 16, 16)).astype(dtype)
        values[1] = -np.abs(values[1])  # every value below zero
        values[2] = -0.0
        values[3] = 0.0
        values[3, :, ::3] = -0.0  # signed zeros, a -0.0 first
        values[4] = np.minimum(values[4], -0.0)
        values[4, :, 9, 9] = 0.0
        values[5, :, 0, 0] = values[5].max()  # ties: the first cell in row-major order
        flat = values.reshape(6, 4, -1)
        expected = (np.maximum(flat.max(axis=2), 0.0).astype(float),
                    *np.divmod(flat.argmax(axis=2), 16))
        got = _near_maximum(values, 1.0)[:3]
        assert all(g.dtype == e.dtype and g.tobytes() == e.tobytes()
                   for g, e in zip(got, expected))
        assert np.signbit(got[0][1:5]).sum() == 0

    def test_an_empty_stack_decodes_to_nothing(self):
        assert decode_stack(np.zeros((0, 4, 16, 16), np.float32), DEFAULT_SCALES, []) == []

    def test_mixed_resolutions_rejected(self, box):
        maps = [encode_vp([4.0, 9.0], 0.1), encode_vp([4.0, 9.0], 1.0, resolution=32)]
        with pytest.raises(ValueError):
            select_vp(maps, box)


class TestSampleCells:
    def test_every_entry_equals_nearest_cells_of_the_samples(self):
        table = _CellTables(DEFAULT_SCALES, 16)
        s, r, c = np.indices((len(DEFAULT_SCALES), 16, 16)).reshape(3, -1)
        cells, directions = table.lookup(s, r, c)
        assert cells.dtype == np.uint8
        assert cells.shape == (len(s), len(DEFAULT_SCALES), len(_SUBPIXEL))
        assert directions.shape == (len(s), len(_SUBPIXEL), 2)
        for k, i, j, got, got_dirs in zip(s, r, c, cells, directions):
            rc = np.array([i, j]) + _SUBPIXEL
            samples = ref.vp_of_pixel(rc[:, 0], rc[:, 1], DEFAULT_SCALES[k], 16)
            expected = ref.nearest_cells(samples, DEFAULT_SCALES, 16)
            assert np.array_equal(got, expected[..., 0] * 16 + expected[..., 1])
            # bit for bit the direction of each sample's own point
            assert got_dirs.tobytes() == ref.directions(samples).tobytes()

    def test_lookups_in_any_order_return_the_stored_entries(self, rng):
        table = _CellTables(DEFAULT_SCALES, 16)
        s, r, c = np.indices((len(DEFAULT_SCALES), 16, 16)).reshape(3, -1)
        whole = table.lookup(s, r, c)
        # repeated and shuffled cells, partly from a table that fills as it goes
        order = rng.integers(0, len(s), 300)
        fresh = _CellTables(DEFAULT_SCALES, 16)
        for part in np.array_split(order, 7):
            for got, stored in zip(fresh.lookup(s[part], r[part], c[part]),
                                   (whole[0][part], whole[1][part])):
                assert got.dtype == stored.dtype and np.array_equal(got, stored)
        # one entry per distinct cell, however often it was looked up
        again = table.lookup(s, r, c)
        assert all(np.array_equal(got, stored) for got, stored in zip(again, whole))
        assert (table._size, fresh._size) == (len(s), len(np.unique(order)))

    def test_indices_take_the_narrowest_dtype_that_holds_the_grid(self):
        for resolution, dtype in ((16, np.uint8), (17, np.uint16), (64, np.uint16),
                                  (256, np.uint16), (257, np.uint32)):
            one = np.array([0])
            cells, directions = _CellTables((1.0,), resolution).lookup(one, one, one)
            assert cells.dtype == dtype and directions.dtype == np.float64

    def test_a_warm_table_decodes_like_a_cold_one(self, rng):
        warm_up, _ = _mixed_chunk(rng)
        values, boxes = _mixed_chunk(rng)
        # exact encodings whose chosen cells the warm-up chunk partly shares
        codec = HeatmapCodec()
        for r, th in zip(np.exp(rng.uniform(np.log(0.5), np.log(1e3), 40)),
                         rng.uniform(0.0, 2.0 * np.pi, 40)):
            maps = codec.encode([r * np.cos(th), r * np.sin(th)])
            values = np.concatenate([values, np.stack([h.values for h in maps])[None]])
            boxes.append(BBox(0.0, 0.0, 128.0, 128.0))
        warm_up = np.concatenate([warm_up, values[::3]])
        _cell_tables.cache_clear()
        _decode_stack(warm_up, DEFAULT_SCALES, 0.8)
        warm = _decode_stack(values, DEFAULT_SCALES, 0.8)
        _cell_tables.cache_clear()
        cold = _decode_stack(values, DEFAULT_SCALES, 0.8)
        _cell_tables.cache_clear()
        backwards = _decode_stack(values[::-1], DEFAULT_SCALES, 0.8)
        # the columns: record index, box-coordinate point, direction mask,
        # spread, chosen scale; the backward run has its rows in reverse
        assert np.array_equal(warm[0], cold[0])
        assert np.array_equal(backwards[0], len(values) - 1 - warm[0][::-1])
        for w, c, b in zip(warm[1:], cold[1:], backwards[1:]):
            assert w.dtype == c.dtype == b.dtype
            assert np.array_equal(w, c) and np.array_equal(w, b[::-1])
        # and the cold table's decode is the reference's, bit for bit
        for grids, box, det in zip(values, boxes, decode_stack(values, DEFAULT_SCALES, boxes)):
            reference = _reference_select_vp([Heatmap(g, s) for g, s in zip(grids, DEFAULT_SCALES)],
                                             box)
            assert _same_detection(det, reference)

    def test_a_long_lived_table_decodes_like_a_fresh_one(self, rng, monkeypatch):
        codec = HeatmapCodec()
        box = BBox(100.0, 200.0, 260.0, 300.0)
        kept = _CellTables(DEFAULT_SCALES, 64)

        def decode_pair(maps, tables):
            monkeypatch.setattr(heatmap, "_cell_tables", lambda scales, resolution: tables)
            return codec.decode_pair(maps, box)

        def bits(detection):
            return (detection.point.tobytes(), np.float64(detection.uncertainty).tobytes(),
                    detection.chosen_scale, detection.direction_only)

        # pairs one at a time, each met by the kept table and by a fresh one
        radius = np.exp(rng.uniform(np.log(0.5), np.log(1e3), (320, 2)))
        angle = rng.uniform(0.0, 2.0 * np.pi, (320, 2))
        pairs = []
        for first, second in np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=-1):
            maps = codec.encode_pair(first, second)
            pairs.append(maps)
            for warm, cold in zip(decode_pair(maps, kept),
                                  decode_pair(maps, _CellTables(DEFAULT_SCALES, 64))):
                assert bits(warm) == bits(cold)
        assert kept._size > 4 * _BLOCK  # distinct cells, past four blocks
        # and the pairs together, whose lookups gather from every block
        values = np.stack([[h.values for h in channel] for maps in pairs for channel in maps])
        monkeypatch.setattr(heatmap, "_cell_tables", lambda scales, resolution: kept)
        warm = _decode_stack(values, DEFAULT_SCALES, codec.peak_ratio)
        monkeypatch.setattr(heatmap, "_cell_tables", _CellTables)
        cold = _decode_stack(values, DEFAULT_SCALES, codec.peak_ratio)
        for w, c in zip(warm, cold):
            assert w.dtype == c.dtype and w.tobytes() == c.tobytes()

    def test_a_second_run_over_decoded_cells_leaves_little_behind(self, tmp_path, rng):
        codec = HeatmapCodec()
        box = BBox(100.0, 200.0, 260.0, 300.0)
        records = []
        for k in range(150):
            first, second = rng.uniform(-50.0, 50.0, (2, 2))
            write_heatmap_file(tmp_path / f"v{k}.dvp", codec.encode_pair(first, second))
            records.append(DetectionRecord(frame_index=k, box=box, confidence=1.0,
                                           heatmap_ref=f"v{k}.dvp"))
        maps = [codec.encode(vp) for vp in rng.uniform(-50.0, 50.0, (50, 2))]
        config = PipelineConfig(min_pairs=1)
        _cell_tables.cache_clear()
        # the first pass fills the grid's tables with every cell met below
        detections_to_pairs(records, config, tmp_path)
        for m in maps:
            select_vp(m, box)
        tables = _cell_tables(DEFAULT_SCALES, 64)
        size = tables._size
        assert size > _BLOCK
        gc.collect()
        tracemalloc.start()
        try:
            pairs = detections_to_pairs(records, config, tmp_path)
            for m in maps:
                select_vp(m, box)
                HeatmapCodec().decode(m, box)
            del pairs
            gc.collect()
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a table that grew would take 5.4 KB for each cell it met again
        assert tables._size == size
        assert kept < 64 * 1024

    def test_two_threads_on_a_cold_grid_decode_as_one_thread_does(self, rng):
        stacks = []
        for _ in range(2):
            chunk, _ = _mixed_chunk(rng)
            radius = np.exp(rng.uniform(np.log(0.5), np.log(1e3), 150))
            angle = rng.uniform(0.0, 2.0 * np.pi, 150)
            encoded = [[h.values for h in HeatmapCodec().encode([r * np.cos(a), r * np.sin(a)])]
                       for r, a in zip(radius, angle)]
            stacks.append(np.concatenate([chunk, np.array(encoded)]))

        def decode(stack):
            # record by record, so the table fills a few cells at a time
            return [[c.tobytes() for c in _decode_stack(stack[k : k + 1], DEFAULT_SCALES, 0.8)]
                    for k in range(len(stack))]

        serial = []
        for stack in stacks:
            _cell_tables.cache_clear()
            serial.append(decode(stack))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
        try:
            for _ in range(5):
                _cell_tables.cache_clear()
                _cell_tables(DEFAULT_SCALES, 64)  # one grid, which both threads fill
                results = [None] * len(stacks)

                def run(k):
                    results[k] = decode(stacks[k])

                threads = [threading.Thread(target=run, args=(k,)) for k in range(len(stacks))]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
                assert results == serial
        finally:
            sys.setswitchinterval(interval)

    def test_a_grid_with_more_cells_than_uint16_decodes_like_the_reference(self):
        codec = HeatmapCodec(resolution=257)
        box = BBox(0.0, 0.0, 128.0, 128.0)
        rng = np.random.default_rng(5)
        # peaks on the last row, whose flat indices exceed 65535
        for scale in DEFAULT_SCALES:
            for col in rng.uniform(0.0, 256.0, 3):
                maps = codec.encode(vp_of_pixel(256.0 + rng.uniform(-0.45, 0.3), col, scale, 257))
                assert _same_detection(select_vp(maps, box), _reference_select_vp(maps, box))


class TestQuantizationRadius:
    def test_positive_and_finite_midfield(self):
        h = encode_vp([3.0, 2.0], 1.0)
        peak, _ = decode_heatmap(h)
        radius = quantization_radius(peak[0], peak[1], 1.0, 64)
        assert 0.0 < radius < np.pi / 8

    def test_far_vp_prefers_small_scale(self):
        vp = np.array([200.0, 30.0])
        radii = {}
        for scale in DEFAULT_SCALES:
            h = encode_vp(vp, scale)
            peak, _ = decode_heatmap(h)
            radii[scale] = quantization_radius(peak[0], peak[1], scale, 64)
        assert radii[0.03] < radii[1.0]


class TestCodecValidation:
    # sigma is a length: below about 1e-154 the peak's arithmetic overflows,
    # and farther down its centre is NaN
    @pytest.mark.parametrize("sigma", [0.0, -1.0, np.inf, np.nan, 1e-61, 1e-200, 1e61, 1e300,
                                       True, "1.0"])
    def test_sigma_must_be_positive_and_finite(self, sigma):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="sigma"):
                HeatmapCodec(sigma=sigma)
            with pytest.raises(ValueError, match="sigma"):
                encode_vp([4.0, 9.0], 1.0, sigma=sigma)

    @pytest.mark.parametrize("resolution", [1, 0, -3, 2.5, True, np.int64(1)])
    def test_every_grid_call_takes_a_resolution_of_at_least_two(self, box, resolution):
        message = "resolution must be an integer >= 2"
        calls = [
            lambda: vp_of_pixel(0, 0, 1.0, resolution),
            lambda: quantization_radius(0, 0, 1.0, resolution),
            lambda: encode_vp([4.0, 9.0], 1.0, resolution),
            lambda: diamond_to_pixel([0.0, 0.0], resolution),
            lambda: pixel_to_diamond([0.0, 0.0], resolution),
            lambda: HeatmapCodec(resolution=resolution),
        ]
        if type(resolution) is not float:
            n = max(int(resolution), 0)
            small = Heatmap(np.zeros((2, 2)), 1.0)
            small.values = np.zeros((n, n))  # replaced after it was checked
            calls += [
                lambda: Heatmap(np.zeros((n, n)), 1.0),
                lambda: select_vp([small], box),
                lambda: decode_stack(np.zeros((1, 1, n, n)), [1.0], [box]),
            ]
        for call in calls:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=message):
                    call()

    def test_a_two_by_two_grid_is_the_smallest(self, box):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h = encode_vp([4.0, 9.0], 1.0, 2)
            assert h.resolution == 2 and h.values.max() == 1.0
            assert np.isfinite(vp_of_pixel(0, 1, 1.0, 2)).all()
            assert quantization_radius(0, 1, 1.0, 2) > 0.0  # inf at a degenerate cell
            assert select_vp([h], box).chosen_scale == 1.0

    @pytest.mark.parametrize("peak_ratio", [0.0, -0.5, 1.5, 2.0, np.nan])
    def test_peak_ratio_must_lie_in_the_unit_interval(self, peak_ratio):
        with pytest.raises(ValueError, match="peak_ratio"):
            HeatmapCodec(peak_ratio=peak_ratio)

    def test_peak_ratio_one_is_allowed(self, box):
        codec = HeatmapCodec(peak_ratio=1.0)
        assert codec.decode(codec.encode([4.0, 9.0]), box).chosen_scale in DEFAULT_SCALES

    def test_scale_set_must_increase(self):
        with pytest.raises(ValueError):
            HeatmapCodec(scales=(0.1, 0.1, 1.0))

    def test_scales_must_be_positive(self):
        with pytest.raises(ValueError):
            HeatmapCodec(scales=(0.0, 1.0))

    def test_heatmap_must_be_square(self):
        with pytest.raises(ValueError):
            Heatmap(np.zeros((4, 8)), 1.0)

    def test_pair_encode_decode(self, box):
        codec = HeatmapCodec()
        maps = codec.encode_pair([5.0, 1.0], [-0.8, 2.0])
        first, second = codec.decode_pair(maps, box)
        assert first.chosen_scale in DEFAULT_SCALES
        assert second.chosen_scale in DEFAULT_SCALES
