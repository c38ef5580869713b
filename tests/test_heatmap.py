import numpy as np
import pytest

from vpcalib.errors import (
    AllScalesDegenerate,
    DegeneratePeak,
    EmptyHeatmap,
    OutOfDiamond,
)
from vpcalib.heatmap import (
    DEFAULT_SCALES,
    BBox,
    Heatmap,
    HeatmapCodec,
    VPDetection,
    _CellTables,
    _SUBPIXEL,
    _cell_tables,
    _directions,
    _nearest_cells,
    accuracy_measure,
    bbox_denormalize,
    bbox_denormalize_direction,
    bbox_normalize,
    decode_heatmap,
    decode_stack,
    diamond_to_pixel,
    encode_vp,
    pixel_to_diamond,
    quantization_radius,
    select_vp,
    vp_of_pixel,
)
from vpcalib.projective import dehomogenize, is_ideal, scale_point, to_diamond


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

    def test_iou(self):
        a = BBox(0, 0, 10, 10)
        assert a.iou(BBox(0, 0, 10, 10)) == pytest.approx(1.0)
        assert a.iou(BBox(5, 0, 15, 10)) == pytest.approx(1 / 3)
        assert a.iou(BBox(20, 20, 30, 30)) == 0.0


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

    def test_infinite_vp_encodable(self):
        h = encode_vp(np.array([1.0, 0.0, 0.0]), 0.03)
        assert h.values.max() == 1.0

    def test_scale_invariance_of_infinity(self):
        grids = [encode_vp(np.array([1.0, 0.0, 0.0]), s).values for s in DEFAULT_SCALES]
        for g in grids[1:]:
            np.testing.assert_array_equal(g, grids[0])


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
            vp_again = bbox_normalize(det.point, box)
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
                peak, cands = decode_heatmap(h)
                vph = vp_of_pixel(float(peak[0]), float(peak[1]), h.scale, 64)
                if is_ideal(vph) or np.linalg.norm(dehomogenize(vph)) < 1e-9:
                    continue
                assert det.uncertainty <= accuracy_measure(h, peak, cands) + 1e-12

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
            peak, _ = decode_heatmap(chosen)
            centre = bbox_denormalize(
                dehomogenize(vp_of_pixel(float(peak[0]), float(peak[1]), chosen.scale)), box
            )
            # the other scales moved the point off the cell centre, not out of the cell
            assert np.linalg.norm(det.point - centre) > 1e-6
            x, y = bbox_normalize(det.point, box)
            rc = diamond_to_pixel(dehomogenize(to_diamond(scale_point([x, y, 1.0], chosen.scale))))
            assert tuple(np.floor(rc + 0.5).astype(int)) == peak

    def test_disagreeing_scales_fall_back_to_the_cell_centre(self, box):
        # each scale peaks at a different vanishing point: no cells overlap
        vps = ([5.0, 5.0], [-5.0, 5.0], [-5.0, -5.0], [5.0, -5.0])
        maps = [encode_vp(vp, s) for vp, s in zip(vps, DEFAULT_SCALES)]
        det = select_vp(maps, box)
        chosen = maps[DEFAULT_SCALES.index(det.chosen_scale)]
        peak, _ = decode_heatmap(chosen)
        centre = vp_of_pixel(float(peak[0]), float(peak[1]), chosen.scale)
        assert not det.direction_only
        assert np.array_equal(det.point, bbox_denormalize(dehomogenize(centre), box))

    @pytest.mark.parametrize("vp", [[3.0, 1.0, 0.0], [-14500.0, 142400.0, 1.0]])
    def test_direction_at_infinity_stays_a_unit_direction(self, box, vp):
        codec = HeatmapCodec()
        maps = codec.encode(np.array(vp))
        det = codec.decode(maps, box)
        assert det.direction_only
        assert np.linalg.norm(det.point) == pytest.approx(1.0, abs=1e-12)
        chosen = maps[DEFAULT_SCALES.index(det.chosen_scale)]
        peak, _ = decode_heatmap(chosen)
        centre = vp_of_pixel(float(peak[0]), float(peak[1]), chosen.scale)
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
        vp = np.array([vp_of_pixel(float(i), float(j), DEFAULT_SCALES[k]) for k, i, j in cells])
        ideal = is_ideal(vp)
        assert np.array_equal(tables.vp.reshape(-1, 3), vp)
        assert np.array_equal(tables.ideal.ravel(), ideal)
        assert np.array_equal(tables.direction.reshape(-1, 2), _directions(vp))
        norm = [np.nan if t else np.linalg.norm(dehomogenize(v)) for v, t in zip(vp, ideal)]
        assert np.array_equal(tables.norm.ravel(), norm, equal_nan=True)
        radius = [quantization_radius(i, j, DEFAULT_SCALES[k], 64) for k, i, j in cells]
        assert np.isinf(radius).any()
        assert np.array_equal(tables.radius.ravel(), radius)

    def test_a_one_record_decode_fills_only_the_cells_it_touches(self, box):
        _cell_tables.cache_clear()
        select_vp(HeatmapCodec().encode([4.0, 9.0]), box)
        tables = _cell_tables(DEFAULT_SCALES, 64)
        # one peak per scale, each its own only near-maximum cell
        assert tables._has_point.sum() == 4 and tables._has_radius.sum() == 4


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
    """The scalar decode that decode_stack replaced, one heatmap at a time."""
    candidates, near_max_sets = [], []
    for index, h in enumerate(heatmaps):
        try:
            peak, near_max = decode_heatmap(h, peak_ratio)
        except EmptyHeatmap:
            continue
        mask = np.zeros(h.values.shape, dtype=bool)
        mask[near_max[:, 0], near_max[:, 1]] = True
        near_max_sets.append((index, h, mask))
        vph = vp_of_pixel(float(peak[0]), float(peak[1]), h.scale, h.resolution)
        ideal = bool(is_ideal(vph))
        if not ideal and np.linalg.norm(dehomogenize(vph)) < 1e-9:
            continue
        spread = accuracy_measure(h, peak, near_max)
        radius = quantization_radius(peak[0], peak[1], h.scale, h.resolution)
        candidates.append((spread, radius, index, h, peak, vph, ideal))
    if not candidates:
        return None
    spread, _, index, h, peak, center, ideal = min(candidates, key=lambda c: c[:3])
    vph = center
    others = [(o, mask) for i, o, mask in near_max_sets if i != index]
    if others:
        rc = np.asarray(peak) + _SUBPIXEL
        samples = vp_of_pixel(rc[:, 0], rc[:, 1], h.scale, h.resolution)
        cells = _nearest_cells(samples, [o.scale for o, _ in others], h.resolution)
        keep = np.ones(len(rc), dtype=bool)
        for (_, mask), cell in zip(others, cells):
            keep &= mask[cell[:, 0], cell[:, 1]]
        if keep.any():
            fused = vp_of_pixel(*rc[keep].mean(axis=0), h.scale, h.resolution)
            if ideal:
                xy = fused[:2] if fused[:2] @ center[:2] >= 0.0 else -fused[:2]
                fused = np.append(xy, 0.0)
            dirs = _directions(np.vstack([fused, center, samples[keep]]))

            def worst(direction):
                cosines = dirs[2:] @ direction
                return np.max(np.arccos(np.clip(np.abs(cosines) if ideal else cosines, -1, 1)))

            vph = center if worst(dirs[0]) > worst(dirs[1]) else fused
    if ideal:
        direction = bbox_denormalize_direction(vph[:2], box)
        return VPDetection(direction / np.linalg.norm(direction), spread, h.scale, True)
    return VPDetection(bbox_denormalize(dehomogenize(vph), box), spread, h.scale, False)


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

    def test_mixed_resolutions_rejected(self, box):
        maps = [encode_vp([4.0, 9.0], 0.1), encode_vp([4.0, 9.0], 1.0, resolution=32)]
        with pytest.raises(ValueError):
            select_vp(maps, box)


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
