import json
import warnings

import numpy as np
import pytest

from vpcalib.errors import InputFormatError
from vpcalib.heatmap import BBox, HeatmapCodec, bbox_normalize, select_vp
from vpcalib.heatmap_io import read_heatmap_file, write_heatmap_file
from vpcalib.pipeline import (
    DetectionRecord,
    PipelineConfig,
    detections_to_pairs,
    filter_detections,
    format_json,
    parse_detections,
    run_calibration,
)
from vpcalib.synthetic import SceneSpec, generate_observations


def record(frame, confidence=1.0, box=(0, 0, 100, 50), vp=(3.0, -1.0), vp2=(-4.0, 2.0)):
    return DetectionRecord(
        frame_index=frame,
        box=BBox(*box),
        confidence=confidence,
        vp_first=np.asarray(vp, float),
        vp_second=np.asarray(vp2, float),
    )


class TestFilterDetections:
    def test_frame_stride(self):
        # boxes move so the static-vehicle rule stays out of the picture
        records = [record(f, box=(f, 0, f + 50, 40)) for f in range(100)]
        kept = filter_detections(records, PipelineConfig())
        assert [r.frame_index for r in kept] == list(range(0, 100, 10))

    def test_max_frames_cutoff(self):
        records = [record(f, box=(f, 0, f + 50, 40)) for f in range(0, 3000, 10)]
        kept = filter_detections(records, PipelineConfig())
        assert max(r.frame_index for r in kept) == 1490

    def test_top_boxes_by_confidence(self):
        confidences = [0.5, 0.9, 0.3, 0.8, 0.95, 0.2, 0.7, 0.85, 0.6, 0.4, 0.99, 0.1]
        records = [
            record(0, confidence=c, box=(10 * k, 0, 10 * k + 9, 9))
            for k, c in enumerate(confidences)
        ]
        kept = filter_detections(records, PipelineConfig())
        assert len(kept) == 10
        dropped = {0.2, 0.1}
        assert all(r.confidence not in dropped for r in kept)
        # input order preserved among the survivors
        kept_idx = [records.index(r) for r in kept]
        assert kept_idx == sorted(kept_idx)

    def test_static_vehicle_dropped_after_min_hits(self):
        # the same box in 5 consecutive sampled frames: appearances 4, 5 dropped
        records = [record(10 * k, box=(5, 5, 50, 40)) for k in range(5)]
        kept = filter_detections(records, PipelineConfig())
        assert [r.frame_index for r in kept] == [0, 10, 20]

    def test_moving_vehicle_not_dropped(self):
        records = [record(10 * k, box=(5 + 30 * k, 5, 50 + 30 * k, 40)) for k in range(5)]
        kept = filter_detections(records, PipelineConfig())
        assert len(kept) == 5

    def test_track_interruption_resets(self):
        frames = [0, 10, 20, 30, 40, 50]
        boxes = [(5, 5, 50, 40)] * 2 + [(500, 5, 545, 40)] + [(5, 5, 50, 40)] * 3
        records = [record(f, box=b) for f, b in zip(frames, boxes)]
        kept = filter_detections(records, PipelineConfig())
        # the reappearing box starts a fresh track, so nothing exceeds 3 hits
        assert len(kept) == 6

    def test_output_is_subsequence(self, rng):
        records = [
            record(int(f), confidence=float(c))
            for f, c in zip(sorted(rng.integers(0, 200, 60)), rng.uniform(0, 1, 60))
        ]
        kept = filter_detections(records, PipelineConfig())
        it = iter(records)
        assert all(r in it for r in kept)


class TestParseDetections:
    def test_round_trip(self, tmp_path):
        lines = [
            '{"frame": 0, "box": [0, 0, 100, 50], "confidence": 0.9, '
            '"vp_first": [3.0, -1.0], "vp_second": [-4.0, 2.0]}',
            '{"frame": 10, "box": [5, 5, 90, 45], "confidence": 0.8, '
            '"vp_first_direction": [1.0, 0.0], "vp_second": [-4.0, 2.0]}',
        ]
        path = tmp_path / "det.jsonl"
        path.write_text("\n".join(lines) + "\n")
        records = parse_detections(path)
        assert len(records) == 2
        assert records[0].frame_index == 0
        assert records[1].vp_first_direction is not None

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "det.jsonl"
        path.write_text("not json\n")
        with pytest.raises(InputFormatError):
            parse_detections(path)

    def test_unsorted_frames_rejected(self, tmp_path):
        path = tmp_path / "det.jsonl"
        path.write_text(
            '{"frame": 10, "box": [0, 0, 1, 1], "vp_first": [1, 0], "vp_second": [0, 1]}\n'
            '{"frame": 0, "box": [0, 0, 1, 1], "vp_first": [1, 0], "vp_second": [0, 1]}\n'
        )
        with pytest.raises(InputFormatError):
            parse_detections(path)

    def test_payload_required(self):
        with pytest.raises(ValueError):
            DetectionRecord(frame_index=0, box=BBox(0, 0, 1, 1), confidence=0.5)


class TestDecodeRecords:
    def test_inline_round_trip(self):
        box = BBox(100, 200, 300, 260)
        vp_frame = np.array([900.0, 150.0])
        vp2_frame = np.array([-500.0, 180.0])
        rec = DetectionRecord(
            frame_index=0,
            box=box,
            confidence=1.0,
            vp_first=bbox_normalize(vp_frame, box),
            vp_second=bbox_normalize(vp2_frame, box),
        )
        (pair,) = detections_to_pairs([rec], PipelineConfig())
        np.testing.assert_allclose(pair.first, vp_frame, rtol=1e-12)
        np.testing.assert_allclose(pair.second, vp2_frame, rtol=1e-12)

    def test_direction_payload(self):
        box = BBox(0, 0, 200, 100)
        rec = DetectionRecord(
            frame_index=0,
            box=box,
            confidence=1.0,
            vp_first_direction=np.array([1.0, 0.0]),
            vp_second=np.array([0.5, -0.25]),
        )
        (pair,) = detections_to_pairs([rec], PipelineConfig())
        assert pair.first_is_direction
        assert np.linalg.norm(pair.first) == pytest.approx(1.0)

    def test_heatmap_payload(self, tmp_path):
        box = BBox(100, 200, 300, 260)
        vp_first = np.array([4.0, -1.5])
        vp_second = np.array([-6.0, 2.0])
        codec = HeatmapCodec()
        write_heatmap_file(tmp_path / "obs0.dvp", codec.encode_pair(vp_first, vp_second))
        rec = DetectionRecord(
            frame_index=0, box=box, confidence=1.0, heatmap_ref="obs0.dvp"
        )
        (pair,) = detections_to_pairs([rec], PipelineConfig(), base_dir=tmp_path)
        # decoded back to frame pixels within grid quantization
        from vpcalib.heatmap import bbox_denormalize

        expected = bbox_denormalize(vp_first, box)
        assert np.linalg.norm(pair.first - expected) / np.linalg.norm(expected - box.center) < 0.2

    def test_heatmap_channels_decoding_to_one_point_dropped(self, tmp_path):
        box = BBox(100, 200, 300, 260)
        codec = HeatmapCodec()
        write_heatmap_file(tmp_path / "same.dvp", codec.encode_pair([4.0, -1.5], [4.0, -1.5]))
        write_heatmap_file(tmp_path / "good.dvp", codec.encode_pair([4.0, -1.5], [-6.0, 2.0]))
        records = [
            DetectionRecord(frame_index=0, box=box, confidence=1.0, heatmap_ref=name)
            for name in ("same.dvp", "good.dvp")
        ]
        (pair,) = detections_to_pairs(records, PipelineConfig(), base_dir=tmp_path)
        assert not np.array_equal(pair.first, pair.second)

    def test_mixed_chunk_decodes_each_record_as_read(self, tmp_path):
        codec = HeatmapCodec()
        box = BBox(100, 200, 300, 260)
        vps = [([4.0, -1.5], [-6.0, 2.0]), ([0.5, 3.0], [9.0, 1.0]), ([-2.0, -7.0], [30.0, 4.0])]
        names = ["obs0.dvp", "obs1.json", "obs2.dvp"]
        for name, (first, second) in zip(names, vps):
            write_heatmap_file(tmp_path / name, codec.encode_pair(first, second))
        # a float64 JSON grid: a ghost at (0, 0) ties the peak only in float32
        payload = json.loads((tmp_path / "obs1.json").read_text())
        grids = np.array(payload["data"])
        grids[0][grids[0] == 1.0] = 1.0 + 1e-12
        grids[0, :, 0, 0] = 1.0
        payload["data"] = grids.tolist()
        (tmp_path / "obs1.json").write_text(json.dumps(payload))
        records = []
        for name in names:
            records += [DetectionRecord(frame_index=0, box=box, confidence=1.0, heatmap_ref=name),
                        record(0)]
        pairs = detections_to_pairs(records, PipelineConfig(), base_dir=tmp_path)
        assert len(pairs) == len(records)
        (inline,) = detections_to_pairs([record(0)], PipelineConfig())
        for k, pair in enumerate(pairs):
            if k % 2:
                expected = (inline.first, inline.second)
            else:
                channels = read_heatmap_file(tmp_path / names[k // 2])
                expected = tuple(select_vp(maps, box).point for maps in channels)
            np.testing.assert_array_equal(pair.first, expected[0])
            np.testing.assert_array_equal(pair.second, expected[1])

    def test_heatmap_scale_mismatch_rejected(self, tmp_path):
        box = BBox(100, 200, 300, 260)
        codec = HeatmapCodec(scales=(0.05, 0.5))
        write_heatmap_file(tmp_path / "obs.dvp", codec.encode_pair([4.0, -1.5], [-6.0, 2.0]))
        rec = DetectionRecord(frame_index=0, box=box, confidence=1.0, heatmap_ref="obs.dvp")
        with pytest.raises(InputFormatError):
            detections_to_pairs([rec], PipelineConfig(), base_dir=tmp_path)

    def test_heatmap_resolution_mismatch_rejected(self, tmp_path):
        box = BBox(100, 200, 300, 260)
        codec = HeatmapCodec(resolution=32)
        write_heatmap_file(tmp_path / "obs.dvp", codec.encode_pair([4.0, -1.5], [-6.0, 2.0]))
        rec = DetectionRecord(frame_index=0, box=box, confidence=1.0, heatmap_ref="obs.dvp")
        with pytest.raises(InputFormatError):
            detections_to_pairs([rec], PipelineConfig(), base_dir=tmp_path)
        with pytest.raises(ValueError):
            PipelineConfig(resolution=-3)

    def test_parallel_matches_serial(self, tmp_path):
        spec = SceneSpec(seed=44, n_vehicles=12)
        observations, _, _ = generate_observations(spec)
        records = [
            DetectionRecord(
                frame_index=o.frame_index * 10,
                box=o.box,
                confidence=1.0,
                vp_first=bbox_normalize(o.pair.first, o.box),
                vp_second=bbox_normalize(o.pair.second, o.box),
            )
            for o in observations
            if o.pair.finite
        ]
        serial = detections_to_pairs(records, PipelineConfig(parallel=False))
        para = detections_to_pairs(records, PipelineConfig(parallel=True))
        assert len(serial) == len(para)
        for a, b in zip(serial, para):
            np.testing.assert_array_equal(a.first, b.first)
            np.testing.assert_array_equal(a.second, b.second)


class TestRunCalibration:
    def _write_detections(self, path, spec):
        observations, measurements, truth = generate_observations(spec)
        lines = []
        for o in observations:
            payload = {
                "frame": o.frame_index * 10,
                "box": list(o.box.as_tuple()),
                "confidence": 1.0,
                "vp_first": bbox_normalize(o.pair.first, o.box).tolist(),
                "vp_second": bbox_normalize(o.pair.second, o.box).tolist(),
            }
            lines.append(json.dumps(payload))
        path.write_text("\n".join(lines) + "\n")
        return truth

    def test_recovers_truth_from_file(self, tmp_path):
        spec = SceneSpec(seed=2, n_vehicles=20)
        path = tmp_path / "det.jsonl"
        truth = self._write_detections(path, spec)
        out = run_calibration(path, PipelineConfig(), image_size=spec.image_size)
        assert out["f"] == pytest.approx(truth.intrinsics.f, rel=1e-6)
        assert out["n_pairs_used"] == 20

    def test_zero_length_directions_dropped_without_warning(self, tmp_path, capfd):
        spec = SceneSpec(seed=2, n_vehicles=20)
        path = tmp_path / "det.jsonl"
        self._write_detections(path, spec)
        clean = run_calibration(path, PipelineConfig(), image_size=spec.image_size)
        box = [0, 0, 100, 50]
        zero = [
            {"frame": 0, "box": box, "vp_first_direction": [0, 0], "vp_second": [-4, 2]},
            {"frame": 0, "box": box, "vp_first": [3, -1], "vp_second_direction": [0, 0]},
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in zero) + path.read_text())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = run_calibration(path, PipelineConfig(), image_size=spec.image_size)
        assert capfd.readouterr().err == ""
        assert out.pop("n_records") == clean.pop("n_records") + 2
        assert out == clean

    def test_image_size_required(self, tmp_path):
        spec = SceneSpec(seed=2, n_vehicles=6)
        path = tmp_path / "det.jsonl"
        self._write_detections(path, spec)
        with pytest.raises(InputFormatError):
            run_calibration(path, PipelineConfig())

    def test_config_file_parsing(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            '{"frame_stride": 5, "image_size": [1920, 1080], "pair_mode": "unordered-min"}'
        )
        config = PipelineConfig.from_file(cfg_path)
        assert config.frame_stride == 5
        assert config.image_size == (1920.0, 1080.0)
        assert config.pair_mode == "unordered-min"

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"nonsense": 1}')
        with pytest.raises(InputFormatError):
            PipelineConfig.from_file(cfg_path)


class TestFormatJson:
    def test_seventeen_significant_digits(self):
        text = format_json({"x": 0.1})
        assert text == '{"x": 0.10000000000000001}\n'

    def test_key_order_preserved(self):
        assert format_json({"b": 1, "a": 2}) == '{"b": 1, "a": 2}\n'

    def test_nested_structures(self):
        text = format_json({"v": [1.5, 2], "flag": True, "name": "x", "none": None})
        assert text == '{"v": [1.5, 2], "flag": true, "name": "x", "none": null}\n'
        json.loads(text)

    def test_round_trips_through_json(self, rng):
        values = rng.normal(size=20) * 10.0 ** rng.integers(-8, 8, 20)
        text = format_json({"values": values.tolist()})
        back = json.loads(text)
        np.testing.assert_array_equal(back["values"], values)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            format_json({"x": float("nan")})
