import hashlib
import json
import warnings

import numpy as np
import pytest

from vpcalib.calibration import CameraCalibration
from vpcalib.cli import main
from vpcalib.evaluation import DistanceMeasurement, measured_distance
from vpcalib.heatmap import HeatmapCodec, bbox_normalize
from vpcalib.heatmap_io import write_heatmap_file
from vpcalib.synthetic import SceneSpec, generate_observations

SCENE = {"seed": 202, "n_vehicles": 20, "f": 1100.0, "tilt_deg": 22.0, "roll_deg": 1.5}
# an evaluate input that loads, all its numbers JSON integers
MEASUREMENT = {"a": [100, 800], "b": [300, 900], "distance": 5}
CALIBRATION = {"f": 1000, "principal_point": [960, 540], "horizon": [0.01, -1, 300],
               "normal": [0.01, -0.9, -0.4], "delta": 1, "n_pairs_used": 7, "n_pairs_rejected": 0}


@pytest.fixture
def scene_dir(tmp_path):
    spec_path = tmp_path / "scene.json"
    spec_path.write_text(json.dumps(SCENE))
    out_dir = tmp_path / "scene"
    assert main(["synth", "--spec", str(spec_path), "--out-dir", str(out_dir)]) == 0
    return out_dir


class TestSynth:
    def test_writes_three_files(self, scene_dir):
        assert (scene_dir / "detections.jsonl").exists()
        assert (scene_dir / "measurements.json").exists()
        assert (scene_dir / "ground_truth.json").exists()
        lines = (scene_dir / "detections.jsonl").read_text().splitlines()
        assert len(lines) == SCENE["n_vehicles"]

    def test_byte_identical_reruns(self, tmp_path, scene_dir):
        spec_path = tmp_path / "scene.json"
        second = tmp_path / "scene2"
        assert main(["synth", "--spec", str(spec_path), "--out-dir", str(second)]) == 0
        for name in ("detections.jsonl", "measurements.json", "ground_truth.json"):
            assert (second / name).read_bytes() == (scene_dir / name).read_bytes()

    def test_parallel_matches_serial(self, tmp_path, scene_dir):
        spec_path = tmp_path / "scene.json"
        par = tmp_path / "scene_par"
        assert main(
            ["synth", "--spec", str(spec_path), "--out-dir", str(par), "--parallel"]
        ) == 0
        for name in ("detections.jsonl", "measurements.json", "ground_truth.json"):
            assert (par / name).read_bytes() == (scene_dir / name).read_bytes()

    # SHA-256 of the three files as the per-vehicle generator wrote them: any
    # drift in the synthetic scene's bytes fails here
    GOLDEN = {
        "noisy-with-outliers": (
            {"seed": 7, "n_vehicles": 300, "noise_sigma_px": 1.5, "outlier_fraction": 0.2,
             "n_measurements": 12},
            {"detections.jsonl": "2470aca2fec714930fc4f5f32e6e888c6e80957eab61418dc779390dbaf11bc0",
             "measurements.json": "07511ec9ee75074cc7ba0a82317bcad36cf0d39a8088a7339222480acdee809f",
             "ground_truth.json": "e5635c03d2d4fac381ce0a90a3a1095a333fc58c700e977b3dc9fed758213d8e"},
        ),
        # 74 of the 200 vehicles' first pixels see no road within range
        "low-tilt-rejections": (
            {"seed": 11, "n_vehicles": 200, "tilt_deg": 4.0, "roll_deg": -6.0, "n_measurements": 8},
            {"detections.jsonl": "cb8695b03bb30c28f6a52c0a267f9029fa796809b9911f45b8d455d662ddde05",
             "measurements.json": "ab96502f93066a06309b2555b442bc6b148b45916be07755bcd4b311eadf8278",
             "ground_truth.json": "1f1bb849ef0616907db48d7e1875ce3d2c9d0beda038f0d2ae9221670f9e55bd"},
        ),
    }

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_golden_bytes(self, tmp_path, name):
        spec, digests = self.GOLDEN[name]
        spec_path = tmp_path / "scene.json"
        spec_path.write_text(json.dumps(spec))
        assert main(["synth", "--spec", str(spec_path), "--out-dir", str(tmp_path / "out")]) == 0
        for file, digest in digests.items():
            assert hashlib.sha256((tmp_path / "out" / file).read_bytes()).hexdigest() == digest, file

    def test_more_than_ten_thousand_vehicles_calibrate(self, tmp_path):
        # confidences fall by 1e-4 per vehicle and stop at 0, so vehicles
        # 10,001 and 10,002 keep one in [0, 1]
        spec = tmp_path / "scene.json"
        spec.write_text(json.dumps({"seed": 1, "n_vehicles": 10_002}))
        assert main(["synth", "--spec", str(spec), "--out-dir", str(tmp_path)]) == 0
        lines = (tmp_path / "detections.jsonl").read_text().splitlines()
        confidence = [json.loads(line)["confidence"] for line in lines]
        assert min(confidence) == confidence[10_000] == confidence[10_001] == 0.0
        # synth writes frame 10 k, so the default frame cap would keep 150
        config, out = tmp_path / "cfg.json", tmp_path / "cal.json"
        config.write_text('{"max_frames": 1000000}')
        assert main(["calibrate", "--detections", str(tmp_path / "detections.jsonl"),
                     "--out", str(out), "--image-size", "1920", "1080",
                     "--config", str(config)]) == 0
        assert json.loads(out.read_text())["n_records"] == 10_002


class TestCalibrate:
    def test_recovers_ground_truth(self, tmp_path, scene_dir):
        out = tmp_path / "cal.json"
        code = main(
            [
                "calibrate",
                "--detections", str(scene_dir / "detections.jsonl"),
                "--out", str(out),
                "--image-size", "1920", "1080",
            ]
        )
        assert code == 0
        cal = json.loads(out.read_text())
        truth = json.loads((scene_dir / "ground_truth.json").read_text())
        assert cal["f"] == pytest.approx(truth["f"], rel=1e-3)
        est = np.array(cal["normal"]) / np.linalg.norm(cal["normal"])
        ref = np.array(truth["normal"])
        assert np.degrees(np.arccos(np.clip(abs(est @ ref), -1, 1))) < 0.1

    def test_byte_identical_and_parallel(self, tmp_path, scene_dir):
        outs = []
        for name, extra in (("a", []), ("b", []), ("c", ["--parallel"])):
            out = tmp_path / f"cal_{name}.json"
            assert main(
                [
                    "calibrate",
                    "--detections", str(scene_dir / "detections.jsonl"),
                    "--out", str(out),
                    "--image-size", "1920", "1080",
                    *extra,
                ]
            ) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_scale_reference_sets_delta(self, tmp_path, scene_dir):
        ms = json.loads((scene_dir / "measurements.json").read_text())
        ref = ms[0]
        out = tmp_path / "cal.json"
        assert main(
            [
                "calibrate",
                "--detections", str(scene_dir / "detections.jsonl"),
                "--out", str(out),
                "--image-size", "1920", "1080",
                "--scale-reference",
                f"{ref['a'][0]},{ref['a'][1]},{ref['b'][0]},{ref['b'][1]},{ref['distance']}",
            ]
        ) == 0
        cal = CameraCalibration.from_dict(json.loads(out.read_text()))
        m = DistanceMeasurement(ref["a"], ref["b"], ref["distance"])
        assert measured_distance(m, cal) == pytest.approx(ref["distance"], rel=1e-9)

    def test_bad_scale_reference_errors(self, tmp_path, scene_dir, capsys):
        code = main(
            [
                "calibrate",
                "--detections", str(scene_dir / "detections.jsonl"),
                "--out", str(tmp_path / "cal.json"),
                "--image-size", "1920", "1080",
                "--scale-reference", "1,2,3",
            ]
        )
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InputFormatError"
        assert not (tmp_path / "cal.json").exists()

    # SHA-256 of the calibration file of a scene that takes every route into
    # frame pixels: exact sigma=1 DVP maps, broad noisy sigma=2 maps, inline
    # points, an inline direction, an inline value that overflows once scaled
    # to its box and a heatmap channel that decodes to nothing
    MIXED_GOLDEN = "878a012c1dea49b6125f16bdb9f2fb152581469e6853432723717edf3373589a"

    def test_golden_bytes_of_a_mixed_scene(self, tmp_path):
        spec = tmp_path / "scene.json"
        spec.write_text(json.dumps(
            {"seed": 31, "n_vehicles": 60, "noise_sigma_px": 1.0, "outlier_fraction": 0.1}
        ))
        assert main(["synth", "--spec", str(spec), "--out-dir", str(tmp_path)]) == 0
        lines = (tmp_path / "detections.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines]
        exact, broad = HeatmapCodec(), HeatmapCodec(sigma=2.0)
        rng = np.random.default_rng(31)
        for k, record in enumerate(records):
            if k % 3 == 2 or "vp_first" not in record or "vp_second" not in record:
                continue
            maps = (exact if k % 3 == 0 else broad).encode_pair(
                record.pop("vp_first"), record.pop("vp_second")
            )
            if k % 3 == 1:
                for h in maps[0] + maps[1]:
                    h.values = h.values + rng.uniform(-0.02, 0.06, h.values.shape)
            if k == 4:  # a channel with every scale empty: the record is dropped
                for h in maps[1]:
                    h.values = np.zeros_like(h.values)
            write_heatmap_file(tmp_path / f"v{k}.dvp", maps)
            record["heatmap"] = f"v{k}.dvp"
        records[2]["vp_first_direction"] = [0.9, -0.1]
        del records[2]["vp_first"]
        records[5]["vp_first"] = [1e308, 0.0]
        det = tmp_path / "mixed.jsonl"
        det.write_text("".join(json.dumps(record) + "\n" for record in records))
        out = tmp_path / "cal.json"
        assert main(["calibrate", "--detections", str(det), "--out", str(out),
                     "--image-size", "1920", "1080"]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.MIXED_GOLDEN

    # SHA-256 of the calibration file of an inline scene that every filter
    # rule acts on, as the per-frame filter loop kept it: frames of 15 boxes
    # with tied confidences (top-10), three parked cars in most sampled frames
    # (one still, one jittered to an IoU just above static_iou, one just
    # below) and off-stride frames
    FILTERED_GOLDEN = "f291a66a798820be020487752a09344bdc1d38addeeb87e0a58386026897c214"

    def test_golden_bytes_of_a_filtered_scene(self, tmp_path):
        spec = tmp_path / "scene.json"
        spec.write_text(json.dumps(
            {"seed": 37, "n_vehicles": 300, "noise_sigma_px": 2.0, "outlier_fraction": 0.1}
        ))
        assert main(["synth", "--spec", str(spec), "--out-dir", str(tmp_path)]) == 0
        lines = (tmp_path / "detections.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines if "vp_first" in line and "vp_second" in line]
        parked, moving = records[:3], records[3:]
        # widths that make the IoU of a 0/dx/0/... shift just above or below 0.9
        shift = [0.0, 0.999, 1.001]
        rng = np.random.default_rng(37)
        out_lines = []
        for g in range(24):
            frame = 10 * g + (3 if g % 7 == 5 else 0)
            group = [dict(rec) for rec in moving[12 * g : 12 * g + 12]]
            for rec in group:
                rec["confidence"] = float(rng.choice([0.7, 0.8, 0.9, 1.0]))
            for k, rec in enumerate(parked):
                if g % 9 == 8 and k == 0:  # the still car leaves one frame out
                    continue
                x0, y0, x1, y1 = rec["box"]
                dx = (x1 - x0) * 0.1 / 1.9 * shift[k] * (g % 2)
                group.insert(4 * k + 1, {**rec, "box": [x0 + dx, y0, x1 + dx, y1],
                                         "confidence": 0.9})
            for rec in group:
                rec["frame"] = frame
                out_lines.append(json.dumps(rec))
        det = tmp_path / "filtered.jsonl"
        det.write_text("\n".join(out_lines) + "\n")
        out = tmp_path / "cal.json"
        assert main(["calibrate", "--detections", str(det), "--out", str(out),
                     "--image-size", "1920", "1080"]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.FILTERED_GOLDEN

    @staticmethod
    def _used_with_five_good_records(tmp_path, scene_dir, capsys, record):
        good = (scene_dir / "detections.jsonl").read_text().splitlines()[:5]
        det = tmp_path / "det.jsonl"
        det.write_text("\n".join([record] + good) + "\n")
        out = tmp_path / "cal.json"
        code = main(["calibrate", "--detections", str(det), "--out", str(out),
                     "--image-size", "1920", "1080"])
        assert code == 0
        assert capsys.readouterr().err == ""
        cal = json.loads(out.read_text())
        assert (cal["n_records"], cal["n_pairs_used"]) == (6, 5)

    def test_overflowing_inline_vp_dropped_quietly(self, tmp_path, scene_dir, capsys):
        # finite in box coordinates, infinite once scaled to the 120 px box
        huge = '{"frame": 0, "box": [900, 500, 1020, 580], "vp_first": [1e308, 0], ' \
            '"vp_second": [-4, 2]}'
        self._used_with_five_good_records(tmp_path, scene_dir, capsys, huge)

    def test_vp_beyond_max_coordinate_dropped_quietly(self, tmp_path, scene_dir, capsys):
        # finite in frame pixels too, but the estimators' products would overflow
        huge = '{"frame": 0, "box": [0, 0, 2, 2], "vp_first": [1.7e308, 0], ' \
            '"vp_second": [-1.7e308, 0]}'
        self._used_with_five_good_records(tmp_path, scene_dir, capsys, huge)

    def test_failure_writes_no_output(self, tmp_path, capsys):
        det = tmp_path / "bad.jsonl"
        # all pairs give imaginary focal lengths: same-side vanishing points
        lines = [
            json.dumps(
                {
                    "frame": 10 * k,
                    "box": [0, 0, 100, 50],
                    "confidence": 1.0,
                    "vp_first": [5.0 + 0.1 * k, 0.0],
                    "vp_second": [9.0 + 0.1 * k, 0.0],
                }
            )
            for k in range(8)
        ]
        det.write_text("\n".join(lines) + "\n")
        out = tmp_path / "cal.json"
        code = main(
            ["calibrate", "--detections", str(det), "--out", str(out),
             "--image-size", "1920", "1080"]
        )
        assert code == 1
        assert not out.exists()
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InsufficientPairs"

    @staticmethod
    def _heatmap_detections(tmp_path, damage=None, codec=HeatmapCodec()):
        lines = []
        for k in range(6):
            path = tmp_path / f"obs{k}.dvp"
            write_heatmap_file(path, codec.encode_pair([3.0 + k, -2.0], [-5.0, 1.0 + k]))
            lines.append(json.dumps(
                {"frame": 10 * k, "box": [200 * k, 0, 200 * k + 100, 50], "heatmap": path.name}
            ))
        if damage:
            damage(tmp_path / "obs3.dvp")
        det = tmp_path / "detections.jsonl"
        det.write_text("\n".join(lines) + "\n")
        return det

    @pytest.mark.parametrize("damage", ["nan", "missing"])
    def test_bad_heatmap_file_is_a_format_error(self, tmp_path, capsys, damage):
        def nan(path):
            blob = bytearray(path.read_bytes())
            blob[-4:] = np.float32(np.nan).tobytes()
            path.write_bytes(bytes(blob))

        det = self._heatmap_detections(tmp_path, nan if damage == "nan" else lambda p: p.unlink())
        out = tmp_path / "cal.json"
        code = main(["calibrate", "--detections", str(det), "--out", str(out),
                     "--image-size", "1920", "1080"])
        assert code == 1
        assert not out.exists()
        err = json.loads(capsys.readouterr().err)
        assert set(err) == {"error", "message"}
        assert err["error"] == "InputFormatError" and "obs3.dvp" in err["message"]

    @pytest.mark.parametrize("damage", ["reversed scales", "repeated scale", "another grid"])
    def test_heatmap_file_off_the_run_grid_is_a_format_error(self, tmp_path, capsys, damage):
        def spoil(path):
            if damage == "another grid":
                write_heatmap_file(path, HeatmapCodec(resolution=32).encode_pair([3, 1], [-5, 2]))
                return
            scales = (1.0, 0.3, 0.1, 0.03) if damage == "reversed scales" else (0.03, 0.1, 0.1, 1.0)
            blob = bytearray(path.read_bytes())
            blob[12:44] = np.array(scales, dtype="<f8").tobytes()
            path.write_bytes(bytes(blob))

        det = self._heatmap_detections(tmp_path, spoil)
        out = tmp_path / "cal.json"
        code = main(["calibrate", "--detections", str(det), "--out", str(out),
                     "--image-size", "1920", "1080"])
        assert code == 1
        assert not out.exists()
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InputFormatError" and "obs3.dvp" in err["message"]
        if damage == "another grid":
            assert "obs0.dvp" in err["message"]

    @pytest.mark.parametrize("scales", [(1e-160, 0.1, 0.3, 1.0), (0.03, 0.1, 0.3, 1e61)])
    def test_heatmap_files_with_scales_outside_the_length_range_fail_quietly(
            self, tmp_path, capsys, scales):
        # every file states the same grid, so only the scale range rejects it;
        # at 1e-160 the decode used to overflow into RuntimeWarnings
        def spoil(path):
            blob = bytearray(path.read_bytes())
            blob[12:44] = np.array(scales, dtype="<f8").tobytes()
            path.write_bytes(bytes(blob))

        det = self._heatmap_detections(tmp_path)
        for k in range(6):
            spoil(tmp_path / f"obs{k}.dvp")
        out = tmp_path / "cal.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["calibrate", "--detections", str(det), "--out", str(out),
                         "--image-size", "1920", "1080"])
        assert code == 1
        assert not out.exists()
        err = json.loads(capsys.readouterr().err)
        assert set(err) == {"error", "message"}
        assert err["error"] == "InputFormatError" and "obs0.dvp" in err["message"]
        assert "numbers in [1e-60, 1e+60]" in err["message"]

    @staticmethod
    def _calibrate_heatmap_scene(tmp_path, codec):
        """Calibrate a 30-vehicle scene whose records are heatmap files of ``codec``,
        with no config; the calibration and the scene's truth."""
        spec = SceneSpec(seed=2, n_vehicles=30)
        observations, _, truth = generate_observations(spec)
        det_dir = tmp_path / "dets"
        det_dir.mkdir()
        lines = []
        for k, o in enumerate(observations):
            if not o.pair.finite:
                continue
            write_heatmap_file(
                det_dir / f"obs{k}.dvp",
                codec.encode_pair(
                    bbox_normalize(o.pair.first, o.box),
                    bbox_normalize(o.pair.second, o.box),
                ),
            )
            lines.append(
                json.dumps(
                    {
                        "frame": 10 * k,
                        "box": list(o.box.as_tuple()),
                        "confidence": 1.0,
                        "heatmap": f"obs{k}.dvp",
                    }
                )
            )
        (det_dir / "detections.jsonl").write_text("\n".join(lines) + "\n")
        out = tmp_path / "cal.json"
        assert main(
            [
                "calibrate",
                "--detections", str(det_dir / "detections.jsonl"),
                "--out", str(out),
                "--image-size", "1920", "1080",
            ]
        ) == 0
        return json.loads(out.read_text()), truth

    def test_heatmap_payloads_end_to_end(self, tmp_path):
        cal, truth = self._calibrate_heatmap_scene(tmp_path, HeatmapCodec())
        # grid quantization limits the heatmap route; same order as real-data errors
        assert cal["f"] == pytest.approx(truth.intrinsics.f, rel=0.2)

    @pytest.mark.parametrize("codec", [HeatmapCodec(resolution=32),
                                       HeatmapCodec(scales=(0.05, 0.5))],
                             ids=["resolution-32", "two-scales"])
    def test_the_files_state_the_grid(self, tmp_path, codec):
        cal, truth = self._calibrate_heatmap_scene(tmp_path, codec)
        assert cal["n_pairs_used"] == 30
        assert cal["f"] == pytest.approx(truth.intrinsics.f, rel=0.2)


class TestEvaluate:
    def test_full_loop(self, tmp_path, scene_dir, capsys):
        cal_path = tmp_path / "cal.json"
        assert main(
            [
                "calibrate",
                "--detections", str(scene_dir / "detections.jsonl"),
                "--out", str(cal_path),
                "--image-size", "1920", "1080",
            ]
        ) == 0
        report_path = tmp_path / "report.json"
        assert main(
            [
                "evaluate",
                "--calibration", str(cal_path),
                "--measurements", str(scene_dir / "measurements.json"),
                "--out", str(report_path),
            ]
        ) == 0
        report = json.loads(report_path.read_text())
        assert report["mean_error_percent"] < 1e-4
        assert report["n_measurements"] == 10
        table = capsys.readouterr().out
        assert "mean error" in table and "%" in table

    def test_missing_file_errors(self, tmp_path, capsys):
        code = main(
            [
                "evaluate",
                "--calibration", str(tmp_path / "nope.json"),
                "--measurements", str(tmp_path / "nope2.json"),
                "--out", str(tmp_path / "r.json"),
            ]
        )
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InputFormatError"


class TestErrorPaths:
    """Bad input and unwritable output: exit 1, error JSON, no file written."""

    @staticmethod
    def _fails(argv, capsys, error, root):
        before = sorted(root.rglob("*"))
        assert main([str(a) for a in argv]) == 1
        captured = capsys.readouterr()
        err = json.loads(captured.err)
        assert set(err) == {"error", "message"} and err["error"] == error
        assert "Traceback" not in captured.err + captured.out
        assert sorted(root.rglob("*")) == before
        return err["message"]

    @staticmethod
    def _calibrate(scene_dir, out, *extra):
        return ["calibrate", "--detections", scene_dir / "detections.jsonl", "--out", out,
                "--image-size", "1920", "1080", *extra]

    @pytest.mark.parametrize(
        "config",
        [
            '{"scales": "abc"}', '{"frame_stride": 0}', "[1, 2]", '{"resolution": -3}',
            '{"frame_stride": 2.5}', '{"max_frames": 1e999}',
            '{"max_boxes_per_frame": 2.5}', '{"static_min_hits": 1e999}',
            '{"principal_point": ["960", true]}', '{"image_size": ["1920", "1080"]}',
            '{"scales": ["0.5", "1", "2", "4"]}',
            # the heatmap files state their grid; a config no longer may
            '{"scales": [0.03, 0.1, 0.3, 1.0]}', '{"resolution": 64}',
        ],
    )
    def test_bad_config(self, tmp_path, scene_dir, capsys, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config)
        argv = self._calibrate(scene_dir, tmp_path / "cal.json", "--config", cfg)
        message = self._fails(argv, capsys, "InputFormatError", tmp_path)
        assert str(cfg) in message

    # One record whose two vanishing points lie on the same side of the image
    # centre: it gives a horizon slope but no real focal length.
    NO_USABLE_PAIR = (
        '{"frame": 0, "box": [900, 500, 1020, 580], "vp_first": [2, 0.1], "vp_second": [4, 0.3]}\n'
    )
    AUGMENT = '{"bbox_3d": [[20, 20], [100, 20], [100, 90], [20, 90], ' \
        '[25, 30], [95, 30], [95, 100], [25, 100]], %s}'

    # case: (command, its options, files to write, error, text the message names).
    # The options follow the command's working defaults, so they replace them
    # ("calibrate-unsized" leaves out --image-size, which would override the
    # config's); files are written as latin-1, which makes "\xff" one byte
    # that is not UTF-8.
    BAD_INPUTS = {
        "config-not-utf8": (
            "calibrate", ["--config", "cfg.json"], {"cfg.json": '{"pair_mode": "\xff"}'},
            "InputFormatError", "cfg.json"),
        "detections-not-utf8": (
            "calibrate", ["--detections", "det.jsonl"], {"det.jsonl": "\xff\n"},
            "InputFormatError", "det.jsonl"),
        "measurements-not-utf8": (
            "evaluate", ["--measurements", "m.json"], {"m.json": "[\xff]"},
            "InputFormatError", "m.json"),
        "image-size-flag-zero": (
            "calibrate", ["--image-size", "0", "1080"], {},
            "InputFormatError", "--image-size"),
        "principal-point-of-three": (
            "calibrate", ["--config", "cfg.json"], {"cfg.json": '{"principal_point": [1, 2, 3]}'},
            "InputFormatError", "cfg.json"),
        "image-size-of-three": (
            "calibrate-unsized", ["--config", "cfg.json"],
            {"cfg.json": '{"image_size": [1920, 1080, 1]}'}, "InputFormatError", "cfg.json"),
        "min-pairs-zero": (
            "calibrate", ["--config", "cfg.json", "--detections", "det.jsonl"],
            {"cfg.json": '{"min_pairs": 0}', "det.jsonl": NO_USABLE_PAIR},
            "InputFormatError", "cfg.json"),
        "scene-f-zero": (
            "synth", [], {"spec.json": '{"seed": 1, "n_vehicles": 5, "f": 0}'},
            "InputFormatError", "spec.json"),
        # a subnormal f would overflow the ground-point rays into numpy warnings
        "scene-f-subnormal": (
            "synth", [], {"spec.json": '{"seed": 1, "n_vehicles": 5, "f": 1e-310}'},
            "InputFormatError", "f must be a finite number in [1e-60, 1e+60]"),
        # vehicle 200000's noise stream would be the outlier stream
        "scene-too-many-vehicles": (
            "synth", [], {"spec.json": '{"seed": 1, "n_vehicles": 400000}'},
            "InputFormatError", "n_vehicles must be at most 333333"),
        "scene-seed-not-integer": (
            "synth", [], {"spec.json": '{"seed": 1.5, "n_vehicles": 5}'},
            "InputFormatError", "spec.json"),
        "scene-n-vehicles-infinite": (
            "synth", [], {"spec.json": '{"seed": 1, "n_vehicles": 1e999}'},
            "InputFormatError", "spec.json"),
        "scene-camera-sees-no-road": (
            "synth", [], {"spec.json": '{"seed": 1, "n_vehicles": 5, "tilt_deg": -60}'},
            "InsufficientMeasurements", "tilt_deg=-60"),
        "augment-image-size-zero": (
            "augment", [], {"aug.json": AUGMENT % '"image_size": [0, 10]'},
            "InputFormatError", "aug.json"),
        "augment-rng-seed-infinite": (
            "augment", [], {"aug.json": AUGMENT % '"image_size": [128, 128], "rng_seed": 1e999'},
            "InputFormatError", "aug.json"),
        "detections-frame-infinite": (
            "calibrate", ["--detections", "det.jsonl"],
            {"det.jsonl": '{"frame": 1e999, "box": [0, 0, 9, 9], "vp_first": [3, 0], '
                          '"vp_second": [-3, 1]}\n'},
            "InputFormatError", "line 1"),
        "heatmap-not-a-path": (
            "calibrate", ["--detections", "det.jsonl"],
            {"det.jsonl": '{"frame": 0, "box": [0, 0, 9, 9], "heatmap": 5}\n'},
            "InputFormatError", "line 1"),
        "scene-tilt-infinite": (
            "synth", [], {"spec.json": '{"seed": 1, "n_vehicles": 5, "tilt_deg": 1e999}'},
            "InputFormatError", "spec.json"),
        "scene-noise-infinite": (
            "synth", [], {"spec.json": '{"seed": 1, "n_vehicles": 5, "noise_sigma_px": 1e999}'},
            "InputFormatError", "spec.json"),
        "augment-corner-sigma-infinite": (
            "augment", [], {"aug.json": AUGMENT % '"image_size": [128, 128], "corner_sigma": 1e999'},
            "InputFormatError", "aug.json"),
        "augment-box-of-two-points": (
            "augment", [], {"aug.json": '{"image_size": [128, 128], "bbox_3d": [[1, 2], [3, 4]]}'},
            "InputFormatError", "aug.json"),
        "augment-rng-seed-negative": (
            "augment", [], {"aug.json": AUGMENT % '"image_size": [128, 128], "rng_seed": -1'},
            "InputFormatError", "aug.json"),
        "heatmap-resolution-infinite": (
            "calibrate", ["--detections", "det.jsonl"],
            {"det.jsonl": '{"frame": 0, "box": [0, 0, 9, 9], "heatmap": "obs.json"}\n',
             "obs.json": '{"magic": "DVP1", "resolution": 1e999, "scales": [0.5], "data": []}'},
            "InputFormatError", "obs.json"),
    }

    # numbers given as JSON strings or booleans, which float() would accept
    BAD_INPUTS.update({
        f"scene-{field}-{'bool' if 'true' in value or 'false' in value else 'string'}": (
            "synth", [], {"spec.json": '{"seed": 1, "n_vehicles": 5, "%s": %s}' % (field, value)},
            "InputFormatError", field)
        for field, value in [
            ("f", '"1200"'), ("f", "true"), ("tilt_deg", '"25"'), ("roll_deg", '"2"'),
            ("noise_sigma_px", '"1"'), ("outlier_fraction", "false"), ("camera_height", '"10"'),
            ("image_size", '["1920", 1080]'), ("image_size", "[1920, true]"),
        ]
    })

    # augment spec values of the wrong JSON type, which float() and int()
    # would take: rng_seed 7.9 would run as 7
    BAD_INPUTS.update({
        f"augment-{name}": ("augment", [], {"aug.json": spec}, "InputFormatError", named)
        for name, spec, named in [
            ("image-size-string", AUGMENT % '"image_size": ["128", "128"]', "image_size must"),
            ("box-row-bool", AUGMENT.replace("[20, 20]", "[20, true]") % '"image_size": [128, 128]',
             "bbox_3d row must"),
            ("corner-sigma-string", AUGMENT % '"image_size": [128, 128], "corner_sigma": "0.5"',
             "corner_sigma must"),
            ("flip-prob-bool", AUGMENT % '"image_size": [128, 128], "flip_prob": true',
             "flip_prob must"),
            ("rng-seed-fractional", AUGMENT % '"image_size": [128, 128], "rng_seed": 7.9',
             "rng_seed must"),
        ]
    })

    # specs that are not JSON objects
    BAD_INPUTS.update({
        "scene-spec-not-an-object": (
            "synth", [], {"spec.json": '"abc"'}, "InputFormatError", "must hold a JSON object"),
        "augment-spec-not-an-object": (
            "augment", [], {"aug.json": "[1, 2]"}, "InputFormatError", "must hold a JSON object"),
    })

    # JSON booleans where a count or a ratio belongs: isinstance(True, int)
    # holds and 0 < True <= 1, so each would run as 1
    BAD_INPUTS.update({
        f"config-{field}-bool": (
            "calibrate", ["--config", "cfg.json"], {"cfg.json": '{"%s": true}' % field},
            "InputFormatError", "cfg.json")
        for field in ("frame_stride", "peak_ratio", "min_pairs")
    })
    BAD_INPUTS.update({
        f"scene-{field}-bool": (
            "synth", [], {"spec.json": json.dumps({"seed": 1, "n_vehicles": 5, field: True})},
            "InputFormatError", "spec.json")
        for field in ("seed", "n_vehicles")
    })

    # detection fields of the wrong JSON type, which int() and float() would
    # take: a fractional frame would pass the stride filter as frame 10
    BAD_INPUTS.update({
        f"detections-{name}": (
            "calibrate", ["--detections", "det.jsonl"],
            {"det.jsonl": '{"frame": 0, "box": [0, 0, 9, 9], %s}\n' % fields},
            "InputFormatError", "line 1")
        for name, fields in [
            ("frame-fractional", '"frame": 10.5, "vp_first": [3, 0], "vp_second": [-3, 1]'),
            ("frame-string", '"frame": "0", "vp_first": [3, 0], "vp_second": [-3, 1]'),
            ("frame-bool", '"frame": true, "vp_first": [3, 0], "vp_second": [-3, 1]'),
            ("box-string", '"box": ["0", 0, 9, 9], "vp_first": [3, 0], "vp_second": [-3, 1]'),
            ("box-bool", '"box": [0, 0, true, 9], "vp_first": [3, 0], "vp_second": [-3, 1]'),
            ("confidence-bool", '"confidence": true, "vp_first": [3, 0], "vp_second": [-3, 1]'),
            ("confidence-string", '"confidence": "1", "vp_first": [3, 0], "vp_second": [-3, 1]'),
            ("vp-string", '"vp_first": ["3", 0], "vp_second": [-3, 1]'),
            ("vp-bool", '"vp_first": [3, 0], "vp_second": [true, 1]'),
            ("direction-string", '"vp_first_direction": ["1", 0], "vp_second": [-3, 1]'),
        ]
    })

    # evaluate's inputs with a string or a boolean where a number belongs,
    # or a fraction where a count belongs, which float() and int() would take
    BAD_INPUTS.update({
        f"measurement-{field}-{kind}": (
            "evaluate", ["--measurements", "m.json"],
            {"m.json": json.dumps([{**MEASUREMENT, field: value}])},
            "InputFormatError", f"{field} must be a ")
        for field, kind, value in [
            ("a", "string", ["1", "2"]), ("b", "bool", [True, 5]), ("distance", "string", "5"),
            ("distance", "bool", True),
        ]
    })
    BAD_INPUTS.update({
        f"calibration-{field}-{kind}": (
            "evaluate", ["--calibration", "in.json"],
            {"in.json": json.dumps({**CALIBRATION, field: value})},
            "InputFormatError", f"{field} must be a")
        for field, kind, value in [
            ("f", "string", "1000"), ("delta", "bool", True), ("n_pairs_used", "fractional", 7.9),
            ("n_pairs_rejected", "bool", False), ("principal_point", "string", ["960", 540]),
            ("horizon", "bool", [0.01, -1, True]),
        ]
    })

    # numbers so large or so small that a ratio or a product would overflow or
    # divide by zero; the suite raises numpy's RuntimeWarnings as errors
    # (pyproject.toml), so each case also shows that none is emitted
    BAD_INPUTS.update({
        f"calibration-{name}": (
            "evaluate", ["--calibration", "in.json"],
            {"in.json": json.dumps({**CALIBRATION, field: value})}, "InputFormatError", named)
        for name, field, value, named in [
            ("delta-huge", "delta", 1e300, "delta must be a finite number"),
            ("delta-subnormal", "delta", 1e-320, "delta must be a finite number"),
            ("f-huge", "f", 1e300, "f must be a finite number"),
            ("principal-point-huge", "principal_point", [1e300, 540], "magnitude <= 1e+50 px"),
            # np.linalg.norm of this normal would overflow
            ("normal-huge", "normal", [1e298, 9e299, 4e299], "magnitude <= 1e+150"),
            ("horizon-huge", "horizon", [0.01, -1, 1e151], "magnitude <= 1e+150"),
            # as_float_array's (3,) suffix also takes an (n, 3) batch
            ("normal-of-two-rows", "normal", [[0.01, -0.9, -0.4]] * 2, "got shape (2, 3)"),
            ("horizon-of-two-rows", "horizon", [[0.01, -1, 300]] * 2, "got shape (2, 3)"),
        ]
    })
    BAD_INPUTS.update({
        f"measurement-{name}": (
            "evaluate", ["--measurements", "m.json"],
            {"m.json": json.dumps([MEASUREMENT, {**MEASUREMENT, field: value}])},
            "InputFormatError", named)
        for name, field, value, named in [
            ("distance-subnormal", "distance", 1e-320, "distance must be a finite number"),
            ("endpoint-huge", "a", [1e300, 800], "magnitude <= 1e+50 px"),
        ]
    })
    BAD_INPUTS.update({
        f"scale-reference-{name}": (
            "calibrate", ["--scale-reference", reference], {}, "InputFormatError", named)
        for name, reference, named in [
            ("distance-huge", "100,900,100.0000000001,900,1e300", "distance must be a finite"),
            ("delta-huge", "100,900,100.0000000001,900,1e55", "delta must be a finite"),
            ("endpoint-huge", "1e300,900,100,900,10", "magnitude <= 1e+50 px"),
        ]
    })
    # boxes whose size or centre overflows float64: the records drop, as
    # other overflowing records do, and no warning is printed
    BAD_INPUTS.update({
        f"detections-box-{name}-{kind}": (
            "calibrate", ["--detections", "det.jsonl"],
            {"det.jsonl": "".join(json.dumps({"frame": 10 * k, "box": box, **first,
                                              "vp_second": [-0.5, 0.2]}) + "\n"
                                  for k in range(8))},
            "InsufficientPairs", "0 usable pairs")
        for name, box in [("width-overflows", [-1.7e308, 490, 1.7e308, 590]),
                          ("height-overflows", [910, -1.7e308, 1010, 1.7e308]),
                          ("centre-overflows", [1.53e308, 490, 1.7e308, 590])]
        for kind, first in [("point", {"vp_first": [0.5, 0.1]}),
                            ("direction", {"vp_first_direction": [1.0, 0.1]})]
    })
    BAD_INPUTS["scale-reference-above-the-horizon"] = (
        "calibrate", ["--scale-reference", "100,-1e6,100,900,10"], {}, "UnprojectablePoint",
        "behind the camera")
    BAD_INPUTS.update({
        "config-principal-point-huge": (
            "calibrate", ["--config", "cfg.json"], {"cfg.json": '{"principal_point": [1e300, 540]}'},
            "InputFormatError", "magnitude <= 1e+50 px"),
        "config-image-size-huge": (
            "calibrate-unsized", ["--config", "cfg.json"],
            {"cfg.json": '{"image_size": [1e300, 1080]}'}, "InputFormatError", "magnitude"),
        "image-size-flag-huge": (
            "calibrate", ["--image-size", "1e300", "1"], {}, "InputFormatError", "magnitude"),
    })

    @pytest.mark.parametrize("case", sorted(BAD_INPUTS))
    def test_bad_input(self, tmp_path, scene_dir, capsys, case):
        command, options, files, error, named = self.BAD_INPUTS[case]
        for name, text in files.items():
            (tmp_path / name).write_text(text, encoding="latin-1")
        defaults = {
            "calibrate": self._calibrate(scene_dir, tmp_path / "out.json"),
            "calibrate-unsized": self._calibrate(scene_dir, tmp_path / "out.json")[:5],
            "evaluate": ["evaluate", "--calibration", tmp_path / "cal.json", "--measurements",
                         scene_dir / "measurements.json", "--out", tmp_path / "out.json"],
            "synth": ["synth", "--spec", tmp_path / "spec.json", "--out-dir", tmp_path / "out"],
            "augment": ["augment", "--spec", tmp_path / "aug.json", "--out", tmp_path / "out.json"],
        }
        if command == "evaluate":
            assert main([str(a) for a in self._calibrate(scene_dir, tmp_path / "cal.json")]) == 0
        argv = defaults[command] + [tmp_path / o if o in files else o for o in options]
        assert named in self._fails(argv, capsys, error, tmp_path)

    def test_integral_numbers_load(self, tmp_path, scene_dir):
        # %.17g prints delta = 1.0 as 1, which JSON reads as an integer; the
        # bases of the evaluate cases above load too
        cal, measurements = tmp_path / "cal.json", tmp_path / "m.json"
        assert main([str(a) for a in self._calibrate(scene_dir, cal)]) == 0
        assert type(json.loads(cal.read_text())["delta"]) is int
        evaluate = ["evaluate", "--calibration", cal, "--measurements", measurements,
                    "--out", tmp_path / "report.json"]
        measurements.write_text(json.dumps([MEASUREMENT, {**MEASUREMENT, "b": [900, 1000]}]))
        assert main([str(a) for a in evaluate]) == 0
        cal.write_text(json.dumps(CALIBRATION))
        assert main([str(a) for a in evaluate]) == 0

    @pytest.mark.parametrize("reference", ["a,b,c,d,e", "1,2,1,2,5"])
    def test_bad_scale_reference(self, tmp_path, scene_dir, capsys, reference):
        argv = self._calibrate(scene_dir, tmp_path / "cal.json", "--scale-reference", reference)
        self._fails(argv, capsys, "InputFormatError", tmp_path)

    @pytest.mark.parametrize("target", ["missing/cal.json", "scene"])
    def test_unwritable_calibrate_out(self, tmp_path, scene_dir, capsys, target):
        out = tmp_path / target
        message = self._fails(self._calibrate(scene_dir, out), capsys, "OutputError", tmp_path)
        assert str(out) in message

    def test_unwritable_evaluate_out(self, tmp_path, scene_dir, capsys):
        cal = tmp_path / "cal.json"
        assert main([str(a) for a in self._calibrate(scene_dir, cal)]) == 0
        out = tmp_path / "missing" / "report.json"
        argv = ["evaluate", "--calibration", cal,
                "--measurements", scene_dir / "measurements.json", "--out", out]
        assert str(out) in self._fails(argv, capsys, "OutputError", tmp_path)

    @pytest.mark.parametrize("target", ["scene.json", "scene.json/sub"])
    def test_unwritable_synth_out_dir(self, tmp_path, scene_dir, capsys, target):
        out_dir = tmp_path / target
        argv = ["synth", "--spec", tmp_path / "scene.json", "--out-dir", out_dir]
        assert str(out_dir) in self._fails(argv, capsys, "OutputError", tmp_path)

    @pytest.mark.parametrize("spec", [
        '{"f": 1e55}', '{"noise_sigma_px": 1e300}',
        '{"image_size": [1e308, 1e308], "outlier_fraction": 0.5}',
    ])
    def test_synth_spec_beyond_max_coordinate(self, tmp_path, capsys, spec):
        # vanishing points past calibration.MAX_COORDINATE: an input error, not a traceback
        path = tmp_path / "scene.json"
        path.write_text(spec[:-1] + ', "seed": 1, "n_vehicles": 5}')
        argv = ["synth", "--spec", path, "--out-dir", tmp_path / "out"]
        assert "magnitude <= 1e+50 px" in self._fails(argv, capsys, "InputFormatError", tmp_path)

    @pytest.mark.parametrize("existing", [False, True])
    def test_synth_writes_all_files_or_none(self, tmp_path, scene_dir, capsys, existing):
        # the last of the three targets cannot be replaced: neither may the other two be
        out_dir = scene_dir if existing else tmp_path / "fresh"
        (out_dir / "ground_truth.json").unlink(missing_ok=True)
        (out_dir / "ground_truth.json").mkdir(parents=True)
        names = ("detections.jsonl", "measurements.json")
        for name in names if existing else ():
            (out_dir / name).write_text(f"an older {name}\n")
        before = {name: (out_dir / name).read_bytes() for name in names if existing}
        argv = ["synth", "--spec", tmp_path / "scene.json", "--out-dir", out_dir]
        assert "ground_truth.json" in self._fails(argv, capsys, "OutputError", tmp_path)
        assert {name: (out_dir / name).read_bytes() for name in names if existing} == before
        assert all((out_dir / name).exists() == existing for name in names)


class TestAugmentCommand:
    def test_identity_spec(self, tmp_path):
        spec = tmp_path / "aug.json"
        spec.write_text(
            json.dumps(
                {
                    "image_size": [128, 128],
                    "bbox_3d": [[20, 20], [100, 20], [100, 90], [20, 90],
                                 [25, 30], [95, 30], [95, 100], [25, 100]],
                    "corner_sigma": 0.0,
                    "bbox_jitter": 0.0,
                    "flip_prob": 0.0,
                    "rng_seed": 5,
                }
            )
        )
        out = tmp_path / "aug_out.json"
        assert main(["augment", "--spec", str(spec), "--out", str(out)]) == 0
        result = json.loads(out.read_text())
        np.testing.assert_array_equal(result["homography"], np.eye(3))
        assert result["flipped"] is False
        assert result["bbox"] == [20.0, 20.0, 100.0, 100.0]

    def test_seeded_spec_deterministic(self, tmp_path):
        spec = tmp_path / "aug.json"
        spec.write_text(
            json.dumps(
                {
                    "image_size": [128, 128],
                    "bbox_3d": [[20, 20], [100, 20], [100, 90], [20, 90],
                                 [25, 30], [95, 30], [95, 100], [25, 100]],
                    "rng_seed": 11,
                }
            )
        )
        out1, out2 = tmp_path / "o1.json", tmp_path / "o2.json"
        assert main(["augment", "--spec", str(spec), "--out", str(out1)]) == 0
        assert main(["augment", "--spec", str(spec), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
