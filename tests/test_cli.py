import json

import numpy as np
import pytest

from vpcalib.calibration import CameraCalibration
from vpcalib.cli import main
from vpcalib.evaluation import DistanceMeasurement, measured_distance
from vpcalib.heatmap import HeatmapCodec, bbox_normalize
from vpcalib.heatmap_io import write_heatmap_file
from vpcalib.synthetic import SceneSpec, generate_observations

SCENE = {"seed": 202, "n_vehicles": 20, "f": 1100.0, "tilt_deg": 22.0, "roll_deg": 1.5}


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
    def _heatmap_detections(tmp_path, damage=None):
        codec = HeatmapCodec()
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

    def test_heatmap_payloads_end_to_end(self, tmp_path):
        spec = SceneSpec(seed=2, n_vehicles=30)
        observations, _, truth = generate_observations(spec)
        codec = HeatmapCodec()
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
        cal = json.loads(out.read_text())
        # grid quantization limits the heatmap route; same order as real-data errors
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
