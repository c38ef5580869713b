"""Command-line interface.

Subcommands:
    calibrate  detections (JSON lines) -> calibration JSON
    evaluate   calibration + measurements -> ratio-error report
    synth      synthetic scene spec -> detections/measurements/ground truth
    augment    augmentation spec -> homography + warped box

Failures print a machine-readable ``{"error": ..., "message": ...}`` object
to stderr and exit nonzero; output files are only written on success, each
whole or not at all.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from .calibration import CameraCalibration
from .errors import InputFormatError, OutputError, VPCalibError
from .evaluation import DistanceMeasurement, measured_distance
from .heatmap import bbox_normalize, bbox_normalize_direction
from .pipeline import (
    PipelineConfig,
    format_json,
    report_table,
    run_calibration,
    run_evaluation,
)
from .synthetic import AugmentationParams, SceneSpec, augment, generate_observations


def _load_config(path) -> PipelineConfig:
    return PipelineConfig.from_file(path) if path else PipelineConfig()


def _write(path, text: str) -> None:
    """Write ``text`` to ``path`` whole or not at all.

    The text goes to a temporary file in the target directory, which then
    replaces ``path``; a failure removes it and raises :class:`OutputError`.
    """
    path = Path(path)
    tmp = path.parent / f".{path.name}.{os.getpid()}.tmp"
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise OutputError(f"cannot write {path}: {exc}") from exc


def _parse_scale_reference(text: str) -> DistanceMeasurement:
    try:
        ax, ay, bx, by, meters = (float(v) for v in text.split(","))
        return DistanceMeasurement(a=[ax, ay], b=[bx, by], ground_truth=meters)
    except ValueError as exc:
        raise InputFormatError(
            f"--scale-reference expects 'ax,ay,bx,by,meters' with distinct points: {exc}"
        ) from exc


def cmd_calibrate(args) -> int:
    config = _load_config(args.config)
    if args.parallel:
        config = dataclasses.replace(config, parallel=True)
    image_size = tuple(args.image_size) if args.image_size else None
    reference = _parse_scale_reference(args.scale_reference) if args.scale_reference else None
    result = run_calibration(args.detections, config, image_size)
    if reference is not None:
        calibration = CameraCalibration.from_dict(result)
        result["delta"] = reference.ground_truth / measured_distance(reference, calibration)
    _write(args.out, format_json(result))
    return 0


def cmd_evaluate(args) -> int:
    config = _load_config(args.config)
    report = run_evaluation(args.calibration, args.measurements, config)
    _write(args.out, format_json(report))
    print(report_table(report))
    return 0


def cmd_synth(args) -> int:
    try:
        spec = SceneSpec.from_json(Path(args.spec).read_text())
    except (OSError, json.JSONDecodeError, TypeError, ValueError) as exc:
        raise InputFormatError(f"cannot read scene spec {args.spec}: {exc}") from exc
    observations, measurements, truth = generate_observations(spec, parallel=args.parallel)

    lines = []
    for k, obs in enumerate(observations):
        record = {
            "frame": obs.frame_index * 10,
            "box": list(obs.box.as_tuple()),
            "confidence": 1.0 - 1e-4 * k,
        }
        pair = obs.pair
        if pair.first_is_direction:
            d = bbox_normalize_direction(pair.first, obs.box)
            record["vp_first_direction"] = (d / np.linalg.norm(d)).tolist()
        else:
            record["vp_first"] = bbox_normalize(pair.first, obs.box).tolist()
        if pair.second_is_direction:
            d = bbox_normalize_direction(pair.second, obs.box)
            record["vp_second_direction"] = (d / np.linalg.norm(d)).tolist()
        else:
            record["vp_second"] = bbox_normalize(pair.second, obs.box).tolist()
        lines.append(format_json(record).rstrip("\n"))

    measurement_items = [
        {"a": m.a.tolist(), "b": m.b.tolist(), "distance": m.ground_truth}
        for m in measurements
    ]
    truth_out = truth.to_dict()
    truth_out["scene_spec"] = spec.to_dict()

    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OutputError(f"cannot create {out_dir}: {exc}") from exc
    _write(out_dir / "detections.jsonl", "\n".join(lines) + "\n")
    _write(out_dir / "measurements.json", format_json(measurement_items))
    _write(out_dir / "ground_truth.json", format_json(truth_out))
    return 0


def cmd_augment(args) -> int:
    try:
        data = json.loads(Path(args.spec).read_text())
        image_size = tuple(data["image_size"])
        box_points = data["bbox_3d"]
        params = AugmentationParams(
            corner_sigma=float(data.get("corner_sigma", 12.5)),
            bbox_jitter=float(data.get("bbox_jitter", 5.0)),
            flip_prob=float(data.get("flip_prob", 0.5)),
            rng_seed=int(data.get("rng_seed", 0)),
        )
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"cannot read augment spec {args.spec}: {exc}") from exc
    H, box, flipped = augment(image_size, box_points, params)
    result = {
        "homography": H.tolist(),
        "bbox": list(box.as_tuple()),
        "flipped": flipped,
    }
    _write(args.out, format_json(result))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vpcalib",
        description="Traffic camera calibration from vehicle vanishing points.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", help="estimate camera geometry from detections")
    p.add_argument("--detections", required=True, help="JSON-lines detections file")
    p.add_argument("--out", required=True, help="output calibration JSON")
    p.add_argument("--config", help="pipeline config JSON")
    p.add_argument(
        "--image-size", type=float, nargs=2, metavar=("W", "H"),
        help="frame size in pixels (principal point defaults to the centre)",
    )
    p.add_argument(
        "--scale-reference",
        help="ax,ay,bx,by,meters: set the plane scale from one known distance",
    )
    p.add_argument(
        "--parallel", action="store_true", help="accepted for compatibility; has no effect"
    )
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("evaluate", help="score a calibration against tape measurements")
    p.add_argument("--calibration", required=True)
    p.add_argument("--measurements", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="pipeline config JSON")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("synth", help="generate a synthetic scene")
    p.add_argument("--spec", required=True, help="scene spec JSON")
    p.add_argument("--out-dir", required=True)
    p.add_argument(
        "--parallel", action="store_true", help="accepted for compatibility; has no effect"
    )
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("augment", help="sample one training augmentation transform")
    p.add_argument("--spec", required=True, help="augmentation spec JSON")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_augment)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except VPCalibError as exc:
        sys.stderr.write(
            format_json({"error": type(exc).__name__, "message": str(exc)})
        )
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
