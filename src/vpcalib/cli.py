"""Command-line interface.

Subcommands:
    calibrate  detections (JSON lines) -> calibration JSON
    evaluate   calibration + measurements -> ratio-error report
    synth      synthetic scene spec -> detections/measurements/ground truth
    augment    augmentation spec -> homography + warped box

Failures print a machine-readable ``{"error": ..., "message": ...}`` object
to stderr and exit nonzero; output files are only written on success, each
whole or not at all, and ``synth``'s three files all or none.
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
from ._validation import as_float_array, check_image_size
from .errors import OutputError, VPCalibError, reading
from .evaluation import DistanceMeasurement, measured_distance
from .heatmap import frame_to_box
from .pipeline import (
    PipelineConfig,
    format_json,
    format_rows,
    report_table,
    run_calibration,
    run_evaluation,
)
from .synthetic import (
    AugmentationParams,
    SceneSpec,
    SyntheticObservations,
    augment,
    generate_observations,
)


def _load_config(path) -> PipelineConfig:
    return PipelineConfig.from_file(path) if path else PipelineConfig()


def _write(texts: dict) -> None:
    """Write each ``{path: text}`` item whole, and all of them or none.

    Every text first goes to a temporary file beside its target. Only once
    all are written do they replace their targets, in order; the old file
    of each target but the last is set aside until the last is in place. A
    failure removes the temporary files, puts the set-aside files back, and
    raises :class:`OutputError`.
    """
    staged = [(Path(path), text) for path, text in texts.items()]
    tmp = {path: path.parent / f".{path.name}.{os.getpid()}.tmp" for path, _ in staged}
    aside = {
        path: path.parent / f".{path.name}.{os.getpid()}.old"
        for path, _ in staged[:-1]
        if os.path.isfile(path) or os.path.islink(path)
    }
    moved, placed = [], []
    target = None
    try:
        for target, text in staged:
            tmp[target].write_text(text)
        for target, _ in staged:
            if target in aside:
                os.replace(target, aside[target])
                moved.append(target)
            os.replace(tmp[target], target)
            placed.append(target)
    except OSError as exc:
        for path in placed:
            if path not in aside:
                with contextlib.suppress(OSError):
                    path.unlink()
        for path in moved:
            with contextlib.suppress(OSError):
                os.replace(aside[path], path)
        for path in tmp.values():
            with contextlib.suppress(OSError):
                path.unlink()
        raise OutputError(f"cannot write {target}: {exc}") from exc
    for path in aside.values():
        with contextlib.suppress(OSError):
            path.unlink()


def _parse_scale_reference(text: str) -> DistanceMeasurement:
    with reading("--scale-reference (ax,ay,bx,by,meters with distinct points)"):
        ax, ay, bx, by, meters = (float(v) for v in text.split(","))
        return DistanceMeasurement(a=[ax, ay], b=[bx, by], ground_truth=meters)


def cmd_calibrate(args) -> int:
    config = _load_config(args.config)
    if args.parallel:
        config = dataclasses.replace(config, parallel=True)
    if args.image_size:
        with reading("--image-size"):
            config = dataclasses.replace(config, image_size=tuple(args.image_size))
    reference = _parse_scale_reference(args.scale_reference) if args.scale_reference else None
    result = run_calibration(args.detections, config)
    if reference is not None:
        calibration = CameraCalibration.from_dict(result)
        delta = reference.ground_truth / measured_distance(reference, calibration)
        with reading("--scale-reference"):
            result["delta"] = dataclasses.replace(calibration, delta=delta).delta
    _write({args.out: format_json(result)})
    return 0


def cmd_evaluate(args) -> int:
    config = _load_config(args.config)
    report = run_evaluation(args.calibration, args.measurements, config)
    _write({args.out: format_json(report)})
    print(report_table(report))
    return 0


def _detections_text(observations: SyntheticObservations) -> str:
    """A scene's detections file: one record per vehicle, frame 10 k for vehicle k.

    Vanishing points are in box coordinates, directions scaled to unit
    length; the records are printed by column with :func:`format_rows`.
    """
    n = len(observations)
    pairs = observations.pairs
    # 1e-4 lower per vehicle, and 0 from vehicle 10,000 on
    confidence = np.maximum(1.0 - 1e-4 * np.arange(n), 0.0)
    columns = [10 * np.arange(n), *observations.boxes.T, confidence]
    for name, end, is_direction in (("vp_first", pairs.first, pairs.first_is_direction),
                                    ("vp_second", pairs.second, pairs.second_is_direction)):
        value = frame_to_box(end, is_direction, observations.boxes)
        columns += [np.where(is_direction, name + "_direction", name), *value.T]
    template = '{{"frame": {}, "box": [{}, {}, {}, {}], "confidence": {}, ' \
        '"{}": [{}, {}], "{}": [{}, {}]}}'
    return format_rows(template, columns, "\n") + "\n"


def cmd_synth(args) -> int:
    with reading(f"scene spec {args.spec}"):
        spec = SceneSpec.from_json(Path(args.spec).read_text())
    observations, measurements, truth = generate_observations(spec, parallel=args.parallel)
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
    _write({
        out_dir / "detections.jsonl": _detections_text(observations),
        out_dir / "measurements.json": format_json(measurement_items),
        out_dir / "ground_truth.json": format_json(truth_out),
    })
    return 0


def cmd_augment(args) -> int:
    with reading(f"augment spec {args.spec}"):
        data = json.loads(Path(args.spec).read_text())
        if not isinstance(data, dict):
            raise ValueError("an augment spec must hold a JSON object")
        image_size = check_image_size(data["image_size"])
        rows = [as_float_array(row, "bbox_3d row") for row in data["bbox_3d"]]
        box_points = as_float_array(rows, "bbox_3d", (8, 2))
        params = AugmentationParams(**{field.name: data[field.name]
                                       for field in dataclasses.fields(AugmentationParams)
                                       if field.name in data})
    H, box, flipped = augment(image_size, box_points, params)
    result = {
        "homography": H.tolist(),
        "bbox": list(box.as_tuple()),
        "flipped": flipped,
    }
    _write({args.out: format_json(result)})
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
