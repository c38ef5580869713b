"""Workload definitions and the seeded generators of their inputs.

Every workload is one synthetic scene seen by the same camera (the
``SceneSpec`` defaults: f = 1200 px, tilt 25 deg, roll 2 deg, 1920x1080). The
seed only changes which vehicles and measurements are sampled, so the
per-vehicle accuracy numbers are comparable across seeds.

Inputs are built from the program's own public entry points: ``vpcalib synth``
writes the scene, and the heatmap workloads re-encode its per-vehicle
vanishing points as DVP files (the binary heatmap format) referenced from a
detections file. The program under test only ever sees these files.
"""

from __future__ import annotations

import contextlib
import io
import json
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from vpcalib.cli import main as cli_main
from vpcalib.errors import AllScalesDegenerate
from vpcalib.heatmap import BBox, HeatmapCodec, select_vp
from vpcalib.heatmap_io import write_heatmap_file

FRAME_STRIDE = 10  # the PipelineConfig video policy

# The shape of the "detector" DVP files. Every rate below is an ASSUMPTION
# chosen to exercise the data-dependent paths of decode and filter (several
# near-max cells, empty scales, top-k on crowded frames, static suppression);
# none is measured on a real detector's output or taken from the paper. Derive
# them again once real detector DVP files are available.
DETECTOR_SIGMA = 2.0  # peak width in cells (the exact workload uses 1)
DETECTOR_NOISE = (-0.02, 0.06)  # additive uniform noise on every cell
DETECTOR_GHOST_FRAC = 0.2  # channels with a secondary peak
DETECTOR_GHOST_AMPLITUDE = (0.5, 0.95)  # of the true peak
DETECTOR_EMPTY_SCALE_FRAC = 0.1  # scales zeroed per channel
DETECTOR_EMPTY_RECORD_FRAC = 0.01  # records with every scale zeroed
DETECTOR_BOX_SPREAD = 4  # boxes per frame drawn from [boxes - 4, boxes + 4)
DETECTOR_PARKED_PER_FRAME = 1 / 20  # parked vehicles per sampled frame


@dataclass(frozen=True)
class Workload:
    name: str
    scene: dict  # SceneSpec fields, without the seed
    config: dict  # PipelineConfig overrides written to config.json
    heatmap: str | None  # None (inline VPs), "exact" or "detector"
    frames: int = 0  # sampled frames of the heatmap route
    boxes: int = 0  # boxes per sampled frame (mean, for "detector")
    encode_batch: int = 200  # VP pairs encoded by the full pass
    roundtrip: int = 16  # of those, pairs read back and decoded as a check
    # output-check tolerances of the calibration against the oracle
    f_tol_pct: float = 1.0
    normal_tol_deg: float = 1.0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="heatmap-video",
            scene={"n_vehicles": 1500, "n_measurements": 10},
            config={},
            heatmap="exact",
            frames=150,
            boxes=10,
            f_tol_pct=6.0,
            normal_tol_deg=1.5,
        ),
        Workload(
            name="heatmap-detector",
            scene={
                "n_vehicles": 1500,
                "n_measurements": 10,
                "noise_sigma_px": 2.0,
                "outlier_fraction": 0.1,
            },
            config={},
            heatmap="detector",
            frames=150,
            boxes=11,
            f_tol_pct=10.0,
            normal_tol_deg=3.0,
        ),
        Workload(
            name="inline-scene",
            scene={
                "n_vehicles": 10000,
                "n_measurements": 300,
                "noise_sigma_px": 2.0,
                "outlier_fraction": 0.1,
            },
            # synth writes frame = 10 k, so the video frame cap would keep 150
            config={"max_frames": 100000},
            heatmap=None,
            f_tol_pct=0.5,
            normal_tol_deg=0.2,
        ),
    )
}

# Toy sizes for the harness's own tests: same code paths, seconds not minutes.
TOY = {
    "heatmap-video": {"scene": {"n_vehicles": 40}, "frames": 8, "boxes": 5},
    "heatmap-detector": {"scene": {"n_vehicles": 80}, "frames": 8, "boxes": 8},
    "inline-scene": {"scene": {"n_vehicles": 200, "n_measurements": 12}},
}


def get_workload(name: str, size: str = "full") -> Workload:
    w = WORKLOADS[name]
    if size == "full":
        return w
    toy = TOY[name]
    fields = dict(w.__dict__)
    fields.update({k: v for k, v in toy.items() if k != "scene"})
    fields["scene"] = {**w.scene, **toy["scene"]}
    fields.update(encode_batch=20, roundtrip=4)
    return Workload(**fields)


def scene_spec(workload: Workload, seed: int) -> dict:
    return {"seed": int(seed), **workload.scene}


def run_cli(argv) -> tuple[int, str]:
    """``vpcalib`` in-process; returns (exit code, captured stderr).

    An exception escaping the CLI ends the run like it ends the ``vpcalib``
    process: exit code 1 and the traceback on stderr.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main([str(a) for a in argv])
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # counted as a failed operation, like a crashed process
            traceback.print_exc()
            code = 1
    return code, err.getvalue()


def read_jsonl(path) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]


def box_vp(record: dict, which: str) -> np.ndarray:
    """Homogeneous box-coordinate VP of a synth record (w = 0 at infinity)."""
    if f"vp_{which}" in record:
        return np.array([*record[f"vp_{which}"], 1.0])
    return np.array([*record[f"vp_{which}_direction"], 0.0])


def build_inputs(workload: Workload, seed: int, work: Path) -> dict:
    """Write every input file of one workload into ``work``; return a manifest."""
    work.mkdir(parents=True, exist_ok=True)
    spec = scene_spec(workload, seed)
    (work / "scene.json").write_text(json.dumps(spec))
    (work / "config.json").write_text(json.dumps(workload.config))
    manifest = {"workload": workload.name, "seed": int(seed), "scene": spec}
    if workload.heatmap is None:
        return manifest

    code, err = run_cli(["synth", "--spec", work / "scene.json", "--out-dir", work / "synth"])
    if code != 0:
        raise RuntimeError(f"synth failed while building inputs: {err}")
    vehicles = read_jsonl(work / "synth" / "detections.jsonl")
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 7)))
    layout = _frame_layout(workload, rng, len(vehicles))
    maps_dir = work / "maps"
    maps_dir.mkdir(exist_ok=True)
    exact = HeatmapCodec()
    broad = HeatmapCodec(sigma=DETECTOR_SIGMA)
    truth = {}
    left_out = set()
    for k in sorted({k for _, ks in layout for k in ks}):
        first, second = box_vp(vehicles[k], "first"), box_vp(vehicles[k], "second")
        name = f"v{k:05d}.dvp"
        if workload.heatmap == "exact":
            channel_maps = exact.encode_pair(first, second)
        else:
            channel_maps = _detector_maps(broad, rng, first, second)
        if _decodes_to_one_point(channel_maps, BBox(*vehicles[k]["box"])):
            left_out.add(k)
            continue
        write_heatmap_file(maps_dir / name, channel_maps)
        truth[name] = [first.tolist(), second.tolist()]

    lines = []
    for frame, ks in layout:
        for k in ks:
            if k in left_out:
                continue
            record = {
                "frame": frame,
                "box": vehicles[k]["box"],
                "confidence": round(float(rng.uniform(0.3, 1.0)), 6),
                "heatmap": f"maps/v{k:05d}.dvp",
            }
            lines.append(json.dumps(record))
    (work / "detections.jsonl").write_text("\n".join(lines) + "\n")
    (work / "truth.json").write_text(json.dumps(truth))
    manifest.update(
        records=len(lines),
        dvp_files=len(truth),
        dvp_bytes=sum(p.stat().st_size for p in maps_dir.iterdir()),
        left_out_one_point=len(left_out),
    )
    return manifest


def _decodes_to_one_point(channel_maps, box: BBox) -> bool:
    """Whether both channels decode to the same finite point.

    ``vpcalib calibrate`` ends in a traceback on such a record: the heatmap
    route of ``pipeline._decode_record`` does not catch the ``ValueError``
    of ``VPPair`` for coincident points, which the inline route catches.
    Until the program skips these records, the workloads leave them out
    and the manifest counts them (``left_out_one_point``). Outlier VPs of
    a small, distant box are the usual cause: both land in one grid cell.

    Both channels decode to one point only if, at some scale, both grids
    peak at the same cell; only then is the program's decode run.
    """
    shared = any(
        a.values.max() > 0 and b.values.max() > 0 and a.values.argmax() == b.values.argmax()
        for a, b in zip(*channel_maps)
    )
    if not shared:
        return False
    try:
        first, second = (select_vp(maps, box) for maps in channel_maps)
    except AllScalesDegenerate:
        return False
    return (not first.direction_only and not second.direction_only
            and bool(np.allclose(first.point, second.point)))


def _frame_layout(workload: Workload, rng, n_vehicles: int) -> list[tuple[int, list[int]]]:
    """(frame, vehicle indices) in frame order.

    "exact": ``boxes`` distinct vehicles on every sampled frame. "detector":
    a varying box count (some frames above the top-k limit), a few parked
    vehicles repeating the same box over consecutive sampled frames, and a
    few off-stride frames that the stride filter drops.
    """
    if workload.heatmap == "exact":
        return [
            (FRAME_STRIDE * f, list(range(f * workload.boxes, (f + 1) * workload.boxes)))
            for f in range(workload.frames)
        ]
    n_parked = max(1, int(workload.frames * DETECTOR_PARKED_PER_FRAME))
    parked = {}
    for p in range(n_parked):
        length = int(rng.integers(4, max(5, workload.frames // 4)))
        start = int(rng.integers(0, max(1, workload.frames - length)))
        parked[p] = range(start, start + length)
    next_vehicle = n_parked
    layout = []
    for f in range(workload.frames):
        count = int(rng.integers(workload.boxes - DETECTOR_BOX_SPREAD,
                                 workload.boxes + DETECTOR_BOX_SPREAD))
        ks = [p for p, frames in parked.items() if f in frames]
        while len(ks) < count and next_vehicle < n_vehicles:
            ks.append(next_vehicle)
            next_vehicle += 1
        layout.append((FRAME_STRIDE * f, ks))
        if f % 10 == 5 and ks:
            layout.append((FRAME_STRIDE * f + FRAME_STRIDE // 2, ks[:3]))
    return layout


def _detector_maps(codec: HeatmapCodec, rng, first, second):
    """Broad peaks plus noise, secondary peaks, empty scales, all-empty records."""
    all_empty = rng.random() < DETECTOR_EMPTY_RECORD_FRAC
    channels = []
    for vp in (first, second):
        maps = codec.encode(vp)
        if rng.random() < DETECTOR_GHOST_FRAC:
            ghost = codec.encode(rng.uniform(-3.0, 3.0, 2))
            amplitude = rng.uniform(*DETECTOR_GHOST_AMPLITUDE)
            for h, g in zip(maps, ghost):
                h.values = np.maximum(h.values, amplitude * g.values)
        for h in maps:
            h.values = h.values + rng.uniform(*DETECTOR_NOISE, h.values.shape)
        empty = rng.random(len(maps)) < DETECTOR_EMPTY_SCALE_FRAC
        if all_empty:
            empty[:] = True
        elif empty.all():
            empty[-1] = False
        for h, e in zip(maps, empty):
            if e:
                h.values = np.zeros_like(h.values)
        channels.append(maps)
    return channels
