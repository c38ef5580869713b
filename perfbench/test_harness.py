"""Toy-size smoke test of the benchmark harness.

    python -m pytest perfbench/test_harness.py

Every workload runs in both modes at toy size; the printed metrics must be
exactly the ones ``BENCHMARK.json`` declares, with its units. A calibration
file corrupted after ``vpcalib calibrate`` wrote it must make the run fail.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import run

run._require_sources()
BENCHMARK = run.load_spec()


def _run(capsys, tmp_path, workload, trace, seed=3):
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0.5",
                     "--trace", str(trace), "--size", "toy",
                     "--out-dir", str(tmp_path)])
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(capsys, tmp_path, workload, trace):
    code, result = _run(capsys, tmp_path, workload, trace)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and m["value"] == m["value"], name
    record = json.loads((tmp_path / f"{workload}-seed3-trace{trace}.json").read_text())
    assert {"nproc", "cpu_model", "python", "numpy"} <= set(record["machine"])
    assert record["seed"] == 3 and record["inputs"]["scene"]["seed"] == 3


def test_same_seed_gives_the_same_inputs(tmp_path):
    from workloads import build_inputs, get_workload

    w = get_workload("heatmap-detector", "toy")
    a, b = build_inputs(w, 5, tmp_path / "a"), build_inputs(w, 5, tmp_path / "b")
    assert a == b
    for name in ("detections.jsonl", "truth.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert build_inputs(w, 6, tmp_path / "c") != a


def test_check_rejects_a_corrupted_calibration(tmp_path):
    from checks import check_calibration, oracle
    from workloads import get_workload

    w = get_workload("inline-scene", "toy")
    truth = oracle({"seed": 1, **w.scene})
    good = {"f": truth["f"], "normal": list(truth["normal"])}
    path = tmp_path / "calibration.json"
    path.write_text(json.dumps(good))
    assert check_calibration(path, truth, w, path.read_bytes()) == []

    path.write_text(json.dumps({**good, "f": truth["f"] * 1.2}))
    assert any("f off by" in p for p in check_calibration(path, truth, w, None))
    path.write_text("{\"f\": ")
    assert check_calibration(path, truth, w, None)


def test_corrupted_calibration_fails_the_run(capsys, tmp_path, monkeypatch):
    import vpcalib.cli as cli

    real = cli.cmd_calibrate

    def corrupting(args):
        code = real(args)
        out = Path(args.out)
        out.write_text(out.read_text().replace('"f": 1', '"f": 2', 1))
        return code

    monkeypatch.setattr(cli, "cmd_calibrate", corrupting)
    code, result = _run(capsys, tmp_path, "heatmap-video", 0)
    assert code == 1
    assert not result["correct"] and result["failed"] >= 1
    record = json.loads((tmp_path / "heatmap-video-seed3-trace0.json").read_text())
    assert any("f off by" in p for p in record["failures"])


def test_a_cli_exception_counts_as_a_failed_operation(capsys, tmp_path, monkeypatch):
    import vpcalib.cli as cli

    def crashing(args):
        raise ValueError("vanishing points of a pair must be distinct")

    monkeypatch.setattr(cli, "cmd_calibrate", crashing)
    code, result = _run(capsys, tmp_path, "inline-scene", 0)
    assert code == 1 and not result["correct"] and result["failed"] >= 1
    record = json.loads((tmp_path / "inline-scene-seed3-trace0.json").read_text())
    assert any("ValueError: vanishing points" in p for p in record["failures"])


def test_records_that_decode_to_one_point_are_recognised():
    import numpy as np
    from vpcalib.heatmap import BBox, HeatmapCodec
    from workloads import _decodes_to_one_point

    codec, box = HeatmapCodec(), BBox(100.0, 100.0, 140.0, 130.0)
    vp = np.array([40.0, -25.0, 1.0])
    assert _decodes_to_one_point(codec.encode_pair(vp, vp + [0.01, 0.0, 0.0]), box)
    assert not _decodes_to_one_point(codec.encode_pair(vp, np.array([-3.0, 0.5, 1.0])), box)
