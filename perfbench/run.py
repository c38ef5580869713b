#!/usr/bin/env python3
"""Benchmark of the detections -> calibration path of vpcalib.

    python3 perfbench/run.py --workload heatmap-video --seed 1 --seconds 20 --trace 0

Builds the workload's inputs from the seed (in fresh processes, timed as
``setup_s``), then repeats full passes of ``vpcalib synth``, the codec's write
side, ``vpcalib calibrate`` and ``vpcalib evaluate`` (in-process, through
``vpcalib.cli.main``) for ``--seconds``, checking every output. With
``--trace 1`` it instead runs one untraced and one traced pass per round
plus one ``--parallel`` pass, and reports per-layer numbers from spans.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A fuller record
(machine, inputs, samples, extra accuracy figures, failures) is written to
``--out-dir``; traced runs also write their spans there. The exit code is 0
only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUPS = 3  # set-ups per run; setup_s is their median


def _require_sources() -> None:
    """The benchmark builds the program from the checkout it sits in."""
    if not (SRC / "vpcalib" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no vpcalib sources at {SRC}; run from a full checkout\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))


def load_spec() -> dict:
    """BENCHMARK.json: the workloads, their `why` and every metric's unit."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(spec: dict, argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "toy"), default="full",
                   help="toy shrinks every input for the harness's own tests")
    p.add_argument("--out-dir", type=Path, default=ROOT / ".perfbench_out")
    return p.parse_args(argv)


def main(argv=None) -> int:
    _require_sources()
    spec = load_spec()
    args = parse_args(spec, argv)
    work = ROOT / ".perfbench_work" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    try:
        setup_times = [_timed_setup(args, work) for _ in range(1 if args.trace else SETUPS)]
        _flush(work)
        from bench import Bench
        from workloads import get_workload

        bench = Bench(get_workload(args.workload, args.size), args.seed, work)
        if args.trace:
            metrics = bench.traced(args.seconds)
        else:
            metrics = bench.measure(args.seconds)
            metrics["setup_s"] = statistics.median(setup_times)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
        result = {
            "correct": not bench.failures,
            "attempted": bench.attempted,
            "failed": bench.failed_ops,
            # a run whose checks failed may lack a number; JSON has no NaN
            "metrics": {k: {"value": metrics[k] if math.isfinite(metrics[k]) else None, "unit": u}
                        for k, u in units.items()},
        }
        why = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)
        _write_record(args, why, bench, result, setup_times)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, m in result["metrics"].items():
        print(f"{name:32s} {m['value']} {m['unit']}")
    for problem in bench.failures[:20]:
        print(f"FAILED: {problem}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _timed_setup(args, work: Path) -> float:
    """Import plus input building in a fresh interpreter, wall-clock seconds."""
    shutil.rmtree(work, ignore_errors=True)
    cmd = [sys.executable, str(HERE / "build_inputs.py"), args.workload, str(args.seed), args.size, str(work)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: building the {args.workload} inputs failed")
    return elapsed


def _flush(work: Path) -> None:
    """Write the input files to disk before anything is timed.

    The heatmap inputs are ~200 MB; left dirty, the kernel writes them back
    some 30 s later, in the middle of the timed passes.
    """
    for path in work.rglob("*"):
        if path.is_file():
            fd = os.open(path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


def machine_info() -> dict:
    import numpy

    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def _write_record(args, why: str, bench, result, setup_times) -> None:
    args.out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "why": why,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "size": args.size,
        "machine": machine_info(),
        "inputs": bench.input_sizes(),
        **result,
        "failed_frac": result["failed"] / result["attempted"],
        "extra": bench.extra,
        "samples": {"setup_s": setup_times, **bench.samples},
        "failures": bench.failures,
    }
    if args.trace:
        spans_path = args.out_dir / f"{stem}.spans.jsonl"
        bench.tracer.write(spans_path)
        record["spans_file"] = spans_path.name
        record["layer_self_s"] = bench.layer_self_s
    (args.out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    raise SystemExit(main())
