"""Iterations of one workload: timed phases, output checks, metrics.

A measured run repeats full passes of the workload for ``--seconds`` (at
least ``MIN_PASSES``): the scene through ``vpcalib synth``, the codec's write
side, ``vpcalib calibrate`` and ``vpcalib evaluate``, every output checked
against the oracle and the first pass's bytes. A phase shorter than
``REPEAT_S`` (the codec batch, ``evaluate`` of 10 measurements) is called
again within the pass until its calls took that long, and its time is their
median. Each throughput is the phase's full-size work over its scaled time
in the fastest pass: the time, net of the probe's, times ``PROBE_NOMINAL_S``
over the median time of a fixed probe loop that :class:`SpeedProbe` runs
every ``PROBE_EVERY_S`` while the phase runs. A phase called at least
``FASTEST_OF`` times in the run is instead timed by its fastest call.

Why scaled: the machine the baseline comes from (2 vCPUs shared with other
tenants, no steal time) ran the same code at 50-100% of its unloaded speed,
changing over seconds to tens of seconds, also within one 8 s call. The
probe slows with the machine; ``results/README.md`` compares the spreads of
the scaled and the unscaled rates.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import signal
import statistics
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

import vpcalib.heatmap as heatmap
import vpcalib.heatmap_io as heatmap_io
import vpcalib.pipeline as pipeline
from vpcalib.heatmap import BBox, HeatmapCodec
from checks import (
    calibration_errors,
    check_calibration,
    oracle,
    per_vehicle_errors,
    roundtrip_error,
)
from tracing import Tracer, layer_self_times, net_durations
from workloads import Workload, box_vp, read_jsonl, run_cli

SYNTH_FILES = ("detections.jsonl", "measurements.json", "ground_truth.json")
MIN_PASSES = 2  # full passes per measured run, whatever ``--seconds`` says
REPEAT_S = 1.0  # a phase shorter than this is called again within the pass
PROBE_EVERY_S = 0.1  # interval of the speed probe while a phase is timed
# _probe() seconds on the reference machine (2 vCPUs of an Intel Xeon VM,
# unloaded); a phase's time is scaled by this over the median probe seconds
# sampled while it ran, so rates read as if run on that machine.
PROBE_NOMINAL_S = 1.5e-3
FASTEST_OF = 100  # a phase called this often in a run is timed by its fastest call


class Bench:
    def __init__(self, workload: Workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.manifest = json.loads((work / "manifest.json").read_text())
        self.truth = oracle(self.manifest["scene"])
        self.codec = HeatmapCodec()
        self.speed = SpeedProbe()
        self.tracer = Tracer(workload.name)
        self.tracing = False
        self.attempted = 0
        self.failed_ops = 0
        self.failures: list[str] = []
        self.samples: dict = {}
        self.extra: dict = {}
        self.layer_self_s: dict = {}
        self._reference: dict = {}
        self._batch = None
        self._captured_pairs = None
        self._records = None
        self._label = None
        if workload.heatmap:
            # the timed synth must reproduce the scene the inputs were built from
            for name in SYNTH_FILES:
                self._reference[("synth", name)] = (work / "synth" / name).read_bytes()
            self.tracer.truth = json.loads((work / "truth.json").read_text())

    # -- bookkeeping ----------------------------------------------------------

    def _op(self, problems: list[str]) -> bool:
        """Count one operation (a CLI call or a codec batch) and its problems."""
        self.attempted += 1
        if problems:
            self.failed_ops += 1
            self.failures.extend(f"{self._label}: {p}" for p in problems)
        return not problems

    def _same(self, key, blob: bytes) -> list[str]:
        ref = self._reference.setdefault(key, blob)
        return [] if ref == blob else [f"{'/'.join(key)} differs from the reference bytes"]

    def _span(self, name, **counts):
        return self.tracer.span(name, **counts) if self.tracing else nullcontext({})

    def _cli(self, argv) -> tuple[list[str], float]:
        """One `vpcalib` call: (problems, wall seconds)."""
        (code, err), elapsed = self.speed.call(run_cli, argv)
        return ([] if code == 0 else [f"`vpcalib {argv[0]}` exited {code}: {err.strip()[-300:]}"]), elapsed

    def _calibrate_args(self, detections, out, parallel=False) -> list:
        w, h = self.truth["image_size"]
        return ["calibrate", "--detections", detections, "--out", out,
                "--config", self.work / "config.json", "--image-size", w, h,
                *(["--parallel"] if parallel else [])]

    def input_sizes(self) -> dict:
        sizes = {k: v for k, v in self.manifest.items() if k not in ("workload", "seed")}
        sizes["records_parsed"] = self._records
        sizes["encode_batch_pairs"] = self.workload.encode_batch
        return sizes

    @contextmanager
    def _capture_pairs(self):
        """Keep the pairs `calibrate` consumes, for the per-vehicle accuracy."""
        original = pipeline.calibrate

        def capture(pairs, *args, **kwargs):
            pairs = list(pairs)
            self._captured_pairs = pairs
            return original(pairs, *args, **kwargs)

        pipeline.calibrate = capture
        try:
            yield
        finally:
            pipeline.calibrate = original

    # -- the full-size pass ----------------------------------------------------

    def iteration(self, label, parallel: bool = False, repeat: bool = False) -> dict[str, float]:
        """synth -> encode -> calibrate -> evaluate on the whole workload.

        Returns the wall seconds of each phase; with ``repeat``, the median
        of its calls (see ``REPEAT_S``), under ``<phase>.calls`` each call's
        seconds and under ``<phase>.probe`` the median probe seconds while
        they ran. ``parallel`` runs synth and
        calibrate with ``--parallel`` (and skips the other phases); its
        outputs must equal the serial ones byte for byte. A phase whose
        output check fails ends the pass.
        """
        self._label = label
        w, work = self.workload, self.work
        d = work / f"it-{label}"
        phases = {}
        synth = d / "synth"
        cal = d / "calibration.json"

        def run_synth():
            with self._span("cli.synth"):
                problems, elapsed = self._cli(
                    ["synth", "--spec", work / "scene.json", "--out-dir", synth,
                     *(["--parallel"] if parallel else [])])
            for name in SYNTH_FILES if not problems else ():
                problems += self._same(("synth", name), (synth / name).read_bytes())
            return elapsed if self._op(problems) else None

        def run_encode():
            return self._encode(d / "encoded", self._encode_batch(synth), "full")

        detections = work / "detections.jsonl" if w.heatmap else synth / "detections.jsonl"

        def run_calibrate():
            with self._span("cli.calibrate"):
                problems, elapsed = self._cli(self._calibrate_args(detections, cal, parallel))
            if not problems:
                problems = check_calibration(cal, self.truth, w, self._reference.get(("calibration",)))
                self._reference.setdefault(("calibration",), cal.read_bytes())
            return elapsed if self._op(problems) else None

        def run_evaluate():
            with self._span("cli.evaluate"):
                problems, elapsed = self._cli(
                    ["evaluate", "--calibration", cal, "--measurements", synth / "measurements.json",
                     "--out", d / "report.json"])
            if not problems:
                report, more = self._check_report(d / "report.json", ("report",), w.scene["n_measurements"])
                problems += more
                self.extra.setdefault("ratio_err_pct", report["mean_error_percent"])
            return elapsed if self._op(problems) else None

        steps = [("synth", run_synth), ("encode", run_encode), ("calibrate", run_calibrate),
                 ("evaluate", run_evaluate)]
        try:
            for phase, run in steps:
                if parallel and phase in ("encode", "evaluate"):
                    continue
                calls, probe = self._timed(run, repeat)
                if calls is None:
                    break
                phases[phase] = statistics.median(calls)
                if repeat:
                    phases[f"{phase}.probe"] = probe
                    phases[f"{phase}.calls"] = calls
                if phase == "encode":
                    self._roundtrip(d / "encoded")
                if phase == "calibrate" and self._records is None:
                    self._records = len(read_jsonl(detections))
            return phases
        finally:
            shutil.rmtree(d, ignore_errors=True)

    def _timed(self, run, repeat: bool) -> tuple[list[float] | None, float | None]:
        """(seconds of each ``run()`` call, median probe seconds among them).

        With ``repeat``, calls continue until together they took
        ``REPEAT_S``, with the probe sampling the machine's speed; otherwise
        there is one call and no probe. The calls are None once one fails
        its check.
        """
        calls = []
        with self.speed.sampling() if repeat else nullcontext([]) as samples:
            while not calls or (repeat and sum(calls) < REPEAT_S):
                elapsed = run()
                if elapsed is None:
                    return None, None
                calls.append(elapsed)
        if repeat and not samples:  # a phase shorter than PROBE_EVERY_S
            samples.append(self.speed.call(_probe)[1])
        return calls, statistics.median(samples) if repeat else None

    def _check_report(self, path: Path, key, expected: int) -> tuple[dict, list[str]]:
        blob = path.read_bytes()
        report = json.loads(blob)
        problems = self._same(key, blob)
        if report["n_measurements"] + report["n_skipped"] != expected:
            problems.append(f"report covers {report['n_measurements']} + "
                            f"{report['n_skipped']} of {expected} measurements")
        return report, problems

    def _encode_batch(self, synth: Path):
        if self._batch is None:
            records = read_jsonl(synth / "detections.jsonl")[: self.workload.encode_batch]
            self._batch = [(box_vp(r, "first"), box_vp(r, "second"), BBox(*r["box"])) for r in records]
        return self._batch

    def _encode(self, out: Path, batch, key: str) -> float | None:
        """The codec's write side on ``batch``; checked for identical bytes."""
        out.mkdir(parents=True, exist_ok=True)
        paths = [out / f"e{j:04d}.dvp" for j in range(len(batch))]

        def encode():
            for (first, second, _), path in zip(batch, paths):
                with self._span("heatmap.encode"):
                    maps = self.codec.encode_pair(first, second)
                with self._span("heatmap_io.write"):
                    heatmap_io.write_heatmap_file(path, maps)

        _, elapsed = self.speed.call(encode)
        digest = hashlib.sha256(b"".join(p.read_bytes() for p in paths)).hexdigest()
        return elapsed if self._op(self._same(("encoded", key), digest.encode())) else None

    def _roundtrip(self, encoded: Path) -> None:
        """Read back and decode the first pairs of the batch (criterion 3 bound)."""
        problems = []
        for j, (first, second, box) in enumerate(self._batch[: self.workload.roundtrip]):
            path = encoded / f"e{j:04d}.dvp"
            self.tracer.truth[path.name] = [first.tolist(), second.tolist()]
            channels = heatmap_io.read_heatmap_file(path)
            for maps, vp, det in zip(channels, (first, second), self.codec.decode_pair(channels, box)):
                problem = roundtrip_error(det, vp, box, _chosen_radius(maps, det, self.codec))
                if problem:
                    problems.append(f"{path.name}: {problem}")
        self._op(problems)

    def _record_accuracy(self) -> tuple[float, float]:
        focal, normal = per_vehicle_errors(self._captured_pairs or [], self.truth)
        cal_blob = self._reference.get(("calibration",))
        if cal_blob is not None:
            f_err, n_err = calibration_errors(json.loads(cal_blob), self.truth)
            self.extra.update(f_rel_err_pct=f_err, normal_err_deg=n_err)
        if len(focal) == 0 or len(normal) == 0:
            self._op(["no usable vanishing-point pairs reached calibrate"])
            return float("nan"), float("nan")
        self.extra.update(pairs_with_focal=len(focal), pairs_with_normal=len(normal))
        return float(np.median(focal)), float(np.median(normal))

    # -- modes -------------------------------------------------------------------

    def measure(self, seconds: float) -> dict:
        """Full passes for ``seconds`` (at least ``MIN_PASSES``); end-to-end metrics.

        The accuracy numbers come from the pairs the first pass calibrated.
        """
        start = time.perf_counter()
        passes = []
        with self._capture_pairs():
            passes.append(self.iteration("pass-0", repeat=True))
        while not self.failures and (len(passes) < MIN_PASSES or _fits(start, len(passes), seconds)):
            passes.append(self.iteration(f"pass-{len(passes)}", repeat=True))
        self.samples = {"pass_s": passes}
        f_med = n_med = float("nan")
        rates = {}
        if not self.failures:
            f_med, n_med = self._record_accuracy()
            s = self.workload.scene
            work = {"synth": s["n_vehicles"], "encode": 2 * len(self._batch),
                    "calibrate": self._records,
                    "evaluate": s["n_measurements"] * (s["n_measurements"] - 1)}
            rates = {phase: n / _phase_s(passes, phase) for phase, n in work.items()}
            self.samples["unscaled_rate"] = {phase: n / min(p[phase] for p in passes)
                                             for phase, n in work.items()}
        return {
            "synth_veh_per_s": rates.get("synth", float("nan")),
            "encode_vp_per_s": rates.get("encode", float("nan")),
            "calibrate_rec_per_s": rates.get("calibrate", float("nan")),
            "evaluate_pairs_per_s": rates.get("evaluate", float("nan")),
            "vehicle_f_err_pct": f_med,
            "vehicle_normal_err_deg": n_med,
        }

    def traced(self, seconds: float) -> dict:
        """Rounds of (untraced, traced) full passes, then one --parallel pass."""
        walls = {"untraced": [], "traced": []}
        per_round = []
        start = time.perf_counter()
        k = 0
        while k < 1 or _fits(start, k, seconds):
            walls["untraced"].append(sum(self.iteration(f"untraced-{k}").values()))
            label = f"traced-{k}"
            self.tracing = True
            with self.tracer.instrument(label):
                walls["traced"].append(sum(self.iteration(label).values()))
            self.tracing = False
            self.tracer.replay_quantization_radius()
            per_round.append(_layer_metrics([s for s in self.tracer.spans if s["iteration"] == label]))
            k += 1
            if self.failures:
                break
        self.tracing = True
        with self.tracer.instrument("parallel", deep=False):
            self.iteration("parallel", parallel=True)
        self.tracing = False
        parallel = [s for s in self.tracer.spans if s["iteration"] == "parallel"]

        metrics = {name: statistics.median(m[name] for m in per_round) for name in per_round[0]}
        net = net_durations(parallel)
        for name in ("pipeline.decode_parallel", "synthetic.generate_parallel"):
            metrics[f"{name}_s"] = sum(net[s["id"]] for s in parallel if s["name"] == name)
        metrics["trace.overhead_frac"] = sum(walls["traced"]) / sum(walls["untraced"]) - 1.0
        self.samples = {"iteration_wall_s": walls}
        # the quantization_radius replay runs after the pass; it is not part of its time
        self.layer_self_s = layer_self_times([s for s in self.tracer.spans if s["iteration"] == "traced-0"
                                              and s["name"] != "heatmap.quantization_radius"])
        return metrics


def _phase_s(passes: list[dict], phase: str) -> float:
    """The phase's time in a measured run.

    With at least ``FASTEST_OF`` calls in the run (``evaluate`` of 10
    measurements, a few ms a call), the fastest call, unscaled: the probe,
    sampled every ``PROBE_EVERY_S``, cannot follow calls that short, and
    among that many one ran unslowed. Otherwise the fastest pass's median
    call, probe-scaled.
    """
    calls = [c for p in passes for c in p[f"{phase}.calls"]]
    if len(calls) >= FASTEST_OF:
        return min(calls)
    return min(p[phase] * PROBE_NOMINAL_S / p[f"{phase}.probe"] for p in passes)


def _fits(start: float, done: int, seconds: float) -> bool:
    """Whether one more pass, as long as the mean of the ``done`` so far,
    ends within ``seconds`` of ``start``."""
    elapsed = time.perf_counter() - start
    return elapsed * (done + 1) / done <= seconds


class SpeedProbe:
    """Samples how fast the machine runs while a phase is timed.

    Inside :meth:`sampling`, an interval timer runs :func:`_probe` in the
    main thread (between two bytecodes of whatever runs) every
    ``PROBE_EVERY_S`` and records its seconds. :meth:`call` times a call and
    takes out the probe's own time spent inside it.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._spent = 0.0  # probe seconds so far

    def _tick(self, signum, frame):
        t = time.perf_counter()
        _probe()
        elapsed = time.perf_counter() - t
        self.samples.append(elapsed)
        self._spent += elapsed

    def call(self, fn, *args):
        """(``fn(*args)``, its wall seconds without the probe's)."""
        spent = self._spent
        t = time.perf_counter()
        result = fn(*args)
        return result, time.perf_counter() - t - (self._spent - spent)

    @contextmanager
    def sampling(self):
        """Yields the list that receives the probe seconds sampled inside."""
        samples = self.samples = []
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            yield samples
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def _probe() -> None:
    """Fixed work outside vpcalib: Python arithmetic and small numpy calls,
    about 1.5 ms on an unloaded machine."""
    total = 0
    for i in range(20000):
        total += i * i % 7
    a = np.arange(256.0)
    for _ in range(200):
        a = np.sqrt(a + 1.0)


def _chosen_radius(maps, det, codec: HeatmapCodec) -> float:
    for h in maps:
        if h.scale == det.chosen_scale:
            (row, col), _ = heatmap.decode_heatmap(h, codec.peak_ratio)
            return heatmap.quantization_radius(row, col, h.scale, h.resolution)
    raise ValueError("chosen scale not among the heatmaps")


def _layer_metrics(spans: list[dict]) -> dict[str, float]:
    net = net_durations(spans)
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def total(name):
        return sum(net[s["id"]] for s in by_name.get(name, []))

    def count(name, key=None):
        return sum(s[key] if key else 1 for s in by_name.get(name, []))

    def ratio(a, b):
        return a / b if b else 0.0

    decode_ids = {s["id"] for s in by_name.get("pipeline.decode", [])}
    covered = sum(net[s["id"]] for s in spans
                  if s["parent"] in decode_ids and s["name"] in ("heatmap_io.read", "heatmap.select_vp"))
    selects = by_name.get("heatmap.select_vp", [])
    angles = [s["angle_err_deg"] for s in selects if "angle_err_deg" in s]
    return {
        "cli.synth_s": total("cli.synth"),
        "cli.calibrate_s": total("cli.calibrate"),
        "cli.evaluate_s": total("cli.evaluate"),
        "synthetic.generate_s": total("synthetic.generate"),
        "synthetic.vehicles": count("synthetic.generate", "vehicles"),
        "pipeline.format_s": total("pipeline.format"),
        "pipeline.parse_s": total("pipeline.parse"),
        "pipeline.records_parsed": count("pipeline.parse", "records"),
        "pipeline.filter_s": total("pipeline.filter"),
        "pipeline.filter_kept_frac": ratio(count("pipeline.filter", "records_out"),
                                           count("pipeline.filter", "records_in")),
        "pipeline.decode_s": total("pipeline.decode"),
        "pipeline.pairs_frac": ratio(count("pipeline.decode", "pairs"),
                                     count("pipeline.decode", "records_in")),
        "pipeline.decode_covered_frac": ratio(covered, total("pipeline.decode")),
        "heatmap_io.read_s": total("heatmap_io.read"),
        "heatmap_io.read_files": count("heatmap_io.read"),
        "heatmap_io.read_mb": count("heatmap_io.read", "bytes") / 1e6,
        "heatmap_io.write_s": total("heatmap_io.write"),
        "heatmap.encode_s": total("heatmap.encode"),
        "heatmap.select_vp_s": total("heatmap.select_vp"),
        "heatmap.select_vp_calls": count("heatmap.select_vp"),
        "heatmap.quantization_radius_s": total("heatmap.quantization_radius"),
        "heatmap.candidates_mean": ratio(sum(s.get("candidates", 0) for s in selects),
                                         sum(s.get("scales", 0) for s in selects)),
        "heatmap.degenerate_frac": ratio(count("heatmap.select_vp", "degenerate"), len(selects)),
        "heatmap.angle_err_med_deg": float(np.median(angles)) if angles else 0.0,
        "calibration.calibrate_s": total("calibration.calibrate"),
        "calibration.pairs_used": count("calibration.calibrate", "pairs_used"),
        "calibration.rejected_frac": ratio(count("calibration.calibrate", "pairs_rejected"),
                                           count("calibration.calibrate", "pairs")),
        "evaluation.evaluate_s": total("evaluation.evaluate"),
        "evaluation.ratio_pairs": count("evaluation.evaluate", "ratio_pairs"),
        "evaluation.skipped": count("evaluation.evaluate", "skipped"),
    }
