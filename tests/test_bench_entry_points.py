"""The names the benchmark in ``perfbench/`` patches or calls, with the calls it makes.

The benchmark wraps these functions in place to time each layer and runs
the command line in-process. Its own tests are not part of this suite, so
a rename here would otherwise go unnoticed until the benchmark ran.
"""

import inspect

import pytest

import vpcalib.cli as cli
import vpcalib.heatmap as heatmap
import vpcalib.heatmap_io as heatmap_io
import vpcalib.pipeline as pipeline
from vpcalib.calibration import VPPair, calibrate
from vpcalib.synthetic import SceneSpec, generate_scene

# (module, name, positional arguments, keyword arguments) of each call
CALLS = [
    (pipeline, "parse_detections", ("path",), {}),
    (pipeline, "filter_detections", ("records", "config"), {}),
    (pipeline, "detections_to_pairs", ("records", "config", "base_dir"), {}),
    (pipeline, "read_heatmap_file", ("path",), {}),
    (heatmap_io, "read_heatmap_file", ("path",), {}),
    (pipeline, "select_vp", ("heatmaps", "box", "peak_ratio"), {}),
    (heatmap, "select_vp", ("heatmaps", "box", "peak_ratio"), {}),
    (heatmap, "decode_heatmap", ("heatmap", "peak_ratio"), {}),
    (heatmap, "quantization_radius", ("row", "col", "scale", "resolution"), {}),
    (pipeline, "calibrate", ("pairs", "image_size"), {"min_pairs": 5, "principal_point": None}),
    (pipeline, "evaluate", ("measurements", "calibration"), {"pair_mode": "ordered"}),
    (cli, "generate_observations", ("spec",), {"parallel": False}),
    (cli, "format_json", ("value",), {}),
    (cli, "cmd_calibrate", ("args",), {}),
    (cli, "main", ("argv",), {}),
]


@pytest.mark.parametrize("module, name, args, kwargs", CALLS,
                         ids=[f"{m.__name__}.{name}" for m, name, _, _ in CALLS])
def test_name_exists_and_takes_the_call(module, name, args, kwargs):
    fn = getattr(module, name)
    inspect.signature(fn).bind(*args, **kwargs)


@pytest.mark.parametrize("argv", [
    ["calibrate", "--detections", "det.jsonl", "--out", "cal.json", "--parallel"],
    ["synth", "--spec", "scene.json", "--out-dir", "out", "--parallel"],
])
def test_commands_accept_parallel(argv):
    assert cli.build_parser().parse_args(argv).parallel is True


def test_calibrate_takes_a_list_of_pairs():
    # the benchmark hands calibrate the pairs it captured, as a list
    spec = SceneSpec(seed=13, n_vehicles=8)
    pairs, _, _ = generate_scene(spec)
    as_list = list(pairs)
    assert all(isinstance(pair, VPPair) for pair in as_list)
    assert pipeline.calibrate is calibrate
    assert calibrate(as_list, spec.image_size).to_dict() == calibrate(pairs, spec.image_size).to_dict()
