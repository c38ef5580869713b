"""Property tests: a malformed input file ends as InputFormatError, never as
another exception, and a ``calibrate`` run on one ends in its exit code.

Needs Hypothesis (the ``test`` extra) and is skipped without it. The examples
are derandomized and bounded, so the suite stays deterministic and quick.
"""

import contextlib
import copy
import io
import json
import math
import shutil
import struct
import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from vpcalib import cli  # noqa: E402
from vpcalib.errors import InputFormatError  # noqa: E402
from vpcalib.heatmap import HeatmapCodec, bbox_normalize, check_scales  # noqa: E402
from vpcalib.heatmap_io import MAGIC, read_heatmap_arrays, write_heatmap_file  # noqa: E402
from vpcalib.pipeline import DetectionRecord, parse_detections  # noqa: E402
from vpcalib.synthetic import SceneSpec, generate_observations  # noqa: E402

BOUNDED = settings(max_examples=150, derandomize=True, deadline=None, database=None)

# Any JSON value, with NaN, infinities and integers too large for a float.
SCALARS = (
    st.none() | st.booleans() | st.integers() | st.integers(10**300, 10**310)
    | st.floats() | st.text(max_size=4)
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3)
    ),
    max_leaves=8,
)
SMALL = st.integers(0, 2)


def _grids(draw, channels, scales, resolution, width):
    n = channels * scales * resolution * resolution
    values = draw(st.lists(st.floats(width=width), min_size=n, max_size=n))
    return np.reshape(np.asarray(values, dtype=float), (channels, scales, resolution, resolution))


@st.composite
def json_heatmaps(draw):
    """A well-formed JSON heatmap file with up to two fields replaced by any JSON value."""
    c, s, r = draw(SMALL), draw(SMALL), draw(SMALL)
    payload = {
        "magic": "DVP1",
        "resolution": r,
        "scales": draw(st.lists(st.floats(), min_size=s, max_size=s)),
        "channels": c,
        "data": _grids(draw, c, s, r, 64).tolist(),
    }
    for key in draw(st.lists(st.sampled_from(sorted(payload)), max_size=2)):
        payload[key] = draw(JSON_VALUES)
    return json.dumps(payload).encode()


@st.composite
def dvp_heatmaps(draw):
    """A DVP file whose header counts may disagree with its body, cut or extended."""
    counts = SMALL | st.integers(0, 2**32 - 1)
    c, s, r = draw(counts), draw(counts), draw(counts)
    scales = draw(st.lists(st.floats(), min_size=min(s, 3), max_size=min(s, 3)))
    blob = MAGIC + struct.pack(f"<II{len(scales)}dI", r, s, *scales, c)
    if max(c, s, r) <= 2:
        blob += _grids(draw, c, s, r, 32).astype("<f4").tobytes()
    cut = draw(st.integers(0, len(blob)))
    return blob[:cut] + draw(st.binary(max_size=8)) if draw(st.booleans()) else blob


@BOUNDED
@given(blob=st.binary(max_size=64) | st.binary(max_size=64).map(MAGIC.__add__)
       | json_heatmaps() | dvp_heatmaps())
@example(blob=b'{"magic": "DVP1", "resolution": 1e999, "scales": [0.5], "data": []}')
@example(blob=b"[" * 100_000)
def test_heatmap_reader_raises_only_input_format_error(tmp_path_factory, blob):
    directory = tmp_path_factory.mktemp("heatmaps", numbered=True)
    for name in ("obs.dvp", "obs.json"):
        path = directory / name
        path.write_bytes(blob)
        try:
            scales, values = read_heatmap_arrays(path)
        except InputFormatError:
            continue
        assert values.ndim == 4 and values.shape[1] == len(scales) and values.shape[-1] >= 2
        assert np.isfinite(values).all() and check_scales(scales) == scales


VECTORS = st.lists(st.floats() | st.integers(-5, 5), min_size=2, max_size=2) | JSON_VALUES
RECORDS = st.fixed_dictionaries(
    {},
    optional={
        "frame": st.integers(-1, 30) | JSON_VALUES,
        "box": st.just([0, 0, 10, 10]) | st.lists(st.floats() | st.integers(), max_size=5)
        | JSON_VALUES,
        "confidence": st.floats() | JSON_VALUES,
        "vp_first": VECTORS,
        "vp_second": VECTORS,
        "vp_first_direction": VECTORS,
        "vp_second_direction": VECTORS,
        "heatmap": st.text(max_size=4) | JSON_VALUES,
    },
).map(json.dumps)
LINES = RECORDS | JSON_VALUES.map(json.dumps) | st.text(max_size=20)


@BOUNDED
@given(content=st.lists(LINES, max_size=4).map(lambda lines: "\n".join(lines).encode())
       | st.binary(max_size=40))
@example(content=b'{"frame": 1e999, "box": [0, 0, 9, 9], "vp_first": [3, 0], "vp_second": [3, 1]}')
@example(content=b'{"frame": 0, "box": [0, 0, 9, 9], "confidence": 1e999, "heatmap": "a.dvp"}')
def test_detections_parser_raises_only_input_format_error(tmp_path_factory, content):
    path = tmp_path_factory.mktemp("detections", numbered=True) / "det.jsonl"
    path.write_bytes(content)
    try:
        records = parse_detections(path)
    except InputFormatError:
        return
    assert all(isinstance(rec, DetectionRecord) for rec in records)


# A scene of 8 vehicles as heatmap files on a 32 x 32 grid, calibrated by
# ``calibrate`` with a config file. Its header fields: (offset, struct code)
# of the resolution, the scale count, each of the 4 scales and the channels.
CODEC = HeatmapCodec(resolution=32)
HEADER = {"resolution": (4, "<I"), "scale count": (8, "<I"), "channels": (44, "<I"),
          **{f"scale {k}": (12 + 8 * k, "<d") for k in range(4)}}
FLOATS = st.floats() | st.sampled_from([0.0, -0.1, 1e-320, 1e300, *CODEC.scales])
COUNTS = st.integers(0, 5) | st.integers(0, 2**32 - 1)
HEADER_EDITS = st.one_of(
    st.tuples(st.sampled_from(["resolution", "scale count", "channels"]), COUNTS),
    st.tuples(st.sampled_from([f"scale {k}" for k in range(4)]), FLOATS),
    st.tuples(st.just("scales"), st.permutations(CODEC.scales).map(tuple)),
    st.tuples(st.just("grid"), st.sampled_from([{"resolution": 64}, {"scales": (0.05, 0.5)},
                                                {"scales": (0.03, 0.1, 0.3, 2.0)}])),
)
CONFIG_EDITS = st.tuples(
    st.sampled_from(["scales", "resolution", "min_pairs", "peak_ratio", "max_frames",
                     "principal_point"]),
    st.integers(-1, 6) | st.floats(0.0, 1.0) | JSON_VALUES | FLOATS | st.just(list(CODEC.scales))
    | st.just(32),
)
# (where, edit): the config, the first file in record order or a later one
EDITS = st.lists(st.tuples(st.just("config"), CONFIG_EDITS)
                 | st.tuples(st.sampled_from([0, 5]), HEADER_EDITS), min_size=1, max_size=2)


@pytest.fixture(scope="module")
def heatmap_scene(tmp_path_factory):
    root = tmp_path_factory.mktemp("heatmap-scene")
    observations, _, _ = generate_observations(SceneSpec(seed=2, n_vehicles=8))
    lines = []
    for k, o in enumerate(observations):
        ends = (bbox_normalize(o.pair.first, o.box), bbox_normalize(o.pair.second, o.box))
        write_heatmap_file(root / f"v{k}.dvp", CODEC.encode_pair(*ends))
        lines.append(json.dumps({"frame": 10 * k, "box": list(o.box.as_tuple()),
                                 "heatmap": f"v{k}.dvp"}))
    (root / "det.jsonl").write_text("\n".join(lines) + "\n")
    (root / "cfg.json").write_text('{"image_size": [1920, 1080]}')
    return root


def _apply(directory, where, edit):
    field, value = edit
    if where == "config":
        path = directory / "cfg.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), field: value}))
        return
    path = directory / f"v{where}.dvp"
    if field == "grid":
        write_heatmap_file(path, HeatmapCodec(**value).encode_pair([3.0, 1.0], [-5.0, 2.0]))
        return
    blob = bytearray(path.read_bytes())
    if field == "scales":
        blob[12:44] = struct.pack("<4d", *value)
    else:
        at, code = HEADER[field]
        blob[at : at + struct.calcsize(code)] = struct.pack(code, value)
    path.write_bytes(bytes(blob))


@BOUNDED
@given(edits=EDITS)
@example(edits=[(0, ("scales", CODEC.scales[::-1]))])
@example(edits=[(5, ("scale 2", CODEC.scales[1]))])
@example(edits=[(0, ("grid", {"scales": (0.05, 0.5)}))])
@example(edits=[("config", ("scales", list(CODEC.scales)))])
def test_calibrate_ends_in_a_calibration_or_the_error_json(heatmap_scene, tmp_path_factory, edits):
    directory = tmp_path_factory.mktemp("run", numbered=True)
    for path in heatmap_scene.iterdir():
        shutil.copy(path, directory)
    for where, edit in edits:
        _apply(directory, where, edit)
    out = directory / "cal.json"
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        warnings.simplefilter("error")
        code = cli.main(["calibrate", "--detections", str(directory / "det.jsonl"),
                         "--out", str(out), "--config", str(directory / "cfg.json")])
    assert stdout.getvalue() == ""
    if code == 0:
        assert stderr.getvalue() == ""
        cal = json.loads(out.read_text(), parse_constant=float)
        numbers = [cal["f"], cal["delta"], *cal["principal_point"], *cal["horizon"], *cal["normal"]]
        assert all(map(math.isfinite, numbers))
    else:
        assert code == 1 and not out.exists()
        error = json.loads(stderr.getvalue())
        assert set(error) == {"error", "message"}


# A valid scene, and what may replace one or two of its values: extreme
# numbers, values just past each bound, seeds across 32-bit word boundaries
# and JSON values of the wrong type. Counts stay small, so every scene that
# builds is generated in milliseconds.
SCENE = {"seed": 3, "n_vehicles": 20, "f": 1200.0, "tilt_deg": 25.0, "roll_deg": 2.0,
         "image_size": [1920, 1080], "noise_sigma_px": 1.0, "outlier_fraction": 0.1,
         "n_measurements": 5, "camera_height": 10.0}
EXTREME_REALS = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e-60, 9.9e-61, 1e60, 1.1e60, 1e300, -1e300,
    8.3e57, 8.4e57, 1e50, 1.0000000000000002e50, 1.0000000000000002, -1e-9, 90.0, -90.0,
])
REALS = EXTREME_REALS | st.floats() | st.floats(-100.0, 3000.0) | st.integers(-3, 3)
WRONG_TYPES = st.sampled_from([True, False, "1", None, [1]])
SCENE_VALUES = {
    "seed": st.sampled_from([-1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**96, 10**40])
    | st.integers(0, 2**200),
    "n_vehicles": st.integers(-1, 50) | st.just(333_334),
    "n_measurements": st.integers(-1, 20),
    "image_size": st.lists(REALS | WRONG_TYPES, min_size=1, max_size=3)
    | st.tuples(REALS, st.just(1080)).map(list),
    **{field: REALS for field in ("f", "tilt_deg", "roll_deg", "noise_sigma_px",
                                  "outlier_fraction", "camera_height")},
}
SCENE_EDITS = st.lists(
    st.sampled_from(sorted(SCENE_VALUES)).flatmap(
        lambda field: st.tuples(st.just(field), SCENE_VALUES[field] | WRONG_TYPES)),
    min_size=1, max_size=2)


def _numbers(value):
    if isinstance(value, dict):
        return [x for v in value.values() for x in _numbers(v)]
    if isinstance(value, list):
        return [x for v in value for x in _numbers(v)]
    return [value] if isinstance(value, float) else []


@BOUNDED
@given(edits=SCENE_EDITS)
@example(edits=[("f", 1e-310)])
# a ground point seen at such an f rounded to behind the camera: a traceback
@example(edits=[("f", 1e-60)])
@example(edits=[("seed", 2**64), ("noise_sigma_px", 5e-324)])
@example(edits=[("n_vehicles", 333_334)])
def test_synth_ends_in_a_scene_or_the_error_json(tmp_path_factory, edits):
    directory = tmp_path_factory.mktemp("synth", numbered=True)
    (directory / "spec.json").write_text(json.dumps({**SCENE, **dict(edits)}))
    out = directory / "scene"
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        warnings.simplefilter("error")
        code = cli.main(["synth", "--spec", str(directory / "spec.json"), "--out-dir", str(out)])
    assert stdout.getvalue() == ""
    if code == 0:
        assert stderr.getvalue() == ""
        texts = [(out / name).read_text() for name in ("measurements.json", "ground_truth.json")]
        texts += (out / "detections.jsonl").read_text().splitlines()
        numbers = [x for text in texts for x in _numbers(json.loads(text, parse_constant=float))]
        assert all(map(math.isfinite, numbers))
    else:
        assert code == 1 and not out.exists()
        error = json.loads(stderr.getvalue())
        assert set(error) == {"error", "message"}


# A valid calibration and six tape measurements of a seed-3 scene, and what
# may replace one or two of their values: extreme numbers, values just past
# each bound, wrong types and endpoints above the horizon, whose
# measurements are skipped.
EVAL_SCENE = SceneSpec(seed=3, n_vehicles=40, n_measurements=6)
EXTREME_EVAL = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e300, -1e300, 1e50, 1.0000000000000003e50, -1e50,
    1e150, 1.0000000000000002e150, 1e-60, 9.999999999999998e-61, 1e60, 1.0000000000000001e60,
])
ABOVE_HORIZON = st.sampled_from([[960.0, -1e6], [500.0, -2000.0], [1e50, -1e50]])
EVAL_VALUES = EXTREME_EVAL | st.floats() | st.floats(-2000.0, 3000.0) | st.integers(-3, 3) \
    | WRONG_TYPES | ABOVE_HORIZON
# (file, key path): every calibration field and entry, and every field and
# coordinate of the first two measurements
EVAL_SITES = [("calibration", (field,)) for field in ("f", "principal_point", "horizon", "normal",
                                                      "delta", "n_pairs_used", "n_pairs_rejected")]
EVAL_SITES += [("calibration", (field, k)) for field, n in (("principal_point", 2), ("horizon", 3),
                                                             ("normal", 3)) for k in range(n)]
EVAL_SITES += [("measurements", (m, field)) for m in range(2) for field in ("a", "b", "distance")]
EVAL_SITES += [("measurements", (m, field, k))
               for m in range(2) for field in "ab" for k in range(2)]
EVAL_EDITS = st.lists(st.tuples(st.sampled_from(EVAL_SITES), EVAL_VALUES), min_size=1, max_size=2)


@pytest.fixture(scope="module")
def evaluate_inputs():
    _, measurements, truth = generate_observations(EVAL_SCENE)
    items = [{"a": m.a.tolist(), "b": m.b.tolist(), "distance": m.ground_truth}
             for m in measurements]
    return {"calibration": truth.to_dict(), "measurements": items}


@BOUNDED
@given(edits=EVAL_EDITS)
@example(edits=[(("measurements", (0, "b")), [960.0, -1e6])])
@example(edits=[(("calibration", ("delta",)), 1.0000000000000001e60),
                (("measurements", (1, "a", 0)), 1.0000000000000003e50)])
@example(edits=[(("calibration", ("normal", 2)), 1e150), (("calibration", ("f",)), 5e-324)])
def test_evaluate_ends_in_a_report_or_the_error_json(evaluate_inputs, tmp_path_factory, edits):
    directory = tmp_path_factory.mktemp("evaluate", numbered=True)
    inputs = copy.deepcopy(evaluate_inputs)
    for (name, path), value in edits:
        *keys, last = path
        target = inputs[name]
        for key in keys:
            target = target[key]
        # an entry of a value that the other edit replaced by a scalar or a shorter list is gone
        if isinstance(target, dict) or isinstance(target, list) and last < len(target):
            target[last] = copy.deepcopy(value)
    for name, data in inputs.items():
        (directory / f"{name}.json").write_text(json.dumps(data))
    out = directory / "report.json"
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        warnings.simplefilter("error")
        code = cli.main(["evaluate", "--calibration", str(directory / "calibration.json"),
                         "--measurements", str(directory / "measurements.json"),
                         "--out", str(out)])
    if code == 0:
        assert stderr.getvalue() == ""
        report = json.loads(out.read_text(), parse_constant=float)
        assert report["n_measurements"] + report["n_skipped"] == EVAL_SCENE.n_measurements
        assert all(map(math.isfinite, _numbers(report)))
    else:
        assert code == 1 and not out.exists() and stdout.getvalue() == ""
        error = json.loads(stderr.getvalue())
        assert set(error) == {"error", "message"}


# A valid augment spec, and what may replace one or two of its values:
# extreme numbers, values just past each bound and wrong types, at every
# field, every image-size entry and every coordinate of the first two box points.
AUGMENT_SPEC = {"image_size": [128, 128],
                "bbox_3d": [[20, 20], [100, 20], [100, 90], [20, 90],
                            [25, 30], [95, 30], [95, 100], [25, 100]],
                "corner_sigma": 12.5, "bbox_jitter": 5.0, "flip_prob": 0.5, "rng_seed": 7}
EXTREME_AUGMENT = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e300, -1e300, 1e50, 1.0000000000000002e50, -1e50,
    1.0000000000000002, 0.9999999999999999, -1e-9, 1e-9, 2**64, 2**64 - 1, -1,
])
AUGMENT_VALUES = EXTREME_AUGMENT | st.floats() | st.floats(-200.0, 300.0) | st.integers(-3, 3) \
    | WRONG_TYPES
AUGMENT_SITES = [(field,) for field in AUGMENT_SPEC] + [("image_size", k) for k in range(2)]
AUGMENT_SITES += [("bbox_3d", k) for k in range(2)]
AUGMENT_SITES += [("bbox_3d", k, j) for k in range(2) for j in range(2)]
AUGMENT_EDITS = st.lists(st.tuples(st.sampled_from(AUGMENT_SITES), AUGMENT_VALUES),
                         min_size=1, max_size=2)


def _has(container, key) -> bool:
    return isinstance(container, dict) or isinstance(container, list) and key < len(container)


@BOUNDED
@given(edits=AUGMENT_EDITS)
@example(edits=[(("corner_sigma",), 1e300)])
# a homography whose determinant overflows, and a jitter range past float64
@example(edits=[(("corner_sigma",), 1e50)])
@example(edits=[(("bbox_jitter",), 1.7976931348623157e308)])
# the flip puts every box point at x = 1e50, where 1e-9 px adds nothing
@example(edits=[(("image_size", 0), 1e50), (("flip_prob",), 1.0)])
# a box whose width overflows float64
@example(edits=[(("bbox_3d", 0, 0), -1.7e308), (("bbox_3d", 1, 0), 1.7e308),
                (("corner_sigma",), 0.0)])
@example(edits=[(("bbox_3d", 0, 0), 1e300), (("bbox_jitter",), 0.0)])
def test_augment_ends_in_a_transform_or_the_error_json(tmp_path_factory, edits):
    directory = tmp_path_factory.mktemp("augment", numbered=True)
    spec = copy.deepcopy(AUGMENT_SPEC)
    for path, value in edits:
        target = spec
        for key in path[:-1]:
            target = target[key] if _has(target, key) else None
        # an entry of a value that the other edit replaced by a scalar or a shorter list is gone
        if _has(target, path[-1]):
            target[path[-1]] = copy.deepcopy(value)
    (directory / "aug.json").write_text(json.dumps(spec))
    out = directory / "out.json"
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        warnings.simplefilter("error")
        code = cli.main(["augment", "--spec", str(directory / "aug.json"), "--out", str(out)])
    assert stdout.getvalue() == ""
    if code == 0:
        assert stderr.getvalue() == ""
        result = json.loads(out.read_text(), parse_constant=float)
        assert all(map(math.isfinite, _numbers(result)))
        x0, y0, x1, y1 = result["bbox"]
        assert x0 < x1 and y0 < y1
    else:
        assert code == 1 and not out.exists()
        error = json.loads(stderr.getvalue())
        assert set(error) == {"error", "message"}
