"""Property test: the columnar scene generator gives the bits of a per-vehicle loop.

``generate_observations`` builds every vehicle of a scene in array passes.
The reference below builds them one at a time from the scalar bodies in
``tests/synthetic_reference.py`` (``ground_point`` with its retry loop,
``vehicle_vps``, ``vehicle_bbox_3d`` with ``project_point``), not from the
public functions, which are one-row calls of the column code under test,
and from the same seeded streams;
every position, heading, dimension, box and vanishing point must agree bit
for bit. The specs cover rejected first pixels (low tilt), direction-only
vanishing points (a camera looking straight down) and fallback boxes (short
focal lengths, whose far vehicles are under a pixel high).

Needs Hypothesis (the ``test`` extra) and is skipped without it. The examples
are derandomized and bounded, so the suite stays deterministic and quick.
"""

from collections import Counter

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import synthetic_reference as ref  # noqa: E402
from vpcalib.calibration import VPPair  # noqa: E402
from vpcalib.synthetic import (  # noqa: E402
    SceneSpec,
    SyntheticVehicle,
    generate_observations,
    make_camera,
)

BOUNDED = settings(max_examples=150, derandomize=True, deadline=None, database=None)


def _stream(seed, index):
    return np.random.default_rng(np.random.SeedSequence((seed, index)))


def _reference_vehicle(spec, camera, k, kinds):
    """Vehicle ``k``, its vanishing points and box, one call at a time."""
    rng = _stream(spec.seed, k)
    w, h = camera.image_size
    ground = None
    for attempt in range(256):
        pixel = rng.uniform([0.1 * w, 0.1 * h], [0.9 * w, 0.9 * h])
        ground = ref.ground_point(camera, pixel, max_range=60.0 * camera.height)
        if ground is not None:
            break
    kinds["rejected first pixel"] += attempt > 0
    if ground is None:
        ground = np.zeros(3)
    heading = rng.uniform(0.0, 2.0 * np.pi)
    dims = (rng.uniform(3.8, 5.2), rng.uniform(1.6, 2.0), rng.uniform(1.3, 1.8))
    vehicle = SyntheticVehicle(ground[:2], heading, dims)

    pair = ref.vehicle_vps(camera, vehicle)
    kinds["direction-only pair"] += not pair.finite
    if spec.noise_sigma_px > 0 and pair.finite:
        noise = _stream(spec.seed, 2 * spec.n_vehicles + k)
        pair = VPPair(
            first=pair.first + noise.normal(0.0, spec.noise_sigma_px, 2),
            second=pair.second + noise.normal(0.0, spec.noise_sigma_px, 2),
        )

    corners = [ref.project_point(camera, c) for c in ref.vehicle_bbox_3d(vehicle)]
    box = None
    if all(p is not None for p in corners):
        (x0, y0), (x1, y1) = np.min(corners, axis=0), np.max(corners, axis=0)
        if x1 - x0 >= 1.0 and y1 - y0 >= 1.0:
            box = (x0, y0, x1, y1)
    if box is None:
        kinds["fallback box"] += 1
        anchor = ref.project_point(camera, np.array([ground[0], ground[1], 0.0]))
        cx, cy = anchor if anchor is not None else camera.principal_point
        box = (cx - 50.0, cy - 50.0, cx + 50.0, cy + 50.0)
    return vehicle, pair, box


def _reference_scene(spec, kinds):
    camera = make_camera(spec)
    vehicles, pairs, boxes = zip(
        *(_reference_vehicle(spec, camera, k, kinds) for k in range(spec.n_vehicles))
    )
    pairs, outliers = list(pairs), set()
    n_out = int(round(spec.outlier_fraction * spec.n_vehicles))
    if n_out:
        orng = _stream(spec.seed, 10**6)
        w, h = spec.image_size
        for k in sorted(orng.choice(spec.n_vehicles, size=n_out, replace=False)):
            pairs[k] = VPPair(
                first=orng.uniform([-w, -h], [2 * w, 2 * h]),
                second=orng.uniform([-w, -h], [2 * w, 2 * h]),
            )
            outliers.add(int(k))
    return vehicles, pairs, boxes, outliers


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _check_scene(spec, kinds):
    vehicles, pairs, boxes, outliers = _reference_scene(spec, kinds)
    observations, _, _ = generate_observations(spec)
    assert len(observations) == spec.n_vehicles
    for k, obs in enumerate(observations):
        assert obs.frame_index == k
        assert _bits(obs.vehicle.position) == _bits(vehicles[k].position)
        assert _bits(obs.vehicle.heading) == _bits(vehicles[k].heading)
        assert _bits(obs.vehicle.dims) == _bits(vehicles[k].dims)
        assert _bits(obs.box.as_tuple()) == _bits(boxes[k])
        assert _bits([obs.pair.first, obs.pair.second]) == _bits([pairs[k].first, pairs[k].second])
        assert (obs.pair.first_is_direction, obs.pair.second_is_direction) == (
            pairs[k].first_is_direction, pairs[k].second_is_direction)
        assert obs.is_outlier == (k in outliers)


scene_specs = st.builds(
    SceneSpec,
    # one to five 32-bit words: the streams' entropy is the seed's words, then the index's
    seed=st.integers(0, 2**32) | st.integers(2**32, 2**160 - 1),
    n_vehicles=st.integers(1, 30),
    f=st.floats(100.0, 3000.0),
    # 90 degrees looks straight down: every heading's vanishing point is at infinity
    tilt_deg=st.one_of(st.floats(3.0, 85.0), st.just(90.0)),
    roll_deg=st.floats(-10.0, 10.0),
    image_size=st.sampled_from([(1920.0, 1080.0), (640, 480)]),
    noise_sigma_px=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
    outlier_fraction=st.floats(0.0, 1.0),
    n_measurements=st.just(0),
    camera_height=st.floats(2.0, 30.0),
)


def test_columnar_generator_matches_the_per_vehicle_loop():
    kinds = Counter()

    @BOUNDED
    @given(scene_specs)
    def check(spec):
        _check_scene(spec, kinds)

    check()
    for kind in ("rejected first pixel", "direction-only pair", "fallback box"):
        assert kinds[kind], f"no {kind} among the generated scenes: {dict(kinds)}"
