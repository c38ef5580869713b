"""Synthetic scene oracle: cameras, vehicles, exact vanishing points, tape
measurements, and the geometric training-augmentation transform.

World frame: x-y is the road plane, z points up. Camera frame: x right,
y down, z along the optical axis. A camera with zero tilt and roll looks
along world +y; tilt pitches it down about its own x axis, roll turns it
about the optical axis. All randomness flows through explicitly seeded
PCG64 generators with per-vehicle substreams: stream ``(seed, index)``
draws as numpy's ``default_rng(SeedSequence((seed, index)))``, so
generation agrees bit for bit across platforms. The placement streams are
stepped as uint64 columns by an array copy of numpy's PCG64, which the
tests hold to numpy's bits; the noise, outlier and tape-measurement
streams are numpy's own ``Generator``.

A scene is generated by column: each step (seeding, placement with its
rejection loop, vanishing points, boxes, noise, outliers, tape
measurements) is one array pass. Each camera rule is written once, as that
column code; the public per-item functions (``project_point``,
``ground_point``, ``project_direction``, ``vehicle_vps``,
``vehicle_bbox_3d``) are one-row calls of it. A noisy 10k-vehicle scene
draws from about 19,000 substreams. On a 2-vCPU x86-64 host their seed
words take one pass of about 0.5 ms; the 10,000 placement streams then
draw their windows and retries in about 4 ms, numpy builds each of the
9,000 noise streams' PCG64 and ``Generator`` in about 1.6 us, and the
whole scene takes about 0.05 s. Of that, 300 tape measurements take about
3 ms; ``vpcalib synth`` then spends some 35 ms formatting the detections.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from ._validation import (
    LENGTH_RANGE,
    MAX_COORDINATE,
    as_float_array,
    check_image_size,
    check_integer,
    check_positive,
    check_real,
)
from .calibration import CameraCalibration, CameraIntrinsics, PairSet, VPPair
from .errors import DegenerateHomography, InputFormatError, InsufficientMeasurements
from .evaluation import DistanceMeasurement
from .heatmap import BBox
from .projective import row_norms

__all__ = [
    "SyntheticCamera",
    "SyntheticVehicle",
    "SyntheticObservation",
    "SyntheticObservations",
    "SceneSpec",
    "AugmentationParams",
    "camera_rotation",
    "make_camera",
    "vehicle_vps",
    "vehicle_bbox_3d",
    "ground_truth_calibration",
    "generate_observations",
    "generate_scene",
    "homography_from_corners",
    "apply_homography",
    "augment",
]

# camera axes for a level camera looking along world +y
_BASE_ROTATION = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])

_DIRECTION_EPS = 1e-9
# corner perturbations augment draws before it gives up on a warp
_AUGMENT_RETRIES = 16


def _rot_x(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def _rot_z(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def camera_rotation(tilt_deg: float, roll_deg: float) -> np.ndarray:
    """World-to-camera rotation for a camera tilted down and rolled."""
    return _rot_z(np.radians(roll_deg)) @ _rot_x(np.radians(tilt_deg)) @ _BASE_ROTATION


@dataclass(frozen=True)
class SyntheticCamera:
    f: float
    principal_point: np.ndarray
    rotation: np.ndarray
    image_size: tuple[float, float]
    height: float = 10.0

    def __post_init__(self):
        object.__setattr__(
            self, "principal_point", as_float_array(self.principal_point, "principal_point", (2,))
        )
        R = as_float_array(self.rotation, "rotation", (3, 3))
        if not np.allclose(R.T @ R, np.eye(3), atol=1e-12):
            raise ValueError("rotation must be orthonormal")
        if not np.isclose(np.linalg.det(R), 1.0, atol=1e-9):
            raise ValueError("rotation must have determinant +1")
        object.__setattr__(self, "rotation", R)
        check_real(self.f, "f", *LENGTH_RANGE)
        check_positive(self.height, "camera height")

    @property
    def center(self) -> np.ndarray:
        """Camera centre in world coordinates (above the road-plane origin)."""
        return np.array([0.0, 0.0, self.height])

    @property
    def intrinsics(self) -> CameraIntrinsics:
        return CameraIntrinsics(self.f, self.principal_point)

    def project_direction(self, direction) -> np.ndarray | None:
        """Vanishing point of a world direction, or None if parallel to the image plane."""
        end, at_infinity = _direction_vps(self, as_float_array(direction, "direction", (3,))[None])
        return None if at_infinity[0] else end[0]

    def image_direction(self, direction) -> np.ndarray:
        """Image-plane direction (for vanishing points at infinity)."""
        d = self.rotation @ as_float_array(direction, "direction", (3,))
        v = np.array([d[0], d[1]])
        return v / np.linalg.norm(v)

    def project_point(self, point_world) -> np.ndarray | None:
        """Pixel position of a world point, or None when behind the camera."""
        pixel, visible = _project(self, as_float_array(point_world, "point", (3,)))
        return pixel if visible else None

    def ground_point(self, pixel, max_range: float = 500.0) -> np.ndarray | None:
        """World road-plane point seen at a pixel, or None above the horizon.

        Rejects intersections farther than ``max_range`` metres from the
        camera foot, which keeps near-horizon pixels from producing
        kilometre-scale geometry.
        """
        (xy,) = _ground_points(self, as_float_array(pixel, "pixel", (2,))[None], max_range)
        return None if np.isnan(xy[0]) else np.append(xy, 0.0)


@dataclass(frozen=True)
class SyntheticVehicle:
    position: np.ndarray  # (x, y) on the road plane, metres
    heading: float  # radians
    dims: tuple[float, float, float] = (4.5, 1.8, 1.5)  # length, width, height

    def __post_init__(self):
        object.__setattr__(self, "position", as_float_array(self.position, "position", (2,)))
        if any(d <= 0 for d in self.dims):
            raise ValueError(f"vehicle dimensions must be positive, got {self.dims}")


# The most vehicles of a scene. Vehicle k draws from substreams k and
# 2n + k, and the scene from 10**6 and 10**6 + 1, so with n at most this
# every stream index is distinct and fits one 32-bit word.
MAX_VEHICLES = 333_333


@dataclass
class SceneSpec:
    """Parameters of one synthetic scene; a pure function of these + seed.

    The constructor checks every field, and keeps ``image_size`` as a tuple
    of floats.
    """

    seed: int
    n_vehicles: int
    f: float = 1200.0
    tilt_deg: float = 25.0
    roll_deg: float = 2.0
    image_size: tuple[float, float] = (1920.0, 1080.0)
    noise_sigma_px: float = 0.0
    outlier_fraction: float = 0.0
    n_measurements: int = 10
    camera_height: float = 10.0

    def __post_init__(self):
        for name, low in (("seed", 0), ("n_vehicles", 1), ("n_measurements", 0)):
            setattr(self, name, check_integer(getattr(self, name), name, low))
        if self.n_vehicles > MAX_VEHICLES:
            raise ValueError(f"n_vehicles must be at most {MAX_VEHICLES}, got {self.n_vehicles}")
        check_real(self.f, "f", *LENGTH_RANGE)
        self.image_size = check_image_size(self.image_size)
        check_real(self.tilt_deg, "tilt_deg")
        check_real(self.roll_deg, "roll_deg")
        check_real(self.noise_sigma_px, "noise_sigma_px", 0.0)
        check_real(self.outlier_fraction, "outlier_fraction", 0.0, 1.0)
        # the ground truth's delta is the camera height, and two measured
        # points lie up to 120 camera heights apart (see _measurements)
        check_real(self.camera_height, "camera_height", LENGTH_RANGE[0], LENGTH_RANGE[1] / 120)

    @classmethod
    def from_json(cls, text: str) -> "SceneSpec":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("a scene spec must hold a JSON object")
        unknown = sorted(set(data) - set(cls.__dataclass_fields__))
        if unknown:
            raise ValueError(f"unknown scene spec keys: {unknown}")
        return cls(**data)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "n_vehicles": self.n_vehicles,
            "f": self.f,
            "tilt_deg": self.tilt_deg,
            "roll_deg": self.roll_deg,
            "image_size": list(self.image_size),
            "noise_sigma_px": self.noise_sigma_px,
            "outlier_fraction": self.outlier_fraction,
            "n_measurements": self.n_measurements,
            "camera_height": self.camera_height,
        }


def make_camera(spec: SceneSpec) -> SyntheticCamera:
    w, h = spec.image_size
    return SyntheticCamera(
        f=spec.f,
        principal_point=np.array([w / 2.0, h / 2.0]),
        rotation=camera_rotation(spec.tilt_deg, spec.roll_deg),
        image_size=(float(w), float(h)),
        height=spec.camera_height,
    )


def vehicle_vps(camera: SyntheticCamera, vehicle: SyntheticVehicle) -> VPPair:
    """Exact vanishing-point pair of a vehicle: heading and axle directions.

    A direction parallel to the image plane has its vanishing point at
    infinity; the pair member is then flagged and carries the unit image
    direction instead of a position.
    """
    first, second, first_is_direction, second_is_direction = _vehicle_pairs(
        camera, np.array([vehicle.heading], dtype=float))
    return VPPair(first[0], second[0], bool(first_is_direction[0]), bool(second_is_direction[0]))


def vehicle_bbox_3d(vehicle: SyntheticVehicle) -> np.ndarray:
    """World coordinates of the vehicle's eight cuboid corners."""
    heading, dims = np.array([vehicle.heading], dtype=float), np.array([vehicle.dims], dtype=float)
    return _corners(vehicle.position[None], heading, dims)[0]


def ground_truth_calibration(camera: SyntheticCamera) -> CameraCalibration:
    """Exact calibration of a synthetic camera.

    The plane normal is the world up axis expressed in camera coordinates;
    the horizon is its image under the inverse-transpose intrinsics. With
    ``delta`` set to the camera height, plane projections recover true
    metric distances, not just ratios.
    """
    n = camera.rotation @ np.array([0.0, 0.0, 1.0])
    p = camera.principal_point
    f = camera.f
    horizon = np.array([n[0] / f, n[1] / f, -p[0] * n[0] / f - p[1] * n[1] / f + n[2]])
    # normalize to the (m, -1, q) form used by the estimator
    horizon = horizon / -horizon[1]
    return CameraCalibration(
        intrinsics=camera.intrinsics,
        horizon=horizon,
        plane_normal=n,
        delta=camera.height,
    )


# The constants of numpy's SeedSequence (numpy/random/bit_generator.pyx).
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF


def _words(value: int) -> list[int]:
    """The 32-bit little-endian words of a non-negative int; 0 is one word."""
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _seed_states(seed: int, indices) -> np.ndarray:
    """``SeedSequence((seed, k)).generate_state(4, np.uint64)`` of each index ``k``, as rows.

    numpy's algorithm, in one pass over a uint32 column per entropy word
    (the seed's words, then ``k``'s one word). Its hash constant steps the
    same way in every row, so it stays a Python int. Every operand is a
    uint32 array or an ``np.uint32``, so each product wraps in uint32 under
    numpy 1.x's value-based casting and numpy 2's rules alike, and no
    scalar product overflows, which would warn.
    """
    u32 = np.uint32
    index = np.asarray(indices, dtype=u32)
    entropy = [np.full(len(index), word, dtype=u32) for word in _words(seed)] + [index]
    h = _HASH_INIT_A

    def hashmix(v):
        nonlocal h
        v = v ^ u32(h)
        h = h * _HASH_MULT_A & _MASK32
        v = v * u32(h)
        return v ^ (v >> u32(16))

    def mix(x, y):
        r = u32(_MIX_MULT_L) * x - u32(_MIX_MULT_R) * y
        return r ^ (r >> u32(16))

    zero = np.zeros(len(index), dtype=u32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if dst != src:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    h, state = _HASH_INIT_B, []
    for i in range(8):
        v = pool[i % _POOL_SIZE] ^ u32(h)
        h = h * _HASH_MULT_B & _MASK32
        v = v * u32(h)
        state.append(v ^ (v >> u32(16)))
    return np.stack(state, axis=1).astype("<u4").view("<u8").astype(np.uint64)


def _substreams(seed: int, indices) -> Iterator[np.random.Generator]:
    """The generator of substream ``(seed, k)`` for each index ``k``, one at a time.

    Each draws as ``np.random.default_rng(np.random.SeedSequence((seed, k)))``
    does, bit for bit: numpy's PCG64 takes its seed words from
    :func:`_seed_states`, which computes those of every index in one pass.
    The pixel noise, the outliers and the tape measurements draw from these;
    the placement windows step their streams by columns (:func:`_pcg_random`).
    """
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        # PCG64 asks for generate_state(4, np.uint64) once
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    for words in _seed_states(seed, indices):
        yield Generator(PCG64(SeedWords(words)))


# numpy's PCG64 (numpy/random/src/pcg64): a 128-bit LCG with this
# multiplier, and the XSL-RR output permutation. Its state is kept as four
# uint64 rows, one column per stream: the state's high and low words, then
# the increment's. Every operand is a uint64 array, whose products wrap
# without the warning that a product of two np.uint64 scalars gives.
_PCG_MULT_HI, _PCG_MULT_LO = divmod(0x2360ED051FC65DA44385DF649FCCF645, 2**64)
_U64 = np.uint64


def _mulhi(a: np.ndarray, b: int) -> np.ndarray:
    """The high word of each 128-bit product ``a * b``, from 32-bit halves."""
    a1, a0 = a >> _U64(32), a & _U64(_MASK32)
    b1, b0 = _U64(b >> 32), _U64(b & _MASK32)
    low, mid = a0 * b0, a1 * b0
    cross = (low >> _U64(32)) + (mid & _U64(_MASK32)) + a0 * b1
    return a1 * b1 + (mid >> _U64(32)) + (cross >> _U64(32))


def _pcg_step(state: np.ndarray) -> None:
    """``state = state * multiplier + inc`` modulo 2**128, in place, for every column."""
    hi, lo, inc_hi, inc_lo = state
    new_lo = lo * _U64(_PCG_MULT_LO) + inc_lo
    # the low words' sum carries where it wrapped below an addend
    carry = new_lo < inc_lo
    # the high word of lo * mult, then the cross products, which wrap
    state[0] = (_mulhi(lo, _PCG_MULT_LO) + lo * _U64(_PCG_MULT_HI) + hi * _U64(_PCG_MULT_LO)
                + inc_hi + carry)
    state[1] = new_lo


def _pcg_states(words: np.ndarray) -> np.ndarray:
    """The ``(4, N)`` PCG64 state that numpy seeds from each row of ``words``.

    ``words`` holds ``generate_state(4, np.uint64)`` rows (:func:`_seed_states`).
    As numpy's ``pcg64_set_seed`` does: ``initstate`` is words 0:1 and
    ``initseq`` words 2:3, high word first; ``inc = initseq << 1 | 1``, and
    the state starts at 0, steps, adds ``initstate`` and steps again.
    """
    w = words.T
    state = np.zeros((4, w.shape[1]), dtype=_U64)
    state[2] = (w[2] << _U64(1)) | (w[3] >> _U64(63))
    state[3] = (w[3] << _U64(1)) | _U64(1)
    _pcg_step(state)
    lo = state[1] + w[1]
    state[0] += w[0] + (lo < w[1])
    state[1] = lo
    _pcg_step(state)
    return state


def _pcg_random(state: np.ndarray, count: int) -> np.ndarray:
    """The next ``count`` draws of every stream, as numpy's ``Generator.random``
    makes them, in an ``(N, count)`` array; ``state`` steps on in place."""
    out = np.empty((state.shape[1], count))
    for j in range(count):
        _pcg_step(state)
        hi, lo = state[0], state[1]
        x, r = hi ^ lo, hi >> _U64(58)
        x = (x >> r) | (x << ((_U64(64) - r) & _U64(63)))
        out[:, j] = (x >> _U64(11)) * 2.0**-53
    return out


# Pixels a vehicle tries before it falls back to the camera's foot point.
_PLACEMENT_TRIES = 256


def _project(camera: SyntheticCamera, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pixel of each ``(..., 3)`` world point, and where it is in front of the camera.

    Elsewhere the pixel is meaningless (:meth:`SyntheticCamera.project_point`
    gives None).
    """
    q = np.matmul(camera.rotation, (points - camera.center)[..., None])[..., 0]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        pixels = camera.f * q[..., :2] / q[..., 2:] + camera.principal_point
    return pixels, q[..., 2] > 1e-9


def _ground_points(camera: SyntheticCamera, pixels: np.ndarray, max_range: float) -> np.ndarray:
    """The road-plane ``(x, y)`` seen at each ``(N, 2)`` pixel.

    NaN where the pixel's ray does not point down (at or above the horizon)
    or meets the road farther than ``max_range`` from the camera foot.
    """
    p = camera.principal_point
    rays = np.stack(
        [(pixels[:, 0] - p[0]) / camera.f, (pixels[:, 1] - p[1]) / camera.f, np.ones(len(pixels))],
        axis=1,
    )
    # the transposed view: a contiguous copy of it rounds differently
    rays = np.matmul(camera.rotation.T, rays[:, :, None])[:, :, 0]
    down = np.flatnonzero(rays[:, 2] < -1e-12)
    xy = 0.0 + (camera.height / -rays[down, 2])[:, None] * rays[down, :2]
    near = ~(np.hypot(xy[:, 0], xy[:, 1]) > max_range)
    out = np.full((len(pixels), 2), np.nan)
    out[down[near]] = xy[near]
    return out


def _place_vehicles(
    spec: SceneSpec, camera: SyntheticCamera
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Road-plane positions ``(N, 2)``, headings ``(N,)`` and dimensions ``(N, 3)``.

    Vehicle ``k`` draws from substream ``(seed, k)``: pixels with a small
    frame margin until one sees road within range (the camera foot point if
    none of ``_PLACEMENT_TRIES`` does), then heading, length, width and
    height, each ``low + (high - low) * g.random()`` as ``g.uniform`` draws
    it. Every vehicle's next six draws form a window that a rejected pixel
    shifts by two, so only the rejected vehicles draw again. All streams
    step together, as columns of :func:`_pcg_random`; a rejected vehicle's
    stream continues from its window.
    """
    w, h = camera.image_size
    low, high = np.array([0.1 * w, 0.1 * h]), np.array([0.9 * w, 0.9 * h])
    max_range = 60.0 * camera.height
    state = _pcg_states(_seed_states(spec.seed, np.arange(spec.n_vehicles)))
    window = _pcg_random(state, 6)
    position = _ground_points(camera, low + (high - low) * window[:, :2], max_range)
    retry = np.flatnonzero(np.isnan(position[:, 0]))
    state = state[:, retry]
    for _ in range(_PLACEMENT_TRIES - 1):
        if not len(retry):
            break
        window[retry] = np.concatenate([window[retry, 2:], _pcg_random(state, 2)], axis=1)
        position[retry] = _ground_points(camera, low + (high - low) * window[retry, :2], max_range)
        rejected = np.isnan(position[retry, 0])
        retry, state = retry[rejected], state[:, rejected]
    position[retry] = 0.0  # the camera sees no usable road surface
    dims_low, dims_high = np.array([3.8, 1.6, 1.3]), np.array([5.2, 2.0, 1.8])
    return position, 2.0 * np.pi * window[:, 2], dims_low + (dims_high - dims_low) * window[:, 3:]


def _direction_vps(camera: SyntheticCamera, directions: np.ndarray) -> tuple[np.ndarray, ...]:
    """The vanishing point of each ``(N, 3)`` world direction, and where it is at infinity.

    A direction at infinity (parallel to the image plane) gets its unit
    image direction in place of a point.
    """
    d = np.matmul(camera.rotation, directions[:, :, None])[:, :, 0]
    at_infinity = np.abs(d[:, 2]) < _DIRECTION_EPS * row_norms(d)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        end = camera.f * d[:, :2] / d[:, 2:] + camera.principal_point
    d = d[at_infinity, :2]
    end[at_infinity] = d / row_norms(d)[:, None]
    return end, at_infinity


def _vehicle_pairs(camera: SyntheticCamera, heading: np.ndarray) -> tuple[np.ndarray, ...]:
    """The vanishing points of each heading and its axle, as pair columns.

    Returns ``(first, second, first_is_direction, second_is_direction)``.
    """
    c, s = np.cos(heading), np.sin(heading)
    zero = np.zeros_like(heading)
    first, first_is_direction = _direction_vps(camera, np.stack([c, s, zero], axis=1))
    second, second_is_direction = _direction_vps(camera, np.stack([-s, c, zero], axis=1))
    return first, second, first_is_direction, second_is_direction


def _corners(position: np.ndarray, heading: np.ndarray, dims: np.ndarray) -> np.ndarray:
    """``(N, 8, 3)`` world corners of the vehicles' cuboids, in the order dx, dy, dz."""
    c, s = np.cos(heading)[:, None, None, None], np.sin(heading)[:, None, None, None]
    length, width, height = dims.T
    dx = np.stack([-length / 2, length / 2], axis=1)[:, :, None, None]
    dy = np.stack([-width / 2, width / 2], axis=1)[:, None, :, None]
    dz = np.stack([np.zeros_like(height), height], axis=1)[:, None, None, :]
    x = position[:, 0, None, None, None] + dx * c - dy * s
    y = position[:, 1, None, None, None] + dx * s + dy * c
    return np.stack(np.broadcast_arrays(x, y, dz), axis=-1).reshape(-1, 8, 3)


def _image_boxes(
    camera: SyntheticCamera, position: np.ndarray, heading: np.ndarray, dims: np.ndarray
) -> np.ndarray:
    """``(N, 4)`` image boxes ``(x0, y0, x1, y1)`` of the vehicles.

    A box hulls the projected corners of :func:`vehicle_bbox_3d`. Where a
    corner is behind the camera or the hull is under a pixel wide or high,
    the box is 100 px square around the projected position (or the
    principal point, if that is behind the camera too).
    """
    corners = _corners(position, heading, dims)
    pixels, visible = _project(camera, corners)
    low, high = pixels.min(axis=1), pixels.max(axis=1)
    boxes = np.concatenate([low, high], axis=1)
    fallback = np.flatnonzero(~visible.all(axis=1) | ((high - low) < 1.0).any(axis=1))
    if len(fallback):
        ground = np.concatenate([position[fallback], np.zeros((len(fallback), 1))], axis=1)
        anchor, visible = _project(camera, ground)
        anchor[~visible] = camera.principal_point
        boxes[fallback] = np.concatenate([anchor - 50.0, anchor + 50.0], axis=1)
    return boxes


@dataclass(frozen=True)
class SyntheticObservation:
    """One vehicle as the pipeline would see it: frame, box, vanishing points."""

    frame_index: int
    vehicle: SyntheticVehicle
    box: BBox
    pair: VPPair
    is_outlier: bool = False


@dataclass(frozen=True, eq=False)
class SyntheticObservations:
    """A scene's observations as columns; item ``k`` is the one of frame ``k``.

    ``position`` ``(N, 2)``, ``heading`` ``(N,)`` and ``dims`` ``(N, 3)``
    describe the vehicles, ``boxes`` ``(N, 4)`` their image boxes as
    ``(x0, y0, x1, y1)``, ``pairs`` their vanishing points and
    ``is_outlier`` the pairs replaced by outliers; the arrays are read-only.
    Indexing and iterating build :class:`SyntheticObservation` objects on
    demand.
    """

    position: np.ndarray
    heading: np.ndarray
    dims: np.ndarray
    boxes: np.ndarray
    pairs: PairSet
    is_outlier: np.ndarray

    def __post_init__(self):
        for array in (self.position, self.heading, self.dims, self.boxes, self.is_outlier):
            array.setflags(write=False)

    def __len__(self) -> int:
        return len(self.heading)

    def __getitem__(self, k: int) -> SyntheticObservation:
        k = range(len(self))[k]
        return SyntheticObservation(
            frame_index=k,
            vehicle=SyntheticVehicle(
                self.position[k], float(self.heading[k]), tuple(self.dims[k].tolist())
            ),
            box=BBox(*self.boxes[k].tolist()),
            pair=self.pairs[k],
            is_outlier=bool(self.is_outlier[k]),
        )

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))


def generate_observations(
    spec: SceneSpec, parallel: bool = False
) -> tuple[SyntheticObservations, list[DistanceMeasurement], CameraCalibration]:
    """Per-vehicle observations, tape measurements, and the exact calibration.

    Every vehicle is built in array passes over the whole scene, from its
    own substreams: placement ``(seed, k)``, whose streams step together as
    columns (:func:`_place_vehicles`), and pixel noise ``(seed, 2n + k)``
    (finite pairs only, four normal draws, from numpy's ``Generator``).
    Outlier observations replace a seeded random subset of the pairs with
    uniform random points drawn from a box three times the image size.
    Deterministic given the ``SceneSpec``; ``parallel`` is accepted for
    compatibility and has no effect.
    """
    camera = make_camera(spec)
    n = spec.n_vehicles
    position, heading, dims = _place_vehicles(spec, camera)
    first, second, first_is_direction, second_is_direction = _vehicle_pairs(camera, heading)

    is_outlier = np.zeros(n, dtype=bool)
    n_out = int(round(spec.outlier_fraction * n))
    if n_out:
        (orng,) = _substreams(spec.seed, [10**6])
        rows = np.sort(orng.choice(n, size=n_out, replace=False))
        w, h = spec.image_size
        low = np.array([-w, -h, -w, -h], dtype=float)
        high = np.array([2 * w, 2 * h, 2 * w, 2 * h], dtype=float)
        ends = low + (high - low) * orng.random((n_out, 4))
        first[rows], second[rows] = ends[:, :2], ends[:, 2:]
        first_is_direction[rows] = second_is_direction[rows] = False
        is_outlier[rows] = True

    if spec.noise_sigma_px > 0:
        # an outlier's noise would be overwritten: its stream is not drawn
        rows = np.flatnonzero(~(first_is_direction | second_is_direction | is_outlier))
        normal = [g.standard_normal(4) for g in _substreams(spec.seed, 2 * n + rows)]
        noise = spec.noise_sigma_px * np.reshape(normal, (-1, 4))
        first[rows] += noise[:, :2]
        second[rows] += noise[:, 2:]
    try:
        # a huge f, image_size or noise_sigma_px puts them past MAX_COORDINATE
        pairs = PairSet(first, second, first_is_direction, second_is_direction)
    except ValueError as exc:
        raise InputFormatError(f"scene spec gives unusable vanishing points: {exc}") from exc

    observations = SyntheticObservations(
        position=position,
        heading=heading,
        dims=dims,
        boxes=_image_boxes(camera, position, heading, dims),
        pairs=pairs,
        is_outlier=is_outlier,
    )
    return observations, _measurements(spec, camera), ground_truth_calibration(camera)


def generate_scene(
    spec: SceneSpec, parallel: bool = False
) -> tuple[PairSet, list[DistanceMeasurement], CameraCalibration]:
    """Vanishing-point pairs, tape measurements and exact calibration for one scene."""
    observations, measurements, truth = generate_observations(spec, parallel)
    return observations.pairs, measurements, truth


# The most sampler attempts drawn and tested at once: n_measurements has no bound.
_MEASUREMENT_BATCH = 4096


def _measurements(spec: SceneSpec, camera: SyntheticCamera) -> list[DistanceMeasurement]:
    """Tape measurements between ground points sampled through the image, so
    that any camera that sees road surface at all can be evaluated.

    Attempt ``k`` draws the pixels ``pa`` and ``pb`` from stream
    ``(seed, 10**6 + 1)``. It fails where either sees no road within range,
    where their ground points lie under 1 m apart, or where either projects
    behind the camera (with a tiny ``f``, a ray lies almost in the image
    plane). The first ``n_measurements`` passing attempts of at most
    ``500 * n_measurements`` are kept. Attempts come in batches of twice the
    measurements still missing; the stream serves nothing else, so draws
    past the last attempt used are harmless.
    """
    (rng,) = _substreams(spec.seed, [10**6 + 1])
    w, h = camera.image_size
    low, high = [0.05 * w, 0.05 * h] * 2, [0.95 * w, 0.95 * h] * 2
    max_range = 60.0 * camera.height
    kept, n_kept, budget = [], 0, 500 * spec.n_measurements
    while n_kept < spec.n_measurements and budget > 0:
        k = min(2 * (spec.n_measurements - n_kept), _MEASUREMENT_BATCH, budget)
        budget -= k
        # each row: pa, then pb
        ground = _ground_points(camera, rng.uniform(low, high, (k, 4)).reshape(-1, 2), max_range)
        ends = np.concatenate([ground, np.zeros((2 * k, 1))], axis=1).reshape(k, 2, 3)
        distance = row_norms(ends[:, 0] - ends[:, 1])
        pixels, visible = _project(camera, ends)
        # a pixel that sees no road in range makes the distance NaN, which fails
        passed = (distance >= 1.0) & visible.all(axis=1)
        kept.append(np.concatenate([pixels.reshape(k, 4), distance[:, None]], axis=1)[passed])
        n_kept += len(kept[-1])
    if n_kept < spec.n_measurements:
        raise InsufficientMeasurements(
            f"a camera at tilt_deg={spec.tilt_deg} sees too little road for the measurements"
        )
    rows = np.concatenate([np.empty((0, 5)), *kept])[: spec.n_measurements]
    return [DistanceMeasurement(a, b, d)
            for a, b, d in zip(rows[:, :2], rows[:, 2:4], rows[:, 4].tolist())]


# ---------------------------------------------------------------------------
# training-augmentation geometry


@dataclass(frozen=True)
class AugmentationParams:
    corner_sigma: float = 12.5
    bbox_jitter: float = 5.0
    flip_prob: float = 0.5
    rng_seed: int = 0

    def __post_init__(self):
        check_real(self.corner_sigma, "corner_sigma", 0.0, MAX_COORDINATE)
        check_real(self.bbox_jitter, "bbox_jitter", 0.0, MAX_COORDINATE)
        check_real(self.flip_prob, "flip_prob", 0.0, 1.0)
        object.__setattr__(self, "rng_seed", check_integer(self.rng_seed, "rng_seed", 0))


def homography_from_corners(src, dst) -> np.ndarray:
    """Homography mapping four source points onto four destination points."""
    src = as_float_array(src, "src", (4, 2))
    dst = as_float_array(dst, "dst", (4, 2))
    rows = []
    rhs = []
    for (x, y), (X, Y) in zip(src, dst):
        rows.append([x, y, 1, 0, 0, 0, -X * x, -X * y])
        rows.append([0, 0, 0, x, y, 1, -Y * x, -Y * y])
        rhs.extend([X, Y])
    try:
        sol = np.linalg.solve(np.array(rows), np.array(rhs))
    except np.linalg.LinAlgError as exc:
        raise DegenerateHomography(f"corner configuration is degenerate: {exc}") from exc
    H = np.append(sol, 1.0).reshape(3, 3)
    with np.errstate(over="ignore", invalid="ignore"):
        det = np.linalg.det(H)
    if not (np.isfinite(H).all() and 1e-12 <= abs(det) < np.inf):
        raise DegenerateHomography("homography is singular or not finite")
    return H


def apply_homography(H, points) -> np.ndarray:
    """Apply a homography to (n, 2) Cartesian points."""
    pts = as_float_array(points, "points")
    pts = np.atleast_2d(pts)
    hom = np.concatenate([pts, np.ones((len(pts), 1))], axis=1) @ np.asarray(H, dtype=float).T
    return hom[:, :2] / hom[:, 2:3]


def augment(
    image_size,
    bbox_3d_points,
    params: AugmentationParams,
) -> tuple[np.ndarray, BBox, bool]:
    """Random perspective warp + box jitter + horizontal flip, as geometry.

    ``bbox_3d_points`` are the eight projected corners of the vehicle's 3D
    box in frame pixels. Returns the total homography (flip included), the
    jittered axis-aligned hull of the warped box points, and the flip flag.
    Vanishing points transform covariantly under the returned homography.
    Zero-noise parameters yield the exact identity.
    """
    w, h = check_image_size(image_size)
    box_pts = as_float_array(bbox_3d_points, "bbox_3d_points", (8, 2))
    rng = np.random.default_rng(np.random.PCG64(params.rng_seed))

    corners = np.array([[0.0, 0.0], [w - 1.0, 0.0], [w - 1.0, h - 1.0], [0.0, h - 1.0]])
    if params.corner_sigma == 0.0:
        H = np.eye(3)
    else:
        for _ in range(_AUGMENT_RETRIES):
            warped = corners + rng.normal(0.0, params.corner_sigma, (4, 2))
            try:
                H = homography_from_corners(corners, warped)
                break
            except DegenerateHomography:
                continue
        else:
            raise DegenerateHomography(
                f"no valid corner perturbation found in {_AUGMENT_RETRIES} tries"
            )

    flipped = bool(rng.random() < params.flip_prob) if params.flip_prob > 0 else False
    # no finite box from a box point on the warp's line at infinity or past float64
    with np.errstate(all="ignore"):
        if flipped:
            flip = np.array([[-1.0, 0.0, w - 1.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
            H = flip @ H
        moved = apply_homography(H, box_pts)
    if not (np.isfinite(H).all() and np.isfinite(moved).all()):
        raise DegenerateHomography("the warped box is not finite")
    # in Python floats, whose overflow is quiet
    x0, y0 = moved.min(axis=0).tolist()
    x1, y1 = moved.max(axis=0).tolist()
    if params.bbox_jitter > 0:
        jit = rng.uniform(-params.bbox_jitter, params.bbox_jitter, 4).tolist()
        x0, y0, x1, y1 = x0 + jit[0], y0 + jit[1], x1 + jit[2], y1 + jit[3]
    # jitter can invert a degenerate-thin box; keep the corners ordered
    x0, x1 = min(x0, x1), max(x0, x1)
    y0, y1 = min(y0, y1), max(y0, y1)
    # a side thinner than 1e-9 px is widened to that, or to the next float
    # where 1e-9 px adds nothing; the other side keeps its extent
    if x1 - x0 < 1e-9:
        x1 = max(x0 + 1e-9, float(np.nextafter(x0, np.inf)))
    if y1 - y0 < 1e-9:
        y1 = max(y0 + 1e-9, float(np.nextafter(y0, np.inf)))
    return H, BBox(x0, y0, x1, y1), flipped
