"""Synthetic scene oracle: cameras, vehicles, exact vanishing points, tape
measurements, and the geometric training-augmentation transform.

World frame: x-y is the road plane, z points up. Camera frame: x right,
y down, z along the optical axis. A camera with zero tilt and roll looks
along world +y; tilt pitches it down about its own x axis, roll turns it
about the optical axis. All randomness flows through explicitly seeded
PCG64 generators with per-vehicle substreams derived from (seed, index), so
generation agrees bit for bit across platforms.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from ._validation import as_float_array, check_image_size, check_positive
from .calibration import CameraCalibration, CameraIntrinsics, VPPair
from .errors import DegenerateHomography, InsufficientMeasurements
from .evaluation import DistanceMeasurement
from .heatmap import BBox

__all__ = [
    "SyntheticCamera",
    "SyntheticVehicle",
    "SyntheticObservation",
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
        check_positive(self.f, "f")
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
        d = self.rotation @ as_float_array(direction, "direction", (3,))
        if abs(d[2]) < _DIRECTION_EPS * np.linalg.norm(d):
            return None
        return np.array(
            [
                self.f * d[0] / d[2] + self.principal_point[0],
                self.f * d[1] / d[2] + self.principal_point[1],
            ]
        )

    def image_direction(self, direction) -> np.ndarray:
        """Image-plane direction (for vanishing points at infinity)."""
        d = self.rotation @ as_float_array(direction, "direction", (3,))
        v = np.array([d[0], d[1]])
        return v / np.linalg.norm(v)

    def project_point(self, point_world) -> np.ndarray | None:
        """Pixel position of a world point, or None when behind the camera."""
        q = self.rotation @ (as_float_array(point_world, "point", (3,)) - self.center)
        if q[2] <= 1e-9:
            return None
        return np.array(
            [
                self.f * q[0] / q[2] + self.principal_point[0],
                self.f * q[1] / q[2] + self.principal_point[1],
            ]
        )

    def ground_point(self, pixel, max_range: float = 500.0) -> np.ndarray | None:
        """World road-plane point seen at a pixel, or None above the horizon.

        Rejects intersections farther than ``max_range`` metres from the
        camera foot, which keeps near-horizon pixels from producing
        kilometre-scale geometry.
        """
        pixel = as_float_array(pixel, "pixel", (2,))
        ray_cam = np.array(
            [
                (pixel[0] - self.principal_point[0]) / self.f,
                (pixel[1] - self.principal_point[1]) / self.f,
                1.0,
            ]
        )
        ray_world = self.rotation.T @ ray_cam
        if ray_world[2] >= -1e-12:
            return None
        t = self.height / -ray_world[2]
        point = self.center + t * ray_world
        if np.hypot(point[0], point[1]) > max_range:
            return None
        return np.array([point[0], point[1], 0.0])


@dataclass(frozen=True)
class SyntheticVehicle:
    position: np.ndarray  # (x, y) on the road plane, metres
    heading: float  # radians
    dims: tuple[float, float, float] = (4.5, 1.8, 1.5)  # length, width, height

    def __post_init__(self):
        object.__setattr__(self, "position", as_float_array(self.position, "position", (2,)))
        if any(d <= 0 for d in self.dims):
            raise ValueError(f"vehicle dimensions must be positive, got {self.dims}")


@dataclass
class SceneSpec:
    """Parameters of one synthetic scene; a pure function of these + seed."""

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
        check_image_size(self.image_size)
        for name, low in (("seed", 0), ("n_vehicles", 1), ("n_measurements", 0)):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        check_positive(self.f, "f")
        check_positive(self.camera_height, "camera_height")
        as_float_array([self.tilt_deg, self.roll_deg], "tilt_deg and roll_deg")
        if not (0.0 <= self.outlier_fraction <= 1.0):
            raise ValueError("outlier_fraction must lie in [0, 1]")
        if not 0.0 <= self.noise_sigma_px < np.inf:
            raise ValueError("noise_sigma_px must be finite and >= 0")

    @classmethod
    def from_json(cls, text: str) -> "SceneSpec":
        data = json.loads(text)
        unknown = sorted(set(data) - set(cls.__dataclass_fields__))
        if unknown:
            raise ValueError(f"unknown scene spec keys: {unknown}")
        if "image_size" in data:
            data["image_size"] = tuple(data["image_size"])
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
    heading = np.array([np.cos(vehicle.heading), np.sin(vehicle.heading), 0.0])
    axle = np.array([-np.sin(vehicle.heading), np.cos(vehicle.heading), 0.0])
    first = camera.project_direction(heading)
    second = camera.project_direction(axle)
    return VPPair(
        first=first if first is not None else camera.image_direction(heading),
        second=second if second is not None else camera.image_direction(axle),
        first_is_direction=first is None,
        second_is_direction=second is None,
    )


def vehicle_bbox_3d(vehicle: SyntheticVehicle) -> np.ndarray:
    """World coordinates of the vehicle's eight cuboid corners."""
    length, width, height = vehicle.dims
    c, s = np.cos(vehicle.heading), np.sin(vehicle.heading)
    corners = []
    for dx in (-length / 2, length / 2):
        for dy in (-width / 2, width / 2):
            for dz in (0.0, height):
                corners.append(
                    [
                        vehicle.position[0] + dx * c - dy * s,
                        vehicle.position[1] + dx * s + dy * c,
                        dz,
                    ]
                )
    return np.array(corners)


def _vehicle_image_bbox(camera: SyntheticCamera, vehicle: SyntheticVehicle) -> BBox | None:
    pts = [camera.project_point(c) for c in vehicle_bbox_3d(vehicle)]
    if any(p is None for p in pts):
        return None
    arr = np.array(pts)
    x0, y0 = arr.min(axis=0)
    x1, y1 = arr.max(axis=0)
    if x1 - x0 < 1.0 or y1 - y0 < 1.0:
        return None
    return BBox(x0, y0, x1, y1)


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


def _substream(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, index)))


def _make_vehicle(spec: SceneSpec, camera: SyntheticCamera, index: int) -> SyntheticVehicle:
    # place vehicles on ground actually seen by the camera: sample a pixel
    # with a small frame margin and drop it onto the road plane
    rng = _substream(spec.seed, index)
    w, h = camera.image_size
    ground = None
    for _ in range(256):
        pixel = rng.uniform([0.1 * w, 0.1 * h], [0.9 * w, 0.9 * h])
        candidate = camera.ground_point(pixel, max_range=60.0 * camera.height)
        if candidate is not None:
            ground = candidate
            break
    if ground is None:
        # camera sees no usable road surface; fall back to its foot point
        ground = np.zeros(3)
    heading = rng.uniform(0.0, 2.0 * np.pi)
    dims = (
        rng.uniform(3.8, 5.2),
        rng.uniform(1.6, 2.0),
        rng.uniform(1.3, 1.8),
    )
    return SyntheticVehicle(ground[:2], heading, dims)


@dataclass(frozen=True)
class SyntheticObservation:
    """One vehicle as the pipeline would see it: frame, box, vanishing points."""

    frame_index: int
    vehicle: SyntheticVehicle
    box: BBox
    pair: VPPair
    is_outlier: bool = False


def _vehicle_payload(spec: SceneSpec, camera: SyntheticCamera, index: int) -> SyntheticObservation:
    vehicle = _make_vehicle(spec, camera, index)
    pair = vehicle_vps(camera, vehicle)
    if spec.noise_sigma_px > 0 and pair.finite:
        # noise stream is disjoint from the placement streams by index offset
        noise = _substream(spec.seed, 2 * spec.n_vehicles + index)
        pair = VPPair(
            first=pair.first + noise.normal(0.0, spec.noise_sigma_px, 2),
            second=pair.second + noise.normal(0.0, spec.noise_sigma_px, 2),
        )
    box = _vehicle_image_bbox(camera, vehicle)
    if box is None:
        anchor = camera.project_point(
            np.array([vehicle.position[0], vehicle.position[1], 0.0])
        )
        cx, cy = (anchor if anchor is not None else camera.principal_point)
        box = BBox(cx - 50.0, cy - 50.0, cx + 50.0, cy + 50.0)
    return SyntheticObservation(frame_index=index, vehicle=vehicle, box=box, pair=pair)


def generate_observations(
    spec: SceneSpec, parallel: bool = False
) -> tuple[list[SyntheticObservation], list[DistanceMeasurement], CameraCalibration]:
    """Per-vehicle observations, tape measurements, and the exact calibration.

    Outlier observations replace a seeded random subset of the clean pairs
    with uniform random points drawn from a box three times the image size.
    Deterministic given the ``SceneSpec``; ``parallel`` is accepted for
    compatibility and has no effect (threads made generation slower).
    """
    camera = make_camera(spec)
    observations = [_vehicle_payload(spec, camera, k) for k in range(spec.n_vehicles)]

    n_out = int(round(spec.outlier_fraction * len(observations)))
    if n_out:
        orng = _substream(spec.seed, 10**6)
        w, h = spec.image_size
        replace = sorted(orng.choice(len(observations), size=n_out, replace=False))
        for idx in replace:
            obs = observations[idx]
            observations[idx] = SyntheticObservation(
                frame_index=obs.frame_index,
                vehicle=obs.vehicle,
                box=obs.box,
                pair=VPPair(
                    first=orng.uniform([-w, -h], [2 * w, 2 * h]),
                    second=orng.uniform([-w, -h], [2 * w, 2 * h]),
                ),
                is_outlier=True,
            )

    measurements = _measurements(spec, camera)
    return observations, measurements, ground_truth_calibration(camera)


def generate_scene(
    spec: SceneSpec, parallel: bool = False
) -> tuple[list[VPPair], list[DistanceMeasurement], CameraCalibration]:
    """Vanishing-point pairs, tape measurements and exact calibration for one scene."""
    observations, measurements, truth = generate_observations(spec, parallel)
    return [obs.pair for obs in observations], measurements, truth


def _measurements(spec: SceneSpec, camera: SyntheticCamera) -> list[DistanceMeasurement]:
    # tape measurements between ground points sampled through the image, so
    # any camera that sees road surface at all can be evaluated
    rng = _substream(spec.seed, 10**6 + 1)
    w, h = camera.image_size
    out: list[DistanceMeasurement] = []
    attempts = 0
    max_range = 60.0 * camera.height
    while len(out) < spec.n_measurements and attempts < 500 * spec.n_measurements:
        attempts += 1
        pa = rng.uniform([0.05 * w, 0.05 * h], [0.95 * w, 0.95 * h])
        pb = rng.uniform([0.05 * w, 0.05 * h], [0.95 * w, 0.95 * h])
        a_world = camera.ground_point(pa, max_range)
        b_world = camera.ground_point(pb, max_range)
        if a_world is None or b_world is None:
            continue
        distance = float(np.linalg.norm(a_world - b_world))
        if distance < 1.0:
            continue
        a = camera.project_point(a_world)
        b = camera.project_point(b_world)
        out.append(DistanceMeasurement(a, b, distance))
    if len(out) < spec.n_measurements:
        raise InsufficientMeasurements(
            f"a camera at tilt_deg={spec.tilt_deg} sees too little road for the measurements"
        )
    return out


# ---------------------------------------------------------------------------
# training-augmentation geometry


@dataclass(frozen=True)
class AugmentationParams:
    corner_sigma: float = 12.5
    bbox_jitter: float = 5.0
    flip_prob: float = 0.5
    rng_seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.corner_sigma < np.inf and 0.0 <= self.bbox_jitter < np.inf):
            raise ValueError("corner_sigma and bbox_jitter must be finite and >= 0")
        if not (0.0 <= self.flip_prob <= 1.0):
            raise ValueError("flip_prob must lie in [0, 1]")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be >= 0, got {self.rng_seed}")


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
    if abs(np.linalg.det(H)) < 1e-12:
        raise DegenerateHomography("homography is singular")
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
    max_retries: int = 16,
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
        for attempt in range(max_retries):
            warped = corners + rng.normal(0.0, params.corner_sigma, (4, 2))
            try:
                H = homography_from_corners(corners, warped)
                break
            except DegenerateHomography:
                continue
        else:
            raise DegenerateHomography(
                f"no valid corner perturbation found in {max_retries} tries"
            )

    flipped = bool(rng.random() < params.flip_prob) if params.flip_prob > 0 else False
    if flipped:
        flip = np.array([[-1.0, 0.0, w - 1.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        H = flip @ H

    moved = apply_homography(H, box_pts)
    x0, y0 = moved.min(axis=0)
    x1, y1 = moved.max(axis=0)
    if params.bbox_jitter > 0:
        jit = rng.uniform(-params.bbox_jitter, params.bbox_jitter, 4)
        x0, y0, x1, y1 = x0 + jit[0], y0 + jit[1], x1 + jit[2], y1 + jit[3]
    # jitter can invert a degenerate-thin box; keep the corners ordered
    x0, x1 = min(x0, x1), max(x0, x1)
    y0, y1 = min(y0, y1), max(y0, y1)
    if x1 - x0 < 1e-9 or y1 - y0 < 1e-9:
        x1, y1 = x0 + 1e-9, y0 + 1e-9
    return H, BBox(x0, y0, x1, y1), flipped
