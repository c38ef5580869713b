"""Camera calibration from orthogonal vehicle vanishing-point pairs.

Each observed vehicle contributes a pair of vanishing points: the direction
it faces and the orthogonal direction along its axles, both parallel to the
road plane. Every pair constrains the focal length through the orthogonality
relation ``f = sqrt(-(u - p) . (v - p))``; all the points together lie on the
horizon line, whose preimage under the intrinsic matrix is the road-plane
normal. Aggregation is median-based throughout, so up to half the pairs can
be arbitrarily wrong without moving the result outside the range of the good
ones.

The estimators work on a :class:`PairSet`, the pairs as columns, so each
median is a few array operations whatever the number of vehicles; they also
accept a list of :class:`VPPair`, converted once.

``VanishingPointCalibrator`` wraps the procedure in a scikit-learn style
``fit``/``transform`` estimator so it can sit in standard pipelines;
``transform`` maps frame-pixel points onto the reconstructed road plane.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._validation import (
    LENGTH_RANGE,
    MAX_COORDINATE,
    BOOL_TYPES,
    as_float_array,
    as_mask,
    as_point,
    as_points_2d,
    as_real_array,
    check_coordinates,
    check_fitted,
    check_image_size,
    check_integer,
    check_real,
)
from .errors import (
    DegenerateInput,
    DegenerateNormal,
    ImaginaryFocal,
    InsufficientPairs,
    NearVerticalHorizon,
    NearZeroFocal,
    PointOnHorizon,
)
from .projective import row_dots, row_norms

__all__ = [
    "VPPair",
    "PairSet",
    "CameraIntrinsics",
    "CameraCalibration",
    "focal_from_pair",
    "estimate_focal",
    "estimate_horizon",
    "plane_normal_from_horizon",
    "project_to_plane",
    "calibrate",
    "VanishingPointCalibrator",
]

DEFAULT_MIN_PAIRS = 5
FOCAL_EPSILON = 1.0  # px; focal lengths below this are noise
SLOPE_EPSILON = 1e-6  # px; guard against vertical pair lines
# VPPair and PairSet reject a coordinate beyond MAX_COORDINATE, as they reject
# a non-finite one; PairSet.valid_rows drops its row.

# The largest |entry| of a calibration's horizon and plane normal: calibrate
# gives below 6e106 from pairs within MAX_COORDINATE, and 3 * 1e300 is finite.
MAX_COEFFICIENT = 1e150


@dataclass(frozen=True)
class VPPair:
    """One vehicle's vanishing points in frame pixels.

    A member flagged ``*_is_direction`` holds a direction vector instead of a
    position: its vanishing point lies at infinity. Such members still carry
    horizon-slope information but cannot enter the focal-length relation.
    """

    first: np.ndarray
    second: np.ndarray
    first_is_direction: bool = False
    second_is_direction: bool = False

    def __post_init__(self):
        object.__setattr__(self, "first", as_point(self.first, "first"))
        object.__setattr__(self, "second", as_point(self.second, "second"))
        for name in ("first_is_direction", "second_is_direction"):
            if type(getattr(self, name)) not in BOOL_TYPES:
                raise ValueError(f"{name} must be a bool, got {getattr(self, name)!r}")
        if (
            not self.first_is_direction
            and not self.second_is_direction
            and np.allclose(self.first, self.second)
        ):
            raise ValueError("vanishing points of a pair must be distinct")

    @property
    def finite(self) -> bool:
        return not (self.first_is_direction or self.second_is_direction)


def _coincident(first, second, first_is_direction, second_is_direction) -> np.ndarray:
    """Rows whose two finite vanishing points are ``np.allclose``: no constraint."""
    close = np.isclose(first, second).all(axis=1)
    return close & ~first_is_direction & ~second_is_direction


class PairSet:
    """Vanishing-point pairs as columns: the array form of a list of :class:`VPPair`.

    ``first`` and ``second`` are read-only ``(N, 2)`` float arrays, and
    ``first_is_direction`` / ``second_is_direction`` boolean ``(N,)`` masks
    (default all False). The constructor applies :class:`VPPair`'s checks to
    every row at once, and takes an ndarray of numbers or bools by its dtype.
    Iterating yields one :class:`VPPair` per row, in order, and indexing the
    one of a row.
    """

    __slots__ = ("first", "second", "first_is_direction", "second_is_direction")

    def __init__(self, first, second, first_is_direction=None, second_is_direction=None):
        first = np.array(as_real_array(first, "first"))
        second = np.array(as_real_array(second, "second"))
        for name, arr in (("first", first), ("second", second)):
            if arr.ndim != 2 or arr.shape[1] != 2:
                raise ValueError(f"{name} must be an (n, 2) array, got shape {arr.shape}")
            check_coordinates(arr, name)
        if len(first) != len(second):
            raise ValueError(f"{len(first)} first and {len(second)} second vanishing points")
        masks = []
        for name, mask in (("first_is_direction", first_is_direction),
                           ("second_is_direction", second_is_direction)):
            mask = np.zeros(len(first), bool) if mask is None else as_mask(mask, name)
            if mask.shape != (len(first),):
                raise ValueError(f"{name} must hold one flag per pair, got shape {mask.shape}")
            masks.append(mask)
        if _coincident(first, second, *masks).any():
            raise ValueError("vanishing points of a pair must be distinct")
        for name, arr in zip(self.__slots__, (first, second, *masks)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __setattr__(self, name, value):
        raise AttributeError("PairSet is immutable")

    @classmethod
    def of(cls, pairs) -> "PairSet":
        """``pairs`` itself if a PairSet, else the PairSet of its :class:`VPPair` items."""
        if isinstance(pairs, PairSet):
            return pairs
        pairs = list(pairs)
        return cls(
            np.reshape([p.first for p in pairs], (-1, 2)),
            np.reshape([p.second for p in pairs], (-1, 2)),
            np.array([p.first_is_direction for p in pairs], dtype=bool),
            np.array([p.second_is_direction for p in pairs], dtype=bool),
        )

    @classmethod
    def valid_rows(cls, first, second, first_is_direction, second_is_direction) -> "PairSet":
        """The PairSet of the rows that make a usable pair, the others dropped.

        A row is dropped where an entry is not finite or exceeds
        :data:`MAX_COORDINATE` in magnitude, or where its two finite
        vanishing points coincide.
        """
        keep = (np.abs(first) <= MAX_COORDINATE).all(axis=1)
        keep &= (np.abs(second) <= MAX_COORDINATE).all(axis=1)
        keep[keep] = ~_coincident(
            first[keep], second[keep], first_is_direction[keep], second_is_direction[keep]
        )
        return cls(first[keep], second[keep], first_is_direction[keep], second_is_direction[keep])

    def __len__(self) -> int:
        return len(self.first)

    def __getitem__(self, k: int) -> VPPair:
        return VPPair(
            self.first[k],
            self.second[k],
            first_is_direction=bool(self.first_is_direction[k]),
            second_is_direction=bool(self.second_is_direction[k]),
        )

    def __iter__(self):
        flags = zip(self.first_is_direction.tolist(), self.second_is_direction.tolist())
        for first, second, (first_dir, second_dir) in zip(self.first, self.second, flags):
            yield VPPair(first, second, first_is_direction=first_dir, second_is_direction=second_dir)

    @property
    def finite(self) -> np.ndarray:
        """Rows whose vanishing points are both positions, not directions."""
        return ~(self.first_is_direction | self.second_is_direction)


@dataclass(frozen=True)
class CameraIntrinsics:
    """Focal length in :data:`LENGTH_RANGE`, principal point within :data:`MAX_COORDINATE`."""

    f: float
    principal_point: np.ndarray

    def __post_init__(self):
        check_real(self.f, "f", *LENGTH_RANGE)
        object.__setattr__(self, "principal_point", as_point(self.principal_point, "principal_point"))


@dataclass(frozen=True)
class CameraCalibration:
    """Recovered scene geometry: intrinsics, horizon and road-plane normal.

    ``delta`` scales the road plane; it cannot be recovered from vanishing
    points alone, so it defaults to 1 and all plane distances are relative.
    It lies in :data:`LENGTH_RANGE`, the horizon and normal entries within
    :data:`MAX_COEFFICIENT`, and the pair counts are integers >= 0.
    """

    intrinsics: CameraIntrinsics
    horizon: np.ndarray
    plane_normal: np.ndarray
    delta: float = 1.0
    n_pairs_used: int = 0
    n_pairs_rejected: int = 0

    def __post_init__(self):
        for name in ("horizon", "plane_normal"):
            line = as_float_array(getattr(self, name), name, (3,))
            if line.shape != (3,) or not (np.abs(line) <= MAX_COEFFICIENT).all():
                raise ValueError(f"{name} must be three numbers of magnitude <= "
                                 f"{MAX_COEFFICIENT:g}, got shape {line.shape}")
            object.__setattr__(self, name, line)
        if np.linalg.norm(self.plane_normal) < 1e-12:
            raise DegenerateNormal("plane normal is (near-)zero")
        if np.hypot(self.horizon[0], self.horizon[1]) == 0.0:
            raise ValueError("horizon must not be the line at infinity")
        check_real(self.delta, "delta", *LENGTH_RANGE)
        for name in ("n_pairs_used", "n_pairs_rejected"):
            object.__setattr__(self, name, check_integer(getattr(self, name), name, 0))

    @property
    def unit_normal(self) -> np.ndarray:
        """Unit plane normal with positive z component."""
        n = self.plane_normal / np.linalg.norm(self.plane_normal)
        return -n if n[2] < 0 else n

    def to_dict(self) -> dict:
        return {
            "f": self.intrinsics.f,
            "principal_point": self.intrinsics.principal_point.tolist(),
            "horizon": self.horizon.tolist(),
            "normal": self.plane_normal.tolist(),
            "delta": self.delta,
            "n_pairs_used": self.n_pairs_used,
            "n_pairs_rejected": self.n_pairs_rejected,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CameraCalibration":
        """The calibration of a :meth:`to_dict` dict as read from JSON."""
        return cls(
            intrinsics=CameraIntrinsics(data["f"], data["principal_point"]),
            horizon=data["horizon"],
            plane_normal=data["normal"],
            delta=data.get("delta", 1.0),
            n_pairs_used=data.get("n_pairs_used", 0),
            n_pairs_rejected=data.get("n_pairs_rejected", 0),
        )


# ---------------------------------------------------------------------------
# per-pair and aggregate estimators


def _focal_rule(first, second, principal_point) -> tuple[np.ndarray, ...]:
    """The radicand ``-(u - p) . (v - p)`` of each pair, the squared focal
    length it implies, and the masks of the pairs it rejects: imaginary
    (radicand not positive) and near zero (below ``FOCAL_EPSILON`` squared)."""
    radicand = -row_dots(first - principal_point, second - principal_point)
    return radicand, radicand <= 0.0, radicand < FOCAL_EPSILON * FOCAL_EPSILON


def focal_from_pair(pair: VPPair, principal_point) -> float:
    """Focal length from one orthogonal pair: ``sqrt(-(u - p) . (v - p))``.

    The dot product must be negative for a real focal length; configurations
    where it is not are geometrically invalid and rejected.
    """
    if not pair.finite:
        raise DegenerateInput("pair with a vanishing point at infinity has no focal constraint")
    p = as_float_array(principal_point, "principal_point", (2,))
    (radicand,), (imaginary,), (near_zero,) = _focal_rule(
        pair.first[None], pair.second[None], p)
    if imaginary:
        raise ImaginaryFocal(f"(u - p) . (v - p) = {-radicand} >= 0")
    if near_zero:
        raise NearZeroFocal(f"focal estimate {np.sqrt(radicand)} px below {FOCAL_EPSILON} px")
    return float(np.sqrt(radicand))


def _usable_focals(pairs: PairSet, principal_point, min_pairs: int) -> np.ndarray:
    """The focal lengths of the pairs :func:`focal_from_pair` accepts, at least ``min_pairs``."""
    finite = pairs.finite
    radicand, imaginary, near_zero = _focal_rule(
        pairs.first[finite], pairs.second[finite], principal_point)
    focals = np.sqrt(radicand[~imaginary & ~near_zero])
    if len(focals) < min_pairs:
        raise InsufficientPairs(
            f"{len(focals)} usable pairs for focal estimation, need {min_pairs}"
        )
    return focals


def estimate_focal(pairs, principal_point, min_pairs: int = DEFAULT_MIN_PAIRS) -> float:
    """Median of the surviving per-pair focal lengths.

    ``pairs`` is a :class:`PairSet` or a list of :class:`VPPair`. An even
    survivor count averages the two central values. Permutation invariant,
    and robust to fewer than half the pairs being corrupt.
    """
    p = as_float_array(principal_point, "principal_point", (2,))
    return float(np.median(_usable_focals(PairSet.of(pairs), p, min_pairs)))


def _pair_slopes(pairs: PairSet) -> np.ndarray:
    """Slopes of the pair lines that have one: first those through a direction, then the rest.

    A line through two directions is the ideal line. One through a direction
    has that direction's slope, unless the direction is (near-)vertical or
    of zero length. One through two points has none when their x
    coordinates lie within ``SLOPE_EPSILON``.
    """
    one = pairs.first_is_direction ^ pairs.second_is_direction
    d = np.where(pairs.first_is_direction[:, None], pairs.first, pairs.second)[one]
    n = row_norms(d)
    d = d[~((n == 0) | (np.abs(d[:, 0]) <= 1e-9 * n))]
    first, second = pairs.first[pairs.finite], pairs.second[pairs.finite]
    dx = first[:, 0] - second[:, 0]
    steep = np.abs(dx) <= SLOPE_EPSILON
    return np.concatenate(
        [d[:, 1] / d[:, 0], (first[~steep, 1] - second[~steep, 1]) / dx[~steep]]
    )


def estimate_horizon(pairs, min_pairs: int = DEFAULT_MIN_PAIRS) -> np.ndarray:
    """Horizon line (m, -1, q) via medians of pair slopes and point intercepts.

    ``pairs`` is a :class:`PairSet` or a list of :class:`VPPair`. Slope:
    median over the slopes of the lines joining each pair. Intercept: with
    the slope fixed, every finite vanishing point contributes
    ``q = y - m * x`` and the median is taken, vanishing points of
    slope-skipped pairs included. Pairs whose line is near-vertical are
    excluded from the slope median; if more than half the pairs are excluded
    the camera roll is pathological and the estimate aborts rather than
    return garbage.
    """
    pairs = PairSet.of(pairs)
    if not len(pairs):
        raise InsufficientPairs("no pairs given")
    usable = _pair_slopes(pairs)
    if len(usable) * 2 < len(pairs):
        raise NearVerticalHorizon(
            f"{len(pairs) - len(usable)} of {len(pairs)} pair lines are near-vertical"
        )
    if len(usable) < min_pairs:
        raise InsufficientPairs(
            f"{len(usable)} usable pairs for horizon estimation, need {min_pairs}"
        )
    slope = float(np.median(usable))
    points = np.concatenate(
        [pairs.first[~pairs.first_is_direction], pairs.second[~pairs.second_is_direction]]
    )
    intercept = float(np.median(points[:, 1] - points[:, 0] * slope))
    return np.array([slope, -1.0, intercept])


def plane_normal_from_horizon(horizon, intrinsics: CameraIntrinsics) -> np.ndarray:
    """Road-plane normal in camera coordinates from the horizon line.

    ``n = (f * a, f * b, p_x * a + p_y * b + c)`` for horizon (a, b, c):
    the transpose of the intrinsic matrix applied to the line. Returned
    unnormalized; see :attr:`CameraCalibration.unit_normal` for the unit copy.
    """
    h = as_float_array(horizon, "horizon", (3,))
    p = intrinsics.principal_point
    n = np.array(
        [
            intrinsics.f * h[0],
            intrinsics.f * h[1],
            p[0] * h[0] + p[1] * h[1] + h[2],
        ]
    )
    if np.linalg.norm(n) < 1e-12:
        raise DegenerateNormal("horizon maps to a zero normal")
    return n


def _plane_points(points: np.ndarray, calibration: CameraCalibration) -> tuple[np.ndarray, ...]:
    """The road-plane point of each ``(n, 2)`` image point, and where it has
    one, as :func:`project_to_plane` rules; elsewhere the point is meaningless."""
    p = calibration.intrinsics.principal_point
    rays = np.concatenate([points - p, np.full((len(points), 1), calibration.intrinsics.f)], axis=1)
    n = calibration.plane_normal
    depth = row_dots(rays, np.broadcast_to(n, rays.shape))
    limit = 1e-9 * np.linalg.norm(rays, axis=1) * np.linalg.norm(n)
    on_plane = ~(depth > -limit)
    return -(calibration.delta / np.where(on_plane, depth, -1.0))[:, None] * rays, on_plane


_ON_HORIZON = ("point lies on, too near or beyond the horizon: "
              "its ray meets the road plane behind the camera or nowhere")


def project_to_plane(point, calibration: CameraCalibration) -> np.ndarray:
    """Back-project frame pixels onto the road plane ``Q . n = -delta``.

    Accepts a single (x, y) point or an (n, 2) batch. A point whose ray
    meets the plane behind the camera (``t = -delta / depth <= 0``) or not
    at all is rejected: for ``n_y < 0``, as :func:`calibrate` gives, one on,
    too near or above the horizon.
    """
    points, on_plane = _plane_points(as_points_2d(point, "point"), calibration)
    if not on_plane.all():
        raise PointOnHorizon(_ON_HORIZON)
    return points[0] if np.asarray(point, dtype=float).ndim == 1 else points


def calibrate(
    pairs,
    image_size,
    min_pairs: int = DEFAULT_MIN_PAIRS,
    principal_point=None,
    delta: float = 1.0,
) -> CameraCalibration:
    """Full calibration from vanishing-point pairs.

    ``pairs`` is a :class:`PairSet` or a list of :class:`VPPair`. The
    principal point is assumed at the image centre unless overridden; with
    an explicit principal point the image size may be None. Pairs that fail
    the focal constraint are counted as rejected but still contribute to the
    horizon.
    """
    pairs = PairSet.of(pairs)
    if principal_point is None:
        if image_size is None:
            raise ValueError("image_size is required when principal_point is not given")
        w, h = check_image_size(image_size)
        principal_point = np.array([w / 2.0, h / 2.0])
    else:
        principal_point = as_point(principal_point, "principal_point")
        if image_size is not None:
            check_image_size(image_size)

    focals = _usable_focals(pairs, principal_point, min_pairs)
    horizon = estimate_horizon(pairs, min_pairs=min_pairs)
    intrinsics = CameraIntrinsics(float(np.median(focals)), principal_point)
    normal = plane_normal_from_horizon(horizon, intrinsics)
    return CameraCalibration(
        intrinsics=intrinsics,
        horizon=horizon,
        plane_normal=normal,
        delta=delta,
        n_pairs_used=len(focals),
        n_pairs_rejected=len(pairs) - len(focals),
    )


# ---------------------------------------------------------------------------
# estimator wrapper


class VanishingPointCalibrator:
    """Scikit-learn style estimator around :func:`calibrate`.

    ``fit`` consumes vanishing-point pairs, as a :class:`PairSet`, a list of
    :class:`VPPair` or an (n, 4) array of ``(u_x, u_y, v_x, v_y)`` rows;
    ``transform`` maps frame-pixel points to 3D road-plane coordinates.

    Parameters
    ----------
    image_size : (width, height) in pixels; required unless
        ``principal_point`` is given.
    principal_point : explicit principal point override (default: centre).
    min_pairs : minimum usable pairs for each median.
    delta : road-plane scale applied by ``transform``.
    """

    def __init__(
        self,
        image_size=None,
        principal_point=None,
        min_pairs: int = DEFAULT_MIN_PAIRS,
        delta: float = 1.0,
    ):
        self.image_size = image_size
        self.principal_point = principal_point
        self.min_pairs = min_pairs
        self.delta = delta

    _param_names = ("image_size", "principal_point", "min_pairs", "delta")

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names}

    def set_params(self, **params) -> "VanishingPointCalibrator":
        for name, value in params.items():
            if name not in self._param_names:
                raise ValueError(f"unknown parameter {name!r} for VanishingPointCalibrator")
            setattr(self, name, value)
        return self

    @staticmethod
    def _as_pairs(X) -> PairSet:
        if isinstance(X, PairSet) or (len(X) and isinstance(X[0], VPPair)):
            return PairSet.of(X)
        arr = as_real_array(X, "X")
        if arr.ndim != 2 or arr.shape[1] != 4:
            raise ValueError(
                f"X must be a PairSet, a list of VPPair or an (n, 4) array, got shape {arr.shape}"
            )
        return PairSet(arr[:, :2], arr[:, 2:])

    def fit(self, X, y=None) -> "VanishingPointCalibrator":
        pairs = self._as_pairs(X)
        if self.image_size is None and self.principal_point is None:
            raise ValueError("either image_size or principal_point must be set")
        self.calibration_ = calibrate(
            pairs,
            self.image_size,
            min_pairs=self.min_pairs,
            principal_point=self.principal_point,
            delta=self.delta,
        )
        self.focal_ = self.calibration_.intrinsics.f
        self.principal_point_ = self.calibration_.intrinsics.principal_point
        self.horizon_ = self.calibration_.horizon
        self.plane_normal_ = self.calibration_.plane_normal
        self.n_pairs_used_ = self.calibration_.n_pairs_used
        self.n_pairs_rejected_ = self.calibration_.n_pairs_rejected
        return self

    def transform(self, X) -> np.ndarray:
        """Map frame-pixel points (n, 2) to road-plane coordinates (n, 3).

        Note the asymmetry with ``fit``: fitting consumes vanishing-point
        pairs, transforming consumes image points, so there is deliberately
        no ``fit_transform``.
        """
        check_fitted(self, "calibration_")
        return project_to_plane(as_points_2d(X, "X"), self.calibration_)
