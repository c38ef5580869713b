"""Scale-free calibration error from ground-truth distance measurements.

Absolute plane distances depend on the unrecoverable scale ``delta``, so the
quality metric compares ratios: for measurements i and j, the relative error
of the measured ratio against the ground-truth ratio. Multiplying every
measured distance by a constant cancels, which is exactly the property that
makes the metric usable without a known scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._validation import LENGTH_RANGE, as_point, check_real
from .calibration import _ON_HORIZON, CameraCalibration, _plane_points
from .errors import InsufficientMeasurements, UnprojectablePoint
from .projective import row_norms

__all__ = [
    "DistanceMeasurement",
    "CalibrationReport",
    "measured_distance",
    "ratio_error",
    "evaluate",
    "PAIR_MODES",
]

PAIR_MODES = ("ordered", "unordered-min", "unordered-first")


@dataclass(frozen=True)
class DistanceMeasurement:
    """Two frame-pixel points and the metric distance between them on the road.

    The points lie within :data:`~vpcalib._validation.MAX_COORDINATE` and
    the distance in :data:`~vpcalib._validation.LENGTH_RANGE`.
    """

    a: np.ndarray
    b: np.ndarray
    ground_truth: float

    def __post_init__(self):
        object.__setattr__(self, "a", as_point(self.a, "a"))
        object.__setattr__(self, "b", as_point(self.b, "b"))
        if np.array_equal(self.a, self.b):
            raise ValueError("measurement endpoints must differ")
        check_real(self.ground_truth, "ground truth distance", *LENGTH_RANGE)


@dataclass(frozen=True, eq=False)
class CalibrationReport:
    """Per-pair ratio errors and their mean (as a fraction, not percent).

    Pair ``k`` compares measurements ``pair_i[k]`` and ``pair_j[k]`` (indices
    among the projectable ones) with ratio error ``errors[k]``.
    """

    pair_i: np.ndarray
    pair_j: np.ndarray
    errors: np.ndarray
    mean_error: float
    n_measurements: int
    n_skipped: int
    pair_mode: str = "ordered"

    @property
    def per_pair_errors(self) -> tuple:
        """The pairs as ``(i, j, error)`` tuples of Python numbers."""
        return tuple(zip(self.pair_i.tolist(), self.pair_j.tolist(), self.errors.tolist()))


def _distances(a, b, calibration: CameraCalibration) -> tuple[np.ndarray, np.ndarray]:
    """The road-plane distance between the endpoints of each measurement, given
    as ``(n, 2)`` rows ``a`` and ``b``, and where both endpoints project."""
    points, on_plane = _plane_points(np.concatenate([a, b]), calibration)
    n = len(a)
    return row_norms(points[:n] - points[n:]), on_plane[:n] & on_plane[n:]


def measured_distance(measurement: DistanceMeasurement, calibration: CameraCalibration) -> float:
    """Distance between the two endpoints after projection onto the road plane."""
    (distance,), (projects,) = _distances(measurement.a[None], measurement.b[None], calibration)
    if not projects:
        raise UnprojectablePoint(_ON_HORIZON)
    return float(distance)


def ratio_error(i, j, measured, ground_truth):
    """Relative error of the measured i/j distance ratio against ground truth.

    Index arrays ``i`` and ``j`` give an array of errors, scalars a float.
    """
    d, g = np.asarray(measured, dtype=float), np.asarray(ground_truth, dtype=float)
    if np.any(d[j] == 0.0) or np.any(g[j] == 0.0) or np.any(g[i] == 0.0):
        raise ZeroDivisionError("distance ratios need nonzero denominators")
    truth = g[i] / g[j]
    error = np.abs(d[i] / d[j] - truth) / truth
    return float(error) if np.ndim(error) == 0 else error


def evaluate(
    measurements,
    calibration: CameraCalibration,
    pair_mode: str = "ordered",
) -> CalibrationReport:
    """Mean ratio error over all measurement pairs.

    Every endpoint is projected in one pass. Measurements with an
    unprojectable endpoint are skipped and counted, not failed. ``pair_mode``
    picks how the asymmetric per-pair error is aggregated: every ordered
    pair (i, j), i != j (the default), the minimum of the two orientations,
    or only the i < j orientation. The summation order is fixed by
    measurement index, so results are deterministic.
    """
    if pair_mode not in PAIR_MODES:
        raise ValueError(f"pair_mode must be one of {PAIR_MODES}, got {pair_mode!r}")
    measurements = list(measurements)
    a = np.reshape([m.a for m in measurements], (-1, 2))
    b = np.reshape([m.b for m in measurements], (-1, 2))
    distance, projects = _distances(a, b, calibration)
    measured = distance[projects]
    truth = np.array([m.ground_truth for m in measurements], dtype=float)[projects]
    if len(measured) < 2:
        raise InsufficientMeasurements(
            f"{len(measured)} projectable measurements, need at least 2"
        )

    n = len(measured)
    if pair_mode == "ordered":
        i, j = np.nonzero(~np.eye(n, dtype=bool))
    else:
        i, j = np.triu_indices(n, 1)
    errors = ratio_error(i, j, measured, truth)
    if pair_mode == "unordered-min":
        errors = np.minimum(errors, ratio_error(j, i, measured, truth))
    mean = float(np.mean(errors))
    return CalibrationReport(
        pair_i=i,
        pair_j=j,
        errors=errors,
        mean_error=mean,
        n_measurements=len(measured),
        n_skipped=len(measurements) - len(measured),
        pair_mode=pair_mode,
    )
