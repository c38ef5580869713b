"""Small input-validation helpers shared across the package.

One rule says what a number is (:func:`is_real`): a Python or numpy int or
float, never a bool or a string. The constructors apply it to every number
they take, through these helpers; the loaders hand them what JSON gives.
"""

from __future__ import annotations

import math
import reprlib

import numpy as np


# The types of a real number. A bool is not one, though isinstance would
# take it for an int, and float() would take True and "1.5" too.
REAL_TYPES = frozenset(
    [int, float] + [np.dtype(c).type for c in np.typecodes["AllInteger"] + np.typecodes["Float"]]
)

# The types of a flag: a Python or numpy bool, never 0, 1 or a string.
BOOL_TYPES = frozenset((bool, np.bool_))

# px; the largest |coordinate| of an image point: a vanishing point, the
# principal point, a measurement endpoint, the image size. A point that far
# out is a direction in all but name, and within it the products the
# estimators take (two coordinates, a coordinate and a slope) stay far from
# float64 overflow.
MAX_COORDINATE = 1e50

# The range of a length: a focal length in px, the plane scale delta or a
# measured distance in m. It holds every focal length that points within
# MAX_COORDINATE give, and a ratio of two lengths stays far from float64
# overflow and underflow.
LENGTH_RANGE = (1e-60, 1e60)


def is_real(value) -> bool:
    """True for a Python or numpy real number; a bool and a string are not one."""
    return type(value) in REAL_TYPES


def all_real(values) -> bool:
    """:func:`is_real` of every item of ``values``, in one pass over their types."""
    return REAL_TYPES.issuperset(map(type, values))


def check_real(value, name: str, low: float = -math.inf, high: float = math.inf):
    """``value``, if it is a finite real number (:func:`is_real`) in ``[low, high]``.

    The bounds are compared as float64: numpy would compare a float32 in float32.
    """
    if not is_real(value):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if not (low <= float(value) <= high and math.isfinite(value)):
        bounds = f" in [{low:g}, {high:g}]" if (low, high) != (-math.inf, math.inf) else ""
        raise ValueError(f"{name} must be a finite number{bounds}, got {value!r}")
    return value


def as_real_array(a, name: str) -> np.ndarray:
    """``a`` as a float64 ndarray, if it holds only real numbers, finite or not.

    An int or float ndarray passes by its dtype; anything else is checked
    item by item with :func:`is_real`, since ``np.asarray([1920, True])`` is
    an int array.
    """
    if not (isinstance(a, np.ndarray) and a.dtype.kind in "iuf"
            or all_real(np.asarray(a, dtype=object).flat)):
        raise ValueError(f"{name} must be a number or an array of numbers, got {reprlib.repr(a)}")
    return np.asarray(a, dtype=float)


def as_mask(a, name: str) -> np.ndarray:
    """``a`` as a bool ndarray, if it is one or holds only :data:`BOOL_TYPES`."""
    if not (isinstance(a, np.ndarray) and a.dtype == bool
            or BOOL_TYPES.issuperset(map(type, np.asarray(a, dtype=object).flat))):
        raise ValueError(f"{name} must be a bool or an array of bools, got {reprlib.repr(a)}")
    return np.array(a, dtype=bool)


def as_float_array(a, name: str, shape_suffix: tuple[int, ...] | None = None) -> np.ndarray:
    """:func:`as_real_array` of ``a``, if its numbers are finite.

    ``shape_suffix`` constrains the trailing dimensions, e.g. ``(3,)``
    accepts both a single triple and an ``(n, 3)`` batch.
    """
    arr = as_real_array(a, name)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must contain only finite values")
    if shape_suffix is not None:
        k = len(shape_suffix)
        if arr.ndim < k or arr.shape[-k:] != shape_suffix:
            raise ValueError(
                f"{name} must have trailing shape {shape_suffix}, got {arr.shape}"
            )
    return arr


def check_coordinates(arr: np.ndarray, name: str) -> np.ndarray:
    """``arr``, if every entry lies within :data:`MAX_COORDINATE`."""
    if not (np.abs(arr) <= MAX_COORDINATE).all():
        raise ValueError(
            f"{name} must contain only finite values of magnitude <= {MAX_COORDINATE:g} px"
        )
    return arr


def as_point(a, name: str) -> np.ndarray:
    """``a`` as a float ``(2,)`` array, if it is an image point within :data:`MAX_COORDINATE`."""
    arr = check_coordinates(as_float_array(a, name), name)
    if arr.shape != (2,):
        raise ValueError(f"{name} must be an (x, y) point, got shape {arr.shape}")
    return arr


def as_points_2d(a, name: str = "points") -> np.ndarray:
    """:func:`as_float_array` of a point or of points, as an ``(n, 2)`` array."""
    arr = as_float_array(a, name)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"{name} must be an (n, 2) array, got shape {arr.shape}")
    return arr


def check_positive(value, name: str) -> float:
    """``value`` as a float, if it is a positive finite real number."""
    if not (is_real(value) and 0 < float(value) < math.inf):
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")
    return float(value)


def check_integer(value, name: str, low: int) -> int:
    """``value`` as an int, if it is an integer >= ``low``.

    A numpy integer counts and comes back as an int; a bool, a float or a
    numeric string does not count.
    """
    if isinstance(value, np.integer):
        value = int(value)
    if type(value) is not int or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return value


def check_image_size(image_size) -> tuple[float, float]:
    """``(width, height)`` as floats, if both are positive and within :data:`MAX_COORDINATE`."""
    size = check_coordinates(as_float_array(image_size, "image_size"), "image_size")
    if size.shape != (2,) or not (size > 0).all():
        raise ValueError(f"image_size must be a positive (width, height), got {image_size!r}")
    w, h = size.tolist()
    return w, h


def check_fitted(estimator, attribute: str) -> None:
    if not hasattr(estimator, attribute):
        raise RuntimeError(
            f"{type(estimator).__name__} is not fitted yet; call fit() first"
        )
