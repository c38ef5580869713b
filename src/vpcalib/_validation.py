"""Small input-validation helpers shared across the package."""

from __future__ import annotations

import numpy as np


# The types json.loads gives a JSON number. A bool is not one, though
# isinstance would take it for an int, and int() and float() would take
# True, "0" and 10.5 too.
JSON_NUMBER = frozenset((int, float))


def is_real(value) -> bool:
    """True for a Python or numpy real number; a bool and a string are not one."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def check_real(value, name: str):
    """``value``, if it is a real number (:func:`is_real`)."""
    if not is_real(value):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return value


def check_number(value, name: str) -> float:
    """``value`` as a float, if it is a JSON number."""
    if type(value) not in JSON_NUMBER:
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def check_numbers(values, name: str) -> list:
    """``values``, if it is a JSON list of numbers."""
    if type(values) is not list or not JSON_NUMBER.issuperset(map(type, values)):
        raise ValueError(f"{name} must be a list of numbers, got {values!r}")
    return values


def as_float_array(a, name: str, shape_suffix: tuple[int, ...] | None = None) -> np.ndarray:
    """Coerce to a float64 ndarray and require finite entries.

    ``shape_suffix`` constrains the trailing dimensions, e.g. ``(3,)`` accepts
    both a single triple and an ``(n, 3)`` batch.
    """
    arr = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must contain only finite values")
    if shape_suffix is not None:
        k = len(shape_suffix)
        if arr.ndim < k or arr.shape[-k:] != shape_suffix:
            raise ValueError(
                f"{name} must have trailing shape {shape_suffix}, got {arr.shape}"
            )
    return arr


def as_points_2d(a, name: str = "points") -> np.ndarray:
    """Coerce to an (n, 2) float array of finite image points."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"{name} must be an (n, 2) array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must contain only finite values")
    return arr


def check_positive(value: float, name: str) -> float:
    value = float(value)
    if not np.isfinite(value) or value <= 0:
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")
    return value


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
    w, h = image_size
    return check_positive(w, "image width"), check_positive(h, "image height")


def check_fitted(estimator, attribute: str) -> None:
    if not hasattr(estimator, attribute):
        raise RuntimeError(
            f"{type(estimator).__name__} is not fitted yet; call fit() first"
        )
