"""Homogeneous-coordinate arithmetic and the diamond-space parametrization.

Points and lines of the real projective plane are plain float arrays with a
trailing dimension of 3. A point ``(x, y, w)`` represents the Cartesian
position ``(x/w, y/w)``; ``w == 0`` is a point at infinity (a pure direction).
A line ``(a, b, c)`` is the locus ``ax + by + c = 0``. Both are equivalence
classes under nonzero scaling, and every function here respects that: mapping
any representative of a point gives the same result.

The diamond-space mapping sends the whole projective plane into the closed
diamond ``|X| + |Y| <= 1``, which makes unbounded vanishing-point positions
representable on a finite grid. Sign branches use the fixed convention
``sgn(0) = +1`` and are evaluated on a canonical representative (last
significant coordinate positive), which keeps the mapping total, bounded and
exactly invertible; points on the coordinate axes land on one deterministic
branch, with no continuity claim across axes.

All functions are pure and thread-safe. Most accept ``(..., 3)`` batches;
the diamond mapping also has a column form (:func:`to_diamond_columns`,
:func:`diamond_xy`, :func:`from_diamond_columns`) that takes the
coordinates ``x``, ``y`` and ``w`` as separate arrays broadcast together,
and :func:`canonical`, :func:`to_diamond` and :func:`from_diamond` wrap it.
"""

from __future__ import annotations

import numpy as np

from ._validation import LENGTH_RANGE
from .errors import DegenerateInput, InvalidScale

__all__ = [
    "sgn",
    "canonical",
    "to_diamond",
    "from_diamond",
    "to_diamond_columns",
    "diamond_xy",
    "from_diamond_columns",
    "check_scale",
    "line_through",
    "scale_point",
    "dehomogenize",
    "is_ideal",
    "cross_residual",
    "projectively_equal",
    "incidence_residual",
    "row_dots",
    "row_norms",
]


def sgn(t) -> np.ndarray:
    """Sign with the convention sgn(0) = +1, applied elementwise."""
    return np.where(np.asarray(t, dtype=float) >= 0.0, 1.0, -1.0)


def _as_homogeneous(p, name: str = "point") -> np.ndarray:
    arr = np.asarray(p, dtype=float)
    if arr.shape == () or arr.shape[-1] != 3:
        raise ValueError(f"{name} must have trailing dimension 3, got shape {arr.shape}")
    return arr


def canonical(p) -> np.ndarray:
    """Representative with w > 0, falling back to y > 0 then x > 0 when zero.

    Unique up to positive scale, which is what the diamond sign branches need.
    """
    p = _as_homogeneous(p)
    x, y, w = p[..., 0], p[..., 1], p[..., 2]
    _check_point(x, y, w)
    return p * _flip(x, y, w)[..., None]


def _check_point(x, y, w) -> None:
    zero = np.equal(w, 0)
    if zero.any() and (zero & np.equal(y, 0) & np.equal(x, 0)).any():
        raise ValueError("(0, 0, 0) is not a projective point")


def _flip(x, y, w):
    """The sign that :func:`canonical` multiplies ``(x, y, w)`` by: that of
    ``w``, or of ``y`` where ``w`` is zero, or of ``x`` where both are."""
    flip = np.sign(w)
    if not flip.all():
        flip = np.where(np.equal(w, 0), np.where(np.not_equal(y, 0), np.sign(y), np.sign(x)),
                        flip)
    return flip


def _divisor(x, y, w):
    """``D`` with ``to_diamond`` of ``(x, y, w)`` equal to ``-flip * (w, x, D)``
    (``flip`` of :func:`_flip`), so the diamond point is ``(w / D, x / D)``.

    The canonical ``c = flip * (x, y, w)`` maps to ``(-c_w, -c_x, t)`` with
    ``t = sgn(c_x) * sgn(c_y) * c_x + c_y + sgn(c_y) * c_w``. All three terms
    carry the sign ``sgn(c_y)`` and rounding is symmetric, so ``t`` is
    ``sgn(c_y) * (|x| + |y| + |w|)``, summed in that order, bit for bit.
    Off the axis ``y = 0`` that makes ``D = -flip * t`` equal to
    ``-sgn(y) * (|x| + |y| + |w|)``; on it, ``sgn(c_y) = +1``. A product
    with +-1 is exact, so ``w / D`` and ``x / D`` have the bits of
    ``-c_w / t`` and ``-c_x / t``.
    """
    size = np.abs(x) + np.abs(y) + np.abs(w)
    d = -np.copysign(size, y)
    on_axis = np.equal(y, 0)
    if on_axis.any():
        # sgn(0) = +1 for the canonical y, whatever the sign of this zero
        d = np.where(on_axis, -_flip(x, y, w) * size, d)
    return d


def to_diamond(p) -> np.ndarray:
    """Map projective points into diamond-space coordinates.

    The result's last coordinate has magnitude ``|x| + |y| + |w|`` of the
    canonical representative, so it is never zero and the dehomogenized image
    always satisfies ``|X| + |Y| <= 1``: the whole plane lands inside the
    diamond, points at infinity included.
    """
    p = _as_homogeneous(p)
    return np.stack(to_diamond_columns(p[..., 0], p[..., 1], p[..., 2]), axis=-1)


def to_diamond_columns(x, y, w):
    """:func:`to_diamond` of the points ``(x, y, w)``, given as arrays that
    broadcast together: the three coordinates of the diamond point."""
    _check_point(x, y, w)
    sign = -_flip(x, y, w)
    return sign * w, sign * x, sign * _divisor(x, y, w)


def diamond_xy(x, y, w):
    """The dehomogenized ``(X, Y)`` of :func:`to_diamond_columns`, bit for bit
    ``dehomogenize(to_diamond(p))``: inside the diamond ``|X| + |Y| <= 1``."""
    _check_point(x, y, w)
    d = _divisor(x, y, w)
    return w / d, x / d


def from_diamond(d) -> np.ndarray:
    """Map diamond-space points back to the original projective plane.

    Inverse of :func:`to_diamond` up to projective scale.
    """
    d = _as_homogeneous(d)
    return np.stack(from_diamond_columns(d[..., 0], d[..., 1], d[..., 2]), axis=-1)


def from_diamond_columns(x, y, w):
    """:func:`from_diamond` of diamond points given as arrays that broadcast
    together; ``w`` may be the number 1, for a dehomogenized ``(x, y)``."""
    _check_point(x, y, w)
    flip = _flip(x, y, w)
    x, y, w = x * flip, y * flip, w * flip
    return y, np.abs(x) + np.abs(y) - w, x


def line_through(p, q) -> np.ndarray:
    """Homogeneous line through two distinct projective points (their cross product)."""
    p = _as_homogeneous(p, "p")
    q = _as_homogeneous(q, "q")
    line = np.cross(p, q)
    norm = np.linalg.norm(line, axis=-1)
    limit = 1e-12 * np.linalg.norm(p, axis=-1) * np.linalg.norm(q, axis=-1)
    if np.any(norm <= limit):
        raise DegenerateInput("points are projectively equal; no unique line")
    return line


def scale_point(p, s: float) -> np.ndarray:
    """Scale the Cartesian position by ``s``: (x, y, w) -> (s*x, s*y, w).

    Points at infinity are fixed points of this map. ``s`` must pass
    :func:`check_scale`.
    """
    check_scale(s)
    p = _as_homogeneous(p)
    out = p.copy()
    out[..., 0] *= s
    out[..., 1] *= s
    return out


def check_scale(s) -> None:
    """Raise :class:`InvalidScale` unless ``s`` lies in
    :data:`~vpcalib._validation.LENGTH_RANGE`: a decode divides by it and
    squares the points it gives, which within that range stay far from
    float64 overflow. One float comparison, so NaN fails it too."""
    if not LENGTH_RANGE[0] <= s <= LENGTH_RANGE[1]:
        raise InvalidScale(f"scale must be a number in [{LENGTH_RANGE[0]:g}, "
                           f"{LENGTH_RANGE[1]:g}], got {s!r}")


def is_ideal(p, rel_eps: float = 1e-9) -> np.ndarray:
    """True where ``w`` is negligible against the (x, y) part: a point at infinity."""
    p = _as_homogeneous(p)
    xy = np.hypot(p[..., 0], p[..., 1])
    return np.abs(p[..., 2]) <= rel_eps * xy


def dehomogenize(p) -> np.ndarray:
    """Cartesian (x/w, y/w) coordinates. The caller guards against w ~ 0."""
    p = _as_homogeneous(p)
    return p[..., :2] / p[..., 2:3]


def row_dots(a, b) -> np.ndarray:
    """Dot product of each row of ``a`` with the same row of ``b``, bit for bit ``np.dot``.

    ``np.dot`` of two vectors is a BLAS ``ddot``, which may fuse a multiply
    into the add; a stacked matmul takes the same ``ddot`` row by row. A sum
    of products (``(a * b).sum(1)``, ``einsum``) rounds differently on about
    a quarter of random 2-vectors.
    """
    a = np.ascontiguousarray(a, dtype=float)
    b = np.ascontiguousarray(b, dtype=float)
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def row_norms(a) -> np.ndarray:
    """``np.linalg.norm`` of each row of ``a``, bit for bit: the root of its :func:`row_dots`."""
    return np.sqrt(row_dots(a, a))


def cross_residual(p, q) -> np.ndarray:
    """Norm of the cross product of unit-normalized representatives.

    Zero iff the points are projectively equal; used as the equality criterion
    everywhere instead of componentwise ratios, which break down near w = 0.
    """
    p = _as_homogeneous(p, "p")
    q = _as_homogeneous(q, "q")
    denom = np.linalg.norm(p, axis=-1) * np.linalg.norm(q, axis=-1)
    return np.linalg.norm(np.cross(p, q), axis=-1) / denom


def projectively_equal(p, q, tol: float = 1e-9) -> bool:
    return bool(np.all(cross_residual(p, q) <= tol))


def incidence_residual(line, point) -> np.ndarray:
    """|<line, point>| after normalizing both; zero iff the point lies on the line."""
    line = _as_homogeneous(line, "line")
    point = _as_homogeneous(point, "point")
    denom = np.linalg.norm(line, axis=-1) * np.linalg.norm(point, axis=-1)
    return np.abs(np.sum(line * point, axis=-1)) / denom
