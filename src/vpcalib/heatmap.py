"""Multi-scale diamond-space heatmap codec for vanishing points.

A vanishing point is expressed in the coordinate system tied to a vehicle's
bounding box (box centre at the origin, corners at (+-1, +-1)), shrunk by one
of several scales, mapped into the diamond, rotated 45 degrees so the diamond
fills the full square grid, and rasterized as a Gaussian peak. Decoding runs
the chain backwards from the grid argmax, picks the scale with the smallest
spread of near-maximum cells, and places the point where that scale's peak
cell overlaps the near-maximum cells of all the other scales.
:func:`decode_stack` does this for a stack of many records' grids with
array operations, taking what it needs to know about a grid cell from
per-grid tables that persist for the process (:class:`_CellTables`): the
cells' points are tabled whole the first time a grid is used; their
quantization radius, and where the sub-pixel samples of a chosen peak cell
land at every scale and which way they point (5.4 KB per distinct cell at
four 64 x 64 scales), the first time a decode needs them. Points go
between the plane, the diamond and the grid as separate ``x``, ``y`` and
``w`` arrays (the column form of :mod:`~vpcalib.projective`), every scale
at once along a leading axis. The near-maximum cells of a grid are found
in the stack's own precision, float32 as DVP files store it.
The decode works in box coordinates; :func:`box_to_frame` and its inverse
:func:`frame_to_box` are the one array form of the box <-> frame convention.

An encode rasterizes every channel and scale it makes into one zeroed
``(C, S, R, R)`` float64 block, finite by construction, as ``sigma`` is a
length, and hands out its grids as :class:`Heatmap` views (:func:`_encoded`).

Each decode, box and encode rule is written once, as that array code; the
scalar functions (:func:`decode_heatmap`, :func:`accuracy_measure`,
:func:`encode_vp`, the :class:`BBox` helpers) are its one-grid or one-box
calls. The tests hold them, bit for bit, to the scalar bodies kept in
``tests/diamond_reference.py``.

Grid convention: ``values[row, col]`` with the rotated coordinates
``u = X + Y`` (column axis) and ``v = Y - X`` (row axis), each spanning
[-1, 1] across pixel centres ``0 .. resolution - 1``.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass

import numpy as np

from . import projective as pj
from ._validation import (LENGTH_RANGE, as_float_array, check_integer, check_positive,
                          check_real, is_real)
from .errors import (
    AllScalesDegenerate,
    DegeneratePeak,
    EmptyHeatmap,
    OutOfDiamond,
)

__all__ = [
    "DEFAULT_SCALES",
    "BBox",
    "Heatmap",
    "VPDetection",
    "HeatmapCodec",
    "bbox_normalize",
    "bbox_denormalize",
    "bbox_denormalize_direction",
    "bbox_arrays",
    "box_to_frame",
    "frame_to_box",
    "diamond_to_pixel",
    "pixel_to_diamond",
    "encode_vp",
    "decode_heatmap",
    "vp_of_pixel",
    "accuracy_measure",
    "quantization_radius",
    "select_vp",
    "decode_stack",
    "check_scales",
]

DEFAULT_SCALES: tuple[float, ...] = (0.03, 0.1, 0.3, 1.0)
DEFAULT_RESOLUTION = 64
DEFAULT_SIGMA = 1.0
DEFAULT_PEAK_RATIO = 0.8

# Boundary points per side of a cell that quantization_radius takes by default.
_EDGE_SAMPLES = 9
# Relative |w| below which a decoded homogeneous point counts as a direction.
IDEAL_EPS = 1e-9
# Norm below which a decoded peak sits on the bounding-box centre.
CENTER_EPS = 1e-9


# the item type of a scale tuple that check_scales takes as it is
_FLOAT = frozenset((float,))


def check_scales(scales) -> tuple[float, ...]:
    """Validate a scale set: strictly increasing reals in :data:`LENGTH_RANGE`
    (the range of :func:`projective.check_scale`), as a tuple of floats. A
    tuple of floats, as a heatmap file's header gives, skips numpy."""
    values = scales
    if not (type(scales) is tuple and _FLOAT.issuperset(map(type, scales))):
        out = as_float_array(scales, "scales")
        values = tuple(out.tolist()) if out.ndim == 1 else ()
    if not (values and LENGTH_RANGE[0] <= values[0] and values[-1] <= LENGTH_RANGE[1]
            and all(a < b for a, b in zip(values, values[1:]))):
        raise ValueError(f"scales must be a nonempty, strictly increasing sequence of "
                         f"numbers in [{LENGTH_RANGE[0]:g}, {LENGTH_RANGE[1]:g}], got {scales!r}")
    return values


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box in frame pixels."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError(
                f"invalid box: ({self.x_min}, {self.y_min}, {self.x_max}, {self.y_max})"
            )

    @property
    def center(self) -> np.ndarray:
        return bbox_arrays([self])[0][0]

    @property
    def half_size(self) -> np.ndarray:
        return bbox_arrays([self])[1][0]

    def iou(self, other: "BBox") -> float:
        return float(_ious(np.array([self.as_tuple()]), np.array([other.as_tuple()]))[0])

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x_min, self.y_min, self.x_max, self.y_max)


@dataclass
class Heatmap:
    """One square response grid over the rotated diamond at a single scale.

    ``values`` comes out as a float64 array, if it holds real, finite
    numbers in a square grid of at least 2 x 2 cells; ``scale`` must be
    positive and finite."""

    values: np.ndarray
    scale: float

    def __post_init__(self):
        values = as_float_array(self.values, "heatmap values")
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ValueError(f"heatmap must be square, got shape {values.shape}")
        check_integer(len(values), "resolution", 2)
        check_positive(self.scale, "heatmap scale")
        self.values = values

    @property
    def resolution(self) -> int:
        return self.values.shape[0]


def _heatmaps(values, scales) -> list[list[Heatmap]]:
    """The heatmaps of a checked ``(C, S, R, R)`` float64 block, channel-major:
    ``[c][s]`` holds grid ``values[c, s]`` at ``scales[s]``, a view of the
    block; the views do not overlap."""
    out = []
    for channel in values:
        maps = []
        for grid, scale in zip(channel, scales):
            h = object.__new__(Heatmap)
            h.values, h.scale = grid, scale
            maps.append(h)
        out.append(maps)
    return out


@dataclass(frozen=True)
class VPDetection:
    """A decoded vanishing point in frame coordinates.

    ``point`` is a frame-pixel position, or a unit direction from the box
    centre when ``direction_only`` is set (the vanishing point lies at
    infinity: usable for horizon slope, not for focal-length estimation).
    It is the fused point of :func:`select_vp`: inside the chosen scale's
    peak cell, where the other scales' cells overlap it. ``uncertainty`` is
    still the spread measure of the chosen scale alone.
    """

    point: np.ndarray
    uncertainty: float
    chosen_scale: float
    direction_only: bool = False


# ---------------------------------------------------------------------------
# bounding-box coordinate system


def bbox_normalize(points, box: BBox) -> np.ndarray:
    """Frame pixels -> box coordinates (centre at origin, corners at (+-1, +-1)):
    :func:`frame_to_box` of any ``(..., 2)`` points in the one box."""
    return _in_one_box(frame_to_box, points, box)


def bbox_denormalize(points, box: BBox) -> np.ndarray:
    """Inverse of :func:`bbox_normalize`: :func:`box_to_frame` in the one box."""
    return _in_one_box(box_to_frame, points, box)


def _in_one_box(convert, points, box: BBox) -> np.ndarray:
    rows = np.asarray(points, dtype=float).reshape(-1, 2)
    boxes = np.broadcast_to(np.array(box.as_tuple()), (len(rows), 4))
    return convert(rows, np.zeros(len(rows), dtype=bool), boxes).reshape(np.shape(points))


def _ious(current, previous) -> np.ndarray:
    """:meth:`BBox.iou` of each row of two ``(P, 4)`` arrays of :meth:`BBox.as_tuple`
    rows; 0 where the boxes do not overlap or (as areas that underflow to zero
    or overflow leave it) their union is not above 0."""
    with np.errstate(all="ignore"):
        ix = np.minimum(current[:, 2], previous[:, 2]) - np.maximum(current[:, 0], previous[:, 0])
        iy = np.minimum(current[:, 3], previous[:, 3]) - np.maximum(current[:, 1], previous[:, 1])
        inter = ix * iy
        area = (current[:, 2] - current[:, 0]) * (current[:, 3] - current[:, 1])
        area_o = (previous[:, 2] - previous[:, 0]) * (previous[:, 3] - previous[:, 1])
        union = area + area_o - inter
        iou = inter / union
    return np.where((ix > 0) & (iy > 0) & (union > 0), iou, 0.0)


def bbox_arrays(boxes) -> tuple[np.ndarray, np.ndarray]:
    """``(N, 2)`` centres and half sizes of ``boxes``: :attr:`BBox.center` and
    :attr:`BBox.half_size` are its one-box call.

    ``boxes`` is a sequence of :class:`BBox` or an ``(N, 4)`` array of their
    :meth:`BBox.as_tuple` rows. An extent past float64 comes out infinite,
    without a warning.
    """
    if not isinstance(boxes, np.ndarray):
        boxes = [box.as_tuple() for box in boxes]
    corners = np.asarray(boxes, dtype=float).reshape(-1, 4)
    with np.errstate(over="ignore"):
        return (corners[:, :2] + corners[:, 2:]) / 2.0, (corners[:, 2:] - corners[:, :2]) / 2.0


def bbox_denormalize_direction(direction, box: BBox) -> np.ndarray:
    """Linear part of :func:`bbox_denormalize`, for points at infinity."""
    return np.asarray(direction, dtype=float) * box.half_size


def box_to_frame(points, is_direction, boxes) -> np.ndarray:
    """Box coordinates -> frame pixels, for each ``(N, 2)`` row in its box
    (``boxes`` as :func:`bbox_arrays` takes them): the row times the half
    size, plus the centre. A row where the mask ``is_direction`` is set is a
    direction: times the half size (:func:`bbox_denormalize_direction`),
    scaled to unit length. A zero-length or overflowing row comes out
    non-finite, without a warning.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        centre, half = bbox_arrays(boxes)
        rows = np.asarray(points, dtype=float) * half
        rows[~is_direction] += centre[~is_direction]
        d = rows[is_direction]
        rows[is_direction] = d / pj.row_norms(d)[:, None]
    return rows


def frame_to_box(points, is_direction, boxes) -> np.ndarray:
    """The inverse of :func:`box_to_frame`: each row less its box's centre,
    over the half size, and directions over the half size, scaled to unit
    length."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        centre, half = bbox_arrays(boxes)
        rows = np.array(points, dtype=float)
        rows[~is_direction] -= centre[~is_direction]
        rows /= half
        d = rows[is_direction]
        rows[is_direction] = d / pj.row_norms(d)[:, None]
    return rows


# ---------------------------------------------------------------------------
# diamond <-> grid


def diamond_to_pixel(xy, resolution: int = DEFAULT_RESOLUTION) -> np.ndarray:
    """Diamond Cartesian (X, Y) -> fractional (row, col) on the rotated grid.

    Rotating by 45 degrees maps the diamond onto the full square, so every
    grid cell represents actual projective plane: ``u = X + Y``,
    ``v = Y - X``, then [-1, 1] is spread across the pixel centres.
    """
    resolution = check_integer(resolution, "resolution", 2)
    xy = np.asarray(xy, dtype=float)
    return np.stack(_pixel_of(xy[..., 0], xy[..., 1], resolution), axis=-1)


def _pixel_of(X, Y, resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`diamond_to_pixel` of the columns ``X`` and ``Y``: ``(row, col)``."""
    absum = np.abs(X) + np.abs(Y)
    if np.any(absum > 1.0 + 1e-9):
        raise OutOfDiamond(f"|X| + |Y| = {float(np.max(absum))} exceeds 1")
    # t + 1 (t = u, v) is never subnormal, so halving it is exact and one
    # product by (R - 1) / 2 rounds as (t + 1) / 2 * (R - 1) does
    half_span = 0.5 * (resolution - 1)
    u = X + Y
    u += 1.0
    u *= half_span
    v = Y - X
    v += 1.0
    v *= half_span
    return v, u


def pixel_to_diamond(rowcol, resolution: int = DEFAULT_RESOLUTION) -> np.ndarray:
    """Fractional (row, col) -> diamond Cartesian (X, Y). Exact inverse on its range."""
    resolution = check_integer(resolution, "resolution", 2)
    rc = np.asarray(rowcol, dtype=float)
    return np.stack(_diamond_of(rc[..., 0], rc[..., 1], resolution), axis=-1)


def _diamond_of(row, col, resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`pixel_to_diamond` of the float columns ``row`` and ``col``: ``(X, Y)``."""
    u = 2.0 * col / (resolution - 1) - 1.0
    v = 2.0 * row / (resolution - 1) - 1.0
    return (u - v) / 2.0, (u + v) / 2.0


def _as_vp_homogeneous(vp) -> np.ndarray:
    vp = np.asarray(vp, dtype=float)
    if vp.shape == (2,):
        return np.array([vp[0], vp[1], 1.0])
    if vp.shape == (3,):
        return vp
    raise ValueError(f"vanishing point must be (2,) or homogeneous (3,), got {vp.shape}")


def _round_half_up(x: np.ndarray) -> np.ndarray:
    # ties go toward +inf so encode/decode share one deterministic grid;
    # the float array x is overwritten
    x += 0.5
    return np.floor(x, out=x).astype(int)


def _nearest_cells(x, y, w, scales, resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """Integer ``(row, col)`` of the cells where :func:`encode_vp` puts the peak.

    ``(x, y, w)`` are the coordinate arrays of homogeneous box-coordinate
    points. Each point is divided by its largest ``|coordinate|``, then
    mapped at every scale at once, the scales along a new leading axis:
    ``row`` and ``col`` have shape ``(len(scales),) + x.shape``.
    """
    size = np.maximum(np.maximum(np.abs(x), np.abs(y)), np.abs(w))
    if not size.all():
        raise ValueError("(0, 0, 0) is not a projective point")
    x, y, w = x / size, y / size, w / size
    s = np.asarray(scales, dtype=float).reshape((-1,) + (1,) * np.ndim(x))
    # the mapping tests the signs of the scaled coordinates, scale by scale:
    # y * 0.03 can round a subnormal y to zero
    row, col = _pixel_of(*pj.diamond_xy(x * s, y * s, w), resolution)
    return _round_half_up(row), _round_half_up(col)


# ---------------------------------------------------------------------------
# encode / decode


def encode_vp(
    vp,
    scale: float,
    resolution: int = DEFAULT_RESOLUTION,
    sigma: float = DEFAULT_SIGMA,
) -> Heatmap:
    """Rasterize one vanishing point as a Gaussian peak on the diamond grid.

    ``vp`` is in box coordinates, either a finite (x, y) or a homogeneous
    triple (points at infinity allowed). The peak has value exactly 1 at the
    grid cell nearest the mapped position; the Gaussian is truncated at three
    standard deviations and values below 1e-4 are zeroed, which keeps targets
    sparse without moving the argmax. ``sigma`` is a length (``ValueError``
    otherwise). This is the one-grid call of :func:`_encoded`.
    """
    check_real(sigma, "sigma", *LENGTH_RANGE)
    vph = _as_vp_homogeneous(vp)
    pj.check_scale(scale)
    resolution = check_integer(resolution, "resolution", 2)
    ((heatmap,),) = _encoded(vph[None], (scale,), resolution, sigma)
    return heatmap


def _encoded(vph, scales, resolution: int, sigma: float) -> list[list[Heatmap]]:
    """The heatmaps of the ``(C, 3)`` homogeneous points ``vph``, one channel
    per point, one grid per scale: a zeroed ``(C, S, R, R)`` block with the
    :func:`_gaussian_patch` pasted at each :func:`_nearest_cells` cell,
    clipped at the grid's edges. The caller checks the scales, the
    resolution and ``sigma``."""
    rows, cols = _nearest_cells(vph[:, 0], vph[:, 1], vph[:, 2], scales, resolution)
    block = np.zeros((len(vph), len(scales), resolution, resolution))
    patch = _gaussian_patch(sigma, resolution)
    reach = len(patch) // 2
    for grid, i0, j0 in zip(block.reshape(-1, resolution, resolution),
                            rows.T.ravel().tolist(), cols.T.ravel().tolist()):
        lo_i, hi_i = max(0, i0 - reach), min(resolution, i0 + reach + 1)
        lo_j, hi_j = max(0, j0 - reach), min(resolution, j0 + reach + 1)
        grid[lo_i:hi_i, lo_j:hi_j] = patch[lo_i - i0 + reach : hi_i - i0 + reach,
                                           lo_j - j0 + reach : hi_j - j0 + reach]
    return _heatmaps(block, scales)


def _check_peak_ratio(peak_ratio: float) -> None:
    if not (is_real(peak_ratio) and 0.0 < peak_ratio <= 1.0):
        raise ValueError(f"peak_ratio must be in (0, 1], got {peak_ratio!r}")


@functools.lru_cache(maxsize=8)
def _gaussian_patch(sigma: float, resolution: int) -> np.ndarray:
    """The read-only peak :func:`_encoded` pastes: the Gaussian at integer
    offsets up to three standard deviations, values below 1e-4 zeroed, and
    up to ``resolution - 1``, past which none lands on the grid."""
    reach = min(int(np.ceil(3.0 * sigma)), resolution - 1)
    d2 = np.arange(-reach, reach + 1) ** 2
    patch = np.exp(-(d2[:, None] + d2[None, :]) / (2.0 * sigma * sigma))
    patch[patch < 1e-4] = 0.0
    patch.setflags(write=False)
    return patch


def decode_heatmap(
    heatmap: Heatmap, peak_ratio: float = DEFAULT_PEAK_RATIO
) -> tuple[tuple[int, int], np.ndarray]:
    """Grid argmax plus the set of near-maximum cells.

    Negative responses (possible in raw detector output) are zeroed first.
    Returns ``((i, j), candidates)`` where ``candidates`` is an (n, 2) int
    array in row-major order containing every cell with value at least
    ``peak_ratio`` times the maximum; the argmax tie-break is the first cell
    in row-major order and is always a member of ``candidates``. This is the
    one-grid call of the near-maximum search of :func:`decode_stack`.
    """
    _check_peak_ratio(peak_ratio)
    top, row, col, near = _near_maximum(heatmap.values[None, None], peak_ratio)
    if top[0, 0] <= 0.0:
        raise EmptyHeatmap("all heatmap values are zero")
    return (int(row[0, 0]), int(col[0, 0])), np.argwhere(near[0, 0])


def vp_of_pixel(row, col, scale: float, resolution: int = DEFAULT_RESOLUTION) -> np.ndarray:
    """Homogeneous box-coordinate vanishing point of a (possibly fractional) grid cell.

    The returned triple may have ``w ~ 0`` for cells on the diamond boundary:
    those decode to directions rather than finite points.
    """
    pj.check_scale(scale)
    resolution = check_integer(resolution, "resolution", 2)
    return np.stack(_vp_by_scale((scale,), 0, row, col, resolution), axis=-1)


def _finite_xy(x, y, w) -> tuple[np.ndarray, np.ndarray]:
    """``(x / w, y / w)`` of homogeneous points, or ``(x, y)`` where the point
    is at infinity (``projective.is_ideal`` at :data:`IDEAL_EPS`); a division
    by 1.0 is exact."""
    ideal = np.abs(w) <= IDEAL_EPS * np.hypot(x, y)
    w = np.where(ideal, 1.0, w)
    return x / w, y / w


def _directions(x, y, w) -> np.ndarray:
    """Unit direction from the box centre of finite or infinite homogeneous
    points given as coordinate arrays: shape ``x.shape + (2,)``."""
    x, y = _finite_xy(x, y, w)
    # np.linalg.norm of the (x, y) rows, bit for bit
    norm = np.maximum(np.sqrt(x * x + y * y), 1e-300)
    return np.stack([x / norm, y / norm], axis=-1)


def accuracy_measure(heatmap: Heatmap, peak: tuple[int, int], candidates: np.ndarray) -> float:
    """Mean relative spread of the near-maximum cells around the peak.

    Each candidate cell decodes to a vanishing point in box coordinates; the
    measure is the mean of ``|v - v_peak| / |v_peak|``. Cells decoding to
    points at infinity are skipped (their spread is unbounded; inf if no
    cell is left). When the peak itself decodes to a direction, the spread
    is computed on unit direction vectors instead, so a detection at
    infinity still gets a finite, zero-when-unanimous uncertainty. This is
    the one-grid call of :func:`_spread`; candidates may be fractional.
    """
    cand = np.asarray(candidates, dtype=float)
    if cand.ndim != 2 or cand.shape[0] == 0:
        raise ValueError("candidates must be a nonempty (n, 2) array")
    # the candidates' points, then the peak's, as the rows of one table
    rows = np.append(cand[:, 0], float(peak[0]))
    cols = np.append(cand[:, 1], float(peak[1]))
    points = _point_table(vp_of_pixel(rows, cols, heatmap.scale, heatmap.resolution))
    ideal, norm = points[2][-1], points[3][-1]
    if not ideal and norm < CENTER_EPS:
        raise DegeneratePeak("peak decodes to the bounding-box centre")
    n = len(cand)
    (spread,) = _spread(*points[1:], np.arange(n), np.zeros(n, dtype=int), np.array([n]))
    return float(spread)


def quantization_radius(
    row: int,
    col: int,
    scale: float,
    resolution: int = DEFAULT_RESOLUTION,
    edge_samples: int = _EDGE_SAMPLES,
) -> float:
    """One-pixel quantization bound at a grid cell, in radians.

    Largest angle between the vanishing-point direction decoded at the cell
    centre and those decoded at ``edge_samples`` points on each side of the
    half-pixel cell: any true position that rounds to this cell lies within
    this angle of the decoded point. Infinite when the cell touches a
    degenerate decode, which makes such cells sort last during scale
    selection.
    """
    pj.check_scale(scale)
    resolution = check_integer(resolution, "resolution", 2)
    cell = np.zeros(1, dtype=int), np.array([row]), np.array([col])
    return float(_quantization_radii((scale,), *cell, resolution, edge_samples)[0])


def _quantization_radii(scales, s, r, c, resolution: int, edge_samples: int) -> np.ndarray:
    """:func:`quantization_radius` of the cells ``(s, r, c)`` of the grid
    ``scales[s]``, one array pass for them all; a stacked matmul takes the
    same per-cell matrix-vector product as an ``@`` per cell."""
    ts = np.linspace(-0.5, 0.5, edge_samples)
    half = np.full_like(ts, 0.5)
    row, col = r[:, None], c[:, None]
    rows = np.concatenate([row - half, row + half, row + ts, row + ts], axis=1)
    cols = np.concatenate([col + ts, col + ts, col - half, col + half], axis=1)
    xy = np.stack(_finite_xy(*_vp_by_scale(scales, s, rows, cols, resolution)), axis=-1)
    norms = np.linalg.norm(xy, axis=-1)
    c_dir = _directions(*_vp_by_scale(scales, s, r, c, resolution))
    ok = np.isfinite(c_dir).all(axis=1) & ~np.any(norms < 1e-300, axis=1)
    radius = np.full(len(s), np.inf)
    unit = xy[ok] / norms[ok][..., None]
    cosines = np.clip(np.matmul(unit, c_dir[ok][:, :, None])[..., 0], -1.0, 1.0)
    radius[ok] = np.max(np.arccos(cosines), axis=1)
    return radius


def _vp_by_scale(scales, index, rows, cols, resolution: int) -> tuple[np.ndarray, ...]:
    """:func:`vp_of_pixel` at ``(rows, cols)`` on the grid ``scales[index]``,
    as ``(x, y, w)``; ``index`` runs along the first axis of ``rows``.

    A position outside the diamond is first shrunk radially onto its
    boundary (multiplied by ``1 / (|X| + |Y|)``).
    """
    X, Y = _diamond_of(np.asarray(rows, dtype=float), np.asarray(cols, dtype=float), resolution)
    absum = np.abs(X) + np.abs(Y)
    outside = absum > 1.0
    if np.any(outside):
        factor = np.where(outside, 1.0 / np.maximum(absum, 1e-300), 1.0)
        X, Y = X * factor, Y * factor
    x, y, w = pj.from_diamond_columns(X, Y, 1.0)
    inverse = (1.0 / np.asarray(scales, dtype=float))[index]
    inverse = inverse.reshape(inverse.shape + (1,) * (x.ndim - inverse.ndim))
    return x * inverse, y * inverse, w


# Cells per block of a grid's sample-cell table: it grows a block at a time,
# so no entry is ever copied and at most one block is partly unused.
_BLOCK = 64


class _CellTables:
    """What a decode needs to know about the cells of one grid.

    A grid is a scale set and a resolution; the entries depend on the cell
    alone and are indexed ``[scale index, row, col]``. The point tables,
    the :func:`_point_table` of each cell's :func:`vp_of_pixel` (``vp``,
    ``xy``, ``ideal``, ``norm``, ``direction``), are built whole when the
    grid is first used.

    ``radius``, :func:`quantization_radius` at its defaults, takes 36
    boundary points per cell, so :meth:`radii` fills it only for the cells
    a decode asks for; two threads that fill one cell write the same value.

    The sample-cell table says where the sub-pixel samples of a chosen peak
    cell land at every scale, and which way they point; :meth:`lookup`
    fills it only for the chosen cells a decode meets. For each of a cell's
    :data:`_SUBPIXEL` samples it holds, at every scale, the flat index
    ``row * R + col`` of the cell where :func:`_nearest_cells` puts the
    sample, and the sample's unit direction from the box centre
    (:func:`_directions` of its point). The indices take the narrowest
    unsigned dtype that holds ``R * R - 1``: uint16 at 64 x 64, so a cell
    takes 1.8 KB of indices at four scales and 3.6 KB of float64
    directions, 5.4 KB in all. The entries are stored in blocks of
    :data:`_BLOCK` cells, in the order they were filled, and a dense int32
    index over the grid's ``S * R * R`` cells gives each cell's entry, -1
    where it has none: 64 KB at four 64 x 64 scales. A lock keeps
    concurrent lookups from filling it at once.
    """

    def __init__(self, scales: tuple[float, ...], resolution: int):
        for s in scales:
            pj.check_scale(s)
        self.scales = scales
        self.resolution = resolution
        shape = (len(scales), resolution, resolution)
        vp = np.stack(_vp_by_scale(scales, *np.indices(shape), resolution), axis=-1)
        self.vp, self.xy, self.ideal, self.norm, self.direction = _point_table(vp)
        self.radius = np.zeros(shape)
        self._has_radius = np.zeros(shape, dtype=bool)
        self._lock = threading.Lock()
        self._entry = np.full(len(scales) * resolution * resolution, -1, dtype=np.int32)
        self._size = 0
        self._dtype = np.min_scalar_type(resolution * resolution - 1)
        self._cells, self._dirs = [], []

    def radii(self, s, r, c) -> np.ndarray:
        """``radius`` at cells ``(s, r, c)``, computed where missing."""
        todo = ~self._has_radius[s, r, c]
        if todo.any():
            flat = np.ravel_multi_index((s[todo], r[todo], c[todo]), self.radius.shape)
            cells = np.unravel_index(np.unique(flat), self.radius.shape)
            self.radius[cells] = _quantization_radii(self.scales, *cells, self.resolution,
                                                     _EDGE_SAMPLES)
            self._has_radius[cells] = True
        return self.radius[s, r, c]

    def lookup(self, chosen, row, col) -> tuple[np.ndarray, np.ndarray]:
        """``(M, S, samples)`` flat cell indices and ``(M, samples, 2)`` sample
        directions of the chosen cells, filling the missing ones in one pass."""
        key = (chosen * self.resolution + row) * self.resolution + col
        with self._lock:
            entry = self._entry[key]
            missing = entry < 0
            if missing.any():
                self._fill(np.unique(key[missing]))
                entry = self._entry[key]
            block, at = np.divmod(entry, _BLOCK)
            cells = np.empty((len(key), len(self.scales), len(_SUBPIXEL)), dtype=self._dtype)
            dirs = np.empty((len(key), len(_SUBPIXEL), 2))
            for b in np.unique(block).tolist():
                here = block == b
                cells[here] = self._cells[b][at[here]]
                dirs[here] = self._dirs[b][at[here]]
        return cells, dirs

    def _fill(self, key: np.ndarray) -> None:
        """Store the entries of the cells ``key``, flat indices of cells
        that have none yet."""
        scales, resolution = self.scales, self.resolution
        chosen, row, col = np.unravel_index(key, (len(scales), resolution, resolution))
        samples = _vp_by_scale(scales, chosen, row[:, None] + _SUBPIXEL[:, 0],
                               col[:, None] + _SUBPIXEL[:, 1], resolution)
        row, col = _nearest_cells(*samples, scales, resolution)
        cells = np.moveaxis(row * resolution + col, 0, 1)
        dirs = _directions(*samples)
        size = self._size
        self._entry[key] = np.arange(size, size + len(key))
        self._size += len(key)
        done = 0
        while done < len(key):
            block, at = divmod(size + done, _BLOCK)
            if block == len(self._cells):
                self._cells.append(np.empty((_BLOCK,) + cells.shape[1:], dtype=self._dtype))
                self._dirs.append(np.empty((_BLOCK,) + dirs.shape[1:]))
            n = min(_BLOCK - at, len(key) - done)
            self._cells[block][at : at + n] = cells[done : done + n]
            self._dirs[block][at : at + n] = dirs[done : done + n]
            done += n


@functools.lru_cache(maxsize=8)
def _cell_tables(scales: tuple[float, ...], resolution: int) -> _CellTables:
    return _CellTables(scales, resolution)


# Sub-pixel (row, col) offsets of the samples that stand for one cell when
# the scales are intersected: the centres of a 15 x 15 split of the cell.
_SUBPIXEL = np.stack(
    np.meshgrid(*2 * [(np.arange(15) + 0.5) / 15 - 0.5], indexing="ij"), axis=-1
).reshape(-1, 2)


def _run_means(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """``np.mean`` of every run ``values[starts[k]:starts[k + 1]]``, bit for bit.

    numpy's summation order depends on the run length alone, so the runs of
    one length are averaged in one ``(runs, length)`` row mean, which sums
    each row as ``np.mean`` sums the run; ``np.add.reduceat`` would not. A
    single value is its own mean.
    """
    lengths = np.diff(starts, append=len(values))
    means = values[starts]
    for length in np.unique(lengths[lengths > 1]).tolist():
        runs = np.flatnonzero(lengths == length)
        means[runs] = values[starts[runs, None] + np.arange(length)].mean(axis=1)
    return means


def _point_table(vp) -> tuple[np.ndarray, ...]:
    """The homogeneous points ``vp`` (``(..., 3)``) and what a spread takes
    of them: each one's dehomogenized ``(x, y)``, where they lie at infinity
    (``projective.is_ideal``), the length of each finite one's ``(x, y)``
    (both NaN at infinity) and each one's unit direction from the box
    centre."""
    ideal = pj.is_ideal(vp, IDEAL_EPS)
    xy = np.full(ideal.shape + (2,), np.nan)
    xy[~ideal] = pj.dehomogenize(vp[~ideal])
    norm = np.full(ideal.shape, np.nan)
    norm[~ideal] = pj.row_norms(xy[~ideal])
    return vp, xy, ideal, norm, _directions(vp[..., 0], vp[..., 1], vp[..., 2])


def _spread(xy, ideal, norm, direction, cells, grid, peaks) -> np.ndarray:
    """:func:`accuracy_measure` of each of ``len(peaks)`` grids, from the rows
    of a flat :func:`_point_table` past its points: ``cells`` are the rows
    of the grids' near-maximum cells, ``grid`` the grid of each, in order,
    and ``peaks`` the row of each grid's peak. Distances are between unit
    directions where the peak lies at infinity, else between points, cells
    at infinity skipped. A grid left with no cell gets inf, so it ranks
    last."""
    peak = peaks[grid]
    on = ideal[peak]
    use = on | ~ideal[cells]
    cells, grid, peak, on = cells[use], grid[use], peak[use], on[use]
    dist = np.empty(len(cells))
    dist[on] = np.linalg.norm(direction[cells[on]] - direction[peak[on]], axis=1)
    off = ~on
    dist[off] = np.linalg.norm(xy[cells[off]] - xy[peak[off]], axis=1)
    starts = np.flatnonzero(np.diff(grid, prepend=-1))
    spread = np.full(len(peaks), np.inf)
    spread[grid[starts]] = _run_means(dist, starts)
    finite = grid[starts[~on[starts]]]
    spread[finite] /= norm[peaks[finite]]
    return spread


def _fuse(tables: _CellTables, near, records, chosen, row, col, centre, ideal, others):
    """Homogeneous box-coordinate VPs where the other scales' cells meet the chosen ones.

    One row per decoded record: ``records`` indexes ``near``, ``chosen`` is
    the chosen scale, ``(row, col)`` its peak cell, ``centre`` the point of
    that cell and ``others`` marks the other non-empty scales. Each chosen
    cell is sampled on a sub-pixel grid; a sample is kept when, at every
    other scale, it falls into a near-maximum cell (by the rounding of
    :func:`encode_vp`). Where each sample falls and which way it points
    come from the grid's sample-cell table (:meth:`_CellTables.lookup`), so
    the samples of each distinct chosen cell are mapped once per process;
    only the points at the mean positions are computed here. The result is the point at the mean position of the kept samples,
    or ``centre`` when no sample is kept or when that point is farther from
    some kept sample than ``centre`` is. The mean never reaches the grid
    diagonal, where points lie at infinity, unless the chosen cell is on it.
    """
    scales, resolution = tables.scales, tables.resolution
    n_scales = len(scales)
    cells, sample_dirs = tables.lookup(chosen, row, col)
    # each sample's cell as a flat index into the C-ordered near, for one take
    grids = (records[:, None] * n_scales + np.arange(n_scales)) * (resolution * resolution)
    keep = np.take(near, grids[:, :, None] + cells)
    keep |= ~others[:, :, None]
    keep = keep.all(axis=1)
    count = keep.sum(axis=1)
    fused = centre.copy()
    some = count > 0
    # sample-major positions: rc[keep].mean(axis=0) adds the kept (row, col)
    # pairs in order, and so does a sum over the leading axis with (2, M)
    # behind it, in one pass per sample; a skipped sample adds a zero. With
    # (M,) behind it, M = 1 would make the sum a pairwise one.
    rc = np.stack([row, col]) + _SUBPIXEL[:, :, None]
    mean = (rc * keep.T[:, None, :]).sum(axis=0)[:, some] / count[some]
    fused[some] = np.stack(_vp_by_scale(scales, chosen[some], *mean, resolution), axis=-1)
    # a direction at infinity stays one, oriented like the centre's
    flip = ideal & (np.sum(fused[:, :2] * centre[:, :2], axis=1) < 0.0)
    fused[flip, :2] *= -1.0
    fused[ideal, 2] = 0.0

    def worst_angle(direction):
        # the stacked matmul gives each sample what ``dirs @ direction`` gives
        # it; for a point at infinity both signs of a direction are one point
        cosines = np.matmul(sample_dirs, direction[:, :, None])[..., 0]
        cosines[ideal] = np.abs(cosines[ideal])
        angles = np.arccos(np.clip(cosines, -1.0, 1.0))
        return np.max(angles, axis=1, where=keep, initial=-np.inf)

    closer = ~(worst_angle(_directions(*fused.T)) > worst_angle(_directions(*centre.T)))
    return np.where((some & closer)[:, None], fused, centre)


def decode_stack(
    values,
    scales,
    boxes,
    peak_ratio: float = DEFAULT_PEAK_RATIO,
) -> list[VPDetection | None]:
    """:func:`select_vp` for many records at once, as array operations.

    ``values`` is an ``(N, S, R, R)`` float stack of finite responses: one
    channel of N records, one grid per scale of ``scales``; ``boxes`` holds
    the N records' boxes. Entry ``n`` of the result equals what
    ``select_vp`` returns for ``values[n]``, field by field, or is ``None``
    where it raises :class:`AllScalesDegenerate`. Per-cell quantities, where
    the sub-pixel samples of the chosen cells land among them, come from
    tables of the grid that are kept per scale set and resolution for the
    process (:class:`_CellTables`).
    """
    values = np.asarray(values)
    records, points, is_direction, spread, scale = _decode_stack(values, scales, peak_ratio)
    if len(boxes) != len(values):
        raise ValueError(f"need one box per record, got {len(boxes)} for {len(values)}")
    points = box_to_frame(points, is_direction, [boxes[k] for k in records])
    out: list[VPDetection | None] = [None] * len(values)
    for j, k in enumerate(records.tolist()):
        out[k] = VPDetection(points[j], float(spread[j]), float(scale[j]), bool(is_direction[j]))
    return out


def _round_up(threshold: np.ndarray, dtype) -> np.ndarray:
    """The smallest value of the float ``dtype`` at or above each float64
    ``threshold`` (finite, and within the dtype's range): a value of that
    dtype is at least the threshold exactly when it is at least this."""
    out = threshold.astype(dtype)
    below = out < threshold
    out[below] = np.nextafter(out[below], np.inf, dtype=dtype)
    return out


def _near_maximum(values: np.ndarray, peak_ratio) -> tuple[np.ndarray, ...]:
    """The maximum of each grid of an ``(N, S, R, R)`` stack, as float64 and
    at least zero (read at the argmax: -0.0 becomes +0.0), the ``(row, col)``
    of its first cell in row-major order, and the mask of the cells at least
    ``peak_ratio`` times the maximum, compared in the stack's own precision.
    Negative responses count as zero, so all of them reach a zero threshold.
    """
    flat = values.reshape(values.shape[:2] + (values.shape[2] * values.shape[3],))
    peak = flat.argmax(axis=2)
    top = np.maximum(np.take_along_axis(flat, peak[..., None], axis=2)[..., 0], 0.0).astype(float)
    threshold = peak_ratio * top
    near = values >= _round_up(threshold, values.dtype)[:, :, None, None]
    near[threshold == 0.0] = True
    return (top, *np.divmod(peak, values.shape[-1]), near)


def _decode_stack(values, scales, peak_ratio):
    """:func:`decode_stack` in box coordinates.

    Columns with a row per decoded record: its index in ``values``, its
    box-coordinate point or direction, the direction mask, the spread and
    the chosen scale.
    """
    _check_peak_ratio(peak_ratio)
    values = np.asarray(values)
    if not np.issubdtype(values.dtype, np.floating):
        values = values.astype(float)
    if values.ndim != 4 or values.shape[2] != values.shape[3]:
        raise ValueError(f"expected an (N, S, R, R) stack, got shape {values.shape}")
    n, n_scales, resolution = values.shape[:3]
    check_integer(resolution, "resolution", 2)
    if len(scales) != n_scales:
        raise ValueError("need one scale per grid")
    if n_scales == 0:
        return np.empty(0, int), np.empty((0, 2)), np.empty(0, bool), np.empty(0), np.empty(0)
    tables = _cell_tables(tuple(float(s) for s in scales), resolution)
    scale_index = np.broadcast_to(np.arange(n_scales), (n, n_scales))

    top, row, col, near = _near_maximum(values, peak_ratio)
    nonempty = top > 0.0

    # skip empty grids and peaks on the box centre; rank the rest by spread,
    # then by quantization radius, then by scale order
    ideal = tables.ideal[scale_index, row, col]
    norm = tables.norm[scale_index, row, col]
    usable = nonempty & (ideal | (norm >= CENTER_EPS))
    cn, cs, cr, cc = np.unravel_index(np.flatnonzero(near & usable[:, :, None, None]), near.shape)
    cells = np.ravel_multi_index((cs, cr, cc), tables.ideal.shape)
    peaks = np.ravel_multi_index((scale_index, row, col), tables.ideal.shape).ravel()
    spread = _spread(tables.xy.reshape(-1, 2), tables.ideal.ravel(), tables.norm.ravel(),
                     tables.direction.reshape(-1, 2), cells, cn * n_scales + cs, peaks)
    spread = spread.reshape(n, n_scales)
    radius = np.full((n, n_scales), np.inf)
    radius[usable] = tables.radii(scale_index[usable], row[usable], col[usable])
    best = usable & (spread == spread.min(axis=1, keepdims=True))
    best &= radius == np.where(best, radius, np.inf).min(axis=1, keepdims=True)

    records = np.flatnonzero(usable.any(axis=1))
    chosen = best[records].argmax(axis=1)
    pr, pc = row[records, chosen], col[records, chosen]
    is_ideal = ideal[records, chosen]
    vph = tables.vp[chosen, pr, pc]
    others = nonempty[records] & (np.arange(n_scales) != chosen[:, None])
    fuse = others.any(axis=1)
    if fuse.any():
        vph[fuse] = _fuse(
            tables, near, records[fuse], chosen[fuse], pr[fuse], pc[fuse],
            vph[fuse], is_ideal[fuse], others[fuse],
        )

    points = vph[:, :2].copy()
    finite = ~is_ideal
    points[finite] = pj.dehomogenize(vph[finite])
    return records, points, is_ideal, spread[records, chosen], np.asarray(tables.scales)[chosen]


def select_vp(
    heatmaps,
    box: BBox,
    peak_ratio: float = DEFAULT_PEAK_RATIO,
) -> VPDetection:
    """Decode one heatmap per scale, keep the scale with the smallest spread,
    and intersect its peak cell with the other scales' cells.

    Ties on the spread measure (ubiquitous with single-cell peaks) are broken
    by the smallest one-pixel quantization bound, i.e. the scale whose grid
    represents this particular vanishing point most precisely, then by scale
    order. Scales whose heatmap is empty or whose peak decodes to the box
    centre are skipped; if every scale is skipped the observation is useless.

    Every scale's peak is a separate quantization of the same vanishing
    point, so the point lies where their cells overlap. The chosen cell is
    sampled on a 15 x 15 sub-pixel grid, each sample is re-encoded at every
    other non-empty scale, and the samples that land in that scale's
    near-maximum cells (all cells at least ``peak_ratio`` times its maximum)
    are kept. The returned point sits at their mean position in the chosen
    grid. It falls back to the chosen cell's centre when no sample is kept,
    and when the fused point's largest angle to a kept sample exceeds the
    centre's: the fused point is never farther from the kept part of the
    cell than the centre is. A direction at infinity stays a direction,
    oriented like the centre's. All heatmaps must share one resolution.

    This is the one-record call of :func:`decode_stack`: where the samples
    of a cell land is mapped once per grid and process, not once per call.
    """
    heatmaps = list(heatmaps)
    if any(h.resolution != heatmaps[0].resolution for h in heatmaps):
        raise ValueError("all heatmaps must share one resolution")
    detection = None
    if heatmaps:
        values = np.stack([h.values for h in heatmaps])[None]
        (detection,) = decode_stack(values, [h.scale for h in heatmaps], [box], peak_ratio)
    if detection is None:
        raise AllScalesDegenerate("no heatmap scale produced a usable vanishing point")
    return detection


class HeatmapCodec:
    """Encode/decode vanishing points against a fixed scale set and grid.

    Channel convention for per-vehicle observations: channel 0 is the
    vanishing point of the direction the vehicle faces, channel 1 the
    orthogonal one. The parameters are checked when the codec is built, and
    a bad one raises ``ValueError``: ``resolution`` must be an integer of at
    least 2, ``scales`` strictly increasing reals and ``sigma`` a real, all
    in :data:`LENGTH_RANGE`, [1e-60, 1e60], and ``peak_ratio`` a real in
    (0, 1].

    A codec keeps no decode state: its decodes read and fill the tables of
    its grid (:class:`_CellTables`) that every decode in the process
    shares, so threads may share a codec.
    """

    def __init__(
        self,
        resolution: int = DEFAULT_RESOLUTION,
        scales=DEFAULT_SCALES,
        sigma: float = DEFAULT_SIGMA,
        peak_ratio: float = DEFAULT_PEAK_RATIO,
    ):
        self.resolution = check_integer(resolution, "resolution", 2)
        self.scales = check_scales(scales)
        self.sigma = float(check_real(sigma, "sigma", *LENGTH_RANGE))
        _check_peak_ratio(peak_ratio)
        self.peak_ratio = float(peak_ratio)

    def encode(self, vp) -> list[Heatmap]:
        """One heatmap per scale for a box-coordinate vanishing point: what
        :func:`encode_vp` gives at each scale."""
        (maps,) = _encoded(_as_vp_homogeneous(vp)[None], self.scales, self.resolution, self.sigma)
        return maps

    def decode(self, heatmaps, box: BBox) -> VPDetection:
        """:func:`select_vp` at the codec's peak ratio."""
        return select_vp(heatmaps, box, self.peak_ratio)

    def encode_pair(self, first_vp, second_vp) -> list[list[Heatmap]]:
        """Channel-major heatmaps for a (first, second) vanishing-point pair:
        :meth:`encode` of each, both in one block."""
        vph = np.stack([_as_vp_homogeneous(first_vp), _as_vp_homogeneous(second_vp)])
        return _encoded(vph, self.scales, self.resolution, self.sigma)

    def decode_pair(self, channel_maps, box: BBox) -> tuple[VPDetection, VPDetection]:
        first, second = channel_maps
        return self.decode(first, box), self.decode(second, box)
