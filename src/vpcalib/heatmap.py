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
per-grid tables that are filled the first time a decode touches the cell.

Grid convention: ``values[row, col]`` with the rotated coordinates
``u = X + Y`` (column axis) and ``v = Y - X`` (row axis), each spanning
[-1, 1] across pixel centres ``0 .. resolution - 1``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import projective as pj
from .errors import (
    AllScalesDegenerate,
    DegeneratePeak,
    EmptyHeatmap,
    InvalidScale,
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
    "bbox_normalize_direction",
    "bbox_denormalize_direction",
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

# Relative |w| below which a decoded homogeneous point counts as a direction.
IDEAL_EPS = 1e-9
# Norm below which a decoded peak sits on the bounding-box centre.
CENTER_EPS = 1e-9


def check_scales(scales) -> tuple[float, ...]:
    """Validate a scale set: strictly increasing positive reals."""
    out = tuple(float(s) for s in scales)
    if not out:
        raise ValueError("scale set must not be empty")
    if any(not np.isfinite(s) or s <= 0 for s in out):
        raise ValueError(f"scales must be positive and finite, got {out}")
    if any(b <= a for a, b in zip(out, out[1:])):
        raise ValueError(f"scales must be strictly increasing, got {out}")
    return out


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
        return np.array([(self.x_min + self.x_max) / 2.0, (self.y_min + self.y_max) / 2.0])

    @property
    def half_size(self) -> np.ndarray:
        return np.array([(self.x_max - self.x_min) / 2.0, (self.y_max - self.y_min) / 2.0])

    def iou(self, other: "BBox") -> float:
        ix = min(self.x_max, other.x_max) - max(self.x_min, other.x_min)
        iy = min(self.y_max, other.y_max) - max(self.y_min, other.y_min)
        if ix <= 0 or iy <= 0:
            return 0.0
        inter = ix * iy
        area = (self.x_max - self.x_min) * (self.y_max - self.y_min)
        area_o = (other.x_max - other.x_min) * (other.y_max - other.y_min)
        return inter / (area + area_o - inter)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x_min, self.y_min, self.x_max, self.y_max)


@dataclass
class Heatmap:
    """One square response grid over the rotated diamond at a single scale."""

    values: np.ndarray
    scale: float

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2 or self.values.shape[0] != self.values.shape[1]:
            raise ValueError(f"heatmap must be square, got shape {self.values.shape}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("heatmap values must be finite")
        if not (np.isfinite(self.scale) and self.scale > 0):
            raise ValueError(f"heatmap scale must be positive, got {self.scale}")

    @property
    def resolution(self) -> int:
        return self.values.shape[0]


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
    """Frame pixels -> box coordinates (centre at origin, corners at (+-1, +-1))."""
    pts = np.asarray(points, dtype=float)
    return (pts - box.center) / box.half_size


def bbox_denormalize(points, box: BBox) -> np.ndarray:
    """Inverse of :func:`bbox_normalize`."""
    pts = np.asarray(points, dtype=float)
    return pts * box.half_size + box.center


def bbox_normalize_direction(direction, box: BBox) -> np.ndarray:
    """Linear part of :func:`bbox_normalize`, for points at infinity."""
    return np.asarray(direction, dtype=float) / box.half_size


def bbox_denormalize_direction(direction, box: BBox) -> np.ndarray:
    return np.asarray(direction, dtype=float) * box.half_size


# ---------------------------------------------------------------------------
# diamond <-> grid


def diamond_to_pixel(xy, resolution: int = DEFAULT_RESOLUTION) -> np.ndarray:
    """Diamond Cartesian (X, Y) -> fractional (row, col) on the rotated grid.

    Rotating by 45 degrees maps the diamond onto the full square, so every
    grid cell represents actual projective plane: ``u = X + Y``,
    ``v = Y - X``, then [-1, 1] is spread across the pixel centres.
    """
    xy = np.asarray(xy, dtype=float)
    absum = np.abs(xy[..., 0]) + np.abs(xy[..., 1])
    if np.any(absum > 1.0 + 1e-9):
        raise OutOfDiamond(f"|X| + |Y| = {float(np.max(absum))} exceeds 1")
    u = xy[..., 0] + xy[..., 1]
    v = xy[..., 1] - xy[..., 0]
    col = (u + 1.0) / 2.0 * (resolution - 1)
    row = (v + 1.0) / 2.0 * (resolution - 1)
    return np.stack([row, col], axis=-1)


def pixel_to_diamond(rowcol, resolution: int = DEFAULT_RESOLUTION) -> np.ndarray:
    """Fractional (row, col) -> diamond Cartesian (X, Y). Exact inverse on its range."""
    rc = np.asarray(rowcol, dtype=float)
    u = 2.0 * rc[..., 1] / (resolution - 1) - 1.0
    v = 2.0 * rc[..., 0] / (resolution - 1) - 1.0
    return np.stack([(u - v) / 2.0, (u + v) / 2.0], axis=-1)


def _clamp_to_diamond(xy: np.ndarray) -> np.ndarray:
    """Radially shrink points with |X| + |Y| > 1 onto the diamond boundary."""
    absum = np.abs(xy[..., 0]) + np.abs(xy[..., 1])
    factor = np.where(absum > 1.0, 1.0 / np.maximum(absum, 1e-300), 1.0)
    return xy * factor[..., None]


def _as_vp_homogeneous(vp) -> np.ndarray:
    vp = np.asarray(vp, dtype=float)
    if vp.shape == (2,):
        return np.array([vp[0], vp[1], 1.0])
    if vp.shape == (3,):
        return vp
    raise ValueError(f"vanishing point must be (2,) or homogeneous (3,), got {vp.shape}")


def _round_half_up(x) -> np.ndarray:
    # ties go toward +inf so encode/decode share one deterministic grid
    return np.floor(np.asarray(x) + 0.5).astype(int)


def _nearest_cells(vph: np.ndarray, scales, resolution: int) -> np.ndarray:
    """Integer (row, col) of the cell where :func:`encode_vp` puts the peak.

    ``vph`` holds homogeneous box-coordinate point(s); the result has shape
    ``(len(scales),) + vph.shape[:-1] + (2,)``, one cell per scale.
    """
    vph = vph / np.max(np.abs(vph), axis=-1, keepdims=True)
    scaled = np.stack([pj.scale_point(vph, s) for s in scales])
    xy = pj.dehomogenize(pj.to_diamond(scaled))
    return _round_half_up(diamond_to_pixel(xy, resolution))


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
    sparse without moving the argmax.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    i0, j0 = _nearest_cells(_as_vp_homogeneous(vp), [scale], resolution)[0]

    values = np.zeros((resolution, resolution))
    reach = int(np.ceil(3.0 * sigma))
    lo_i, hi_i = max(0, i0 - reach), min(resolution, i0 + reach + 1)
    lo_j, hi_j = max(0, j0 - reach), min(resolution, j0 + reach + 1)
    ii = np.arange(lo_i, hi_i)
    jj = np.arange(lo_j, hi_j)
    di2 = (ii - i0) ** 2
    dj2 = (jj - j0) ** 2
    patch = np.exp(-(di2[:, None] + dj2[None, :]) / (2.0 * sigma * sigma))
    patch[patch < 1e-4] = 0.0
    values[lo_i:hi_i, lo_j:hi_j] = patch
    return Heatmap(values, scale)


def decode_heatmap(
    heatmap: Heatmap, peak_ratio: float = DEFAULT_PEAK_RATIO
) -> tuple[tuple[int, int], np.ndarray]:
    """Grid argmax plus the set of near-maximum cells.

    Negative responses (possible in raw detector output) are zeroed first.
    Returns ``((i, j), candidates)`` where ``candidates`` is an (n, 2) int
    array in row-major order containing every cell with value at least
    ``peak_ratio`` times the maximum; the argmax tie-break is the first cell
    in row-major order and is always a member of ``candidates``.
    """
    if not (0.0 < peak_ratio <= 1.0):
        raise ValueError(f"peak_ratio must be in (0, 1], got {peak_ratio}")
    values = np.maximum(heatmap.values, 0.0)
    top = values.max()
    if top <= 0.0:
        raise EmptyHeatmap("all heatmap values are zero")
    flat = int(np.argmax(values))
    peak = (flat // heatmap.resolution, flat % heatmap.resolution)
    candidates = np.argwhere(values >= peak_ratio * top)
    return peak, candidates


def vp_of_pixel(
    row,
    col,
    scale: float,
    resolution: int = DEFAULT_RESOLUTION,
) -> np.ndarray:
    """Homogeneous box-coordinate vanishing point of a (possibly fractional) grid cell.

    The returned triple may have ``w ~ 0`` for cells on the diamond boundary:
    those decode to directions rather than finite points.
    """
    return pj.scale_point(_unscaled_vp_of_pixel(row, col, resolution), 1.0 / scale)


def _unscaled_vp_of_pixel(row, col, resolution: int) -> np.ndarray:
    """:func:`vp_of_pixel` before the division by the scale."""
    rc = np.stack([np.asarray(row, dtype=float), np.asarray(col, dtype=float)], axis=-1)
    xy = _clamp_to_diamond(pixel_to_diamond(rc, resolution))
    return pj.from_diamond(np.concatenate([xy, np.ones(xy.shape[:-1] + (1,))], axis=-1))


def _directions(vph: np.ndarray) -> np.ndarray:
    """Unit direction from the box centre for finite or infinite homogeneous points."""
    vph = np.atleast_2d(vph)
    ideal = pj.is_ideal(vph, IDEAL_EPS)
    xy = np.where(ideal[:, None], vph[:, :2], vph[:, :2] / np.where(ideal, 1.0, vph[:, 2])[:, None])
    norms = np.linalg.norm(xy, axis=1)
    return xy / np.maximum(norms, 1e-300)[:, None]


def accuracy_measure(heatmap: Heatmap, peak: tuple[int, int], candidates: np.ndarray) -> float:
    """Mean relative spread of the near-maximum cells around the peak.

    Each candidate cell decodes to a vanishing point in box coordinates; the
    measure is the mean of ``|v - v_peak| / |v_peak|``. Cells decoding to
    points at infinity are skipped (their spread is unbounded). When the peak
    itself decodes to a direction, the spread is computed on unit direction
    vectors instead, so a detection at infinity still gets a finite, zero-
    when-unanimous uncertainty.
    """
    cand = np.asarray(candidates, dtype=float)
    if cand.ndim != 2 or cand.shape[0] == 0:
        raise ValueError("candidates must be a nonempty (n, 2) array")
    vph = vp_of_pixel(cand[:, 0], cand[:, 1], heatmap.scale, heatmap.resolution)
    peak_vph = vp_of_pixel(float(peak[0]), float(peak[1]), heatmap.scale, heatmap.resolution)

    if pj.is_ideal(peak_vph, IDEAL_EPS):
        dirs = _directions(vph)
        peak_dir = _directions(peak_vph)[0]
        return float(np.mean(np.linalg.norm(dirs - peak_dir, axis=1)))

    peak_xy = pj.dehomogenize(peak_vph)
    peak_norm = float(np.linalg.norm(peak_xy))
    if peak_norm < CENTER_EPS:
        raise DegeneratePeak("peak decodes to the bounding-box centre")
    finite = ~pj.is_ideal(vph, IDEAL_EPS)
    xy = pj.dehomogenize(vph[finite])
    return float(np.mean(np.linalg.norm(xy - peak_xy, axis=1)) / peak_norm)


def quantization_radius(
    row: int,
    col: int,
    scale: float,
    resolution: int = DEFAULT_RESOLUTION,
    edge_samples: int = 9,
) -> float:
    """One-pixel quantization bound at a grid cell, in radians.

    Largest angle between the vanishing-point direction decoded at the cell
    centre and those decoded on the boundary of the half-pixel cell: any true
    position that rounds to this cell lies within this angle of the decoded
    point. Infinite when the cell touches a degenerate decode, which makes
    such cells sort last during scale selection.
    """
    ts = np.linspace(-0.5, 0.5, edge_samples)
    half = np.full_like(ts, 0.5)
    rows = np.concatenate([row - half, row + half, row + ts, row + ts])
    cols = np.concatenate([col + ts, col + ts, col - half, col + half])
    center = vp_of_pixel(float(row), float(col), scale, resolution)
    c_dir = _directions(center)[0]
    if not np.isfinite(c_dir).all():
        return np.inf
    boundary = vp_of_pixel(rows, cols, scale, resolution)
    xy = boundary[:, :2].copy()
    finite = ~pj.is_ideal(boundary, IDEAL_EPS)
    xy[finite] /= boundary[finite, 2][:, None]
    norms = np.linalg.norm(xy, axis=1)
    if np.any(norms < 1e-300):
        return np.inf
    cosines = np.clip((xy / norms[:, None]) @ c_dir, -1.0, 1.0)
    return float(np.max(np.arccos(cosines)))


def _dot_norms(xy: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of every row of ``xy``, bit for bit.

    For one vector numpy takes the square root of its dot product with
    itself; a stacked matmul takes the same dot product row by row, which a
    sum of squares does not reproduce exactly.
    """
    xy = np.ascontiguousarray(xy)
    return np.sqrt(np.matmul(xy[:, None, :], xy[:, :, None])[:, 0, 0])


def _vp_by_scale(scales, index, rows, cols, resolution: int) -> np.ndarray:
    """:func:`vp_of_pixel` at ``(rows, cols)`` on the grid ``scales[index]``.

    ``index`` runs along the first axis of ``rows`` and ``cols``; the
    product with the same ``1.0 / scale`` gives the same bits.
    """
    vph = _unscaled_vp_of_pixel(rows, cols, resolution)
    inverse = (1.0 / np.asarray(scales, dtype=float))[index]
    vph[..., :2] *= inverse.reshape(inverse.shape + (1,) * (vph.ndim - inverse.ndim))
    return vph


class _CellTables:
    """What a decode needs to know about the cells of one grid.

    A grid is a scale set and a resolution; the entries depend on the cell
    alone, are indexed ``[scale index, row, col]`` and are computed the
    first time a decode touches the cell, with the numpy operations of the
    scalar functions, so every entry equals what they return:

    - ``vp``: :func:`vp_of_pixel` at the cell;
    - ``ideal``: ``projective.is_ideal`` of it (a point at infinity);
    - ``direction``: its unit direction from the box centre;
    - ``norm``: the length of its dehomogenized point (NaN where ideal);
    - ``radius``: :func:`quantization_radius` at its defaults.
    """

    def __init__(self, scales: tuple[float, ...], resolution: int):
        if not all(np.isfinite(s) and s > 0 for s in scales):
            raise InvalidScale(f"scales must be positive and finite, got {scales}")
        self.scales = scales
        self.resolution = resolution
        shape = (len(scales), resolution, resolution)
        self.vp = np.zeros(shape + (3,))
        self.ideal = np.zeros(shape, dtype=bool)
        self.direction = np.zeros(shape + (2,))
        self.norm = np.zeros(shape)
        self.radius = np.zeros(shape)
        self._has_point = np.zeros(shape, dtype=bool)
        self._has_radius = np.zeros(shape, dtype=bool)

    @staticmethod
    def _missing(filled: np.ndarray, s, r, c):
        """The distinct cells among ``(s, r, c)`` that are not filled yet, or None."""
        todo = ~filled[s, r, c]
        if not todo.any():
            return None
        flat = np.unique(np.ravel_multi_index((s[todo], r[todo], c[todo]), filled.shape))
        return np.unravel_index(flat, filled.shape)

    def fill_points(self, s, r, c) -> None:
        """Compute ``vp``, ``ideal``, ``direction`` and ``norm`` where missing."""
        todo = self._missing(self._has_point, s, r, c)
        if todo is None:
            return
        s, r, c = todo
        vph = _vp_by_scale(self.scales, s, r, c, self.resolution)
        ideal = pj.is_ideal(vph, IDEAL_EPS)
        norm = np.full(len(s), np.nan)
        norm[~ideal] = _dot_norms(pj.dehomogenize(vph[~ideal]))
        self.vp[s, r, c] = vph
        self.ideal[s, r, c] = ideal
        self.direction[s, r, c] = _directions(vph)
        self.norm[s, r, c] = norm
        self._has_point[s, r, c] = True

    def radii(self, s, r, c) -> np.ndarray:
        """``radius`` at cells ``(s, r, c)``, computed where missing."""
        todo = self._missing(self._has_radius, s, r, c)
        if todo is not None:
            self._fill_radius(*todo)
        return self.radius[s, r, c]

    def _fill_radius(self, s, r, c) -> None:
        # quantization_radius for many cells at once; a stacked matmul takes
        # the same per-cell matrix-vector product as its ``@``
        self.fill_points(s, r, c)
        ts = np.linspace(-0.5, 0.5, 9)
        half = np.full_like(ts, 0.5)
        row, col = r[:, None], c[:, None]
        rows = np.concatenate([row - half, row + half, row + ts, row + ts], axis=1)
        cols = np.concatenate([col + ts, col + ts, col - half, col + half], axis=1)
        boundary = _vp_by_scale(self.scales, s, rows, cols, self.resolution)
        xy = boundary[..., :2].copy()
        finite = ~pj.is_ideal(boundary, IDEAL_EPS)
        xy[finite] /= boundary[finite][:, 2:3]
        norms = np.linalg.norm(xy, axis=-1)
        c_dir = self.direction[s, r, c]
        ok = np.isfinite(c_dir).all(axis=1) & ~np.any(norms < 1e-300, axis=1)
        radius = np.full(len(s), np.inf)
        unit = xy[ok] / norms[ok][..., None]
        cosines = np.clip(np.matmul(unit, c_dir[ok][:, :, None])[..., 0], -1.0, 1.0)
        radius[ok] = np.max(np.arccos(cosines), axis=1)
        self.radius[s, r, c] = radius
        self._has_radius[s, r, c] = True


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

    numpy's summation order depends on the run length, so longer runs are
    left to ``np.mean``; a single value is its own mean.
    """
    ends = np.append(starts[1:], len(values))
    means = values[starts]
    for k in np.flatnonzero(ends - starts > 1):
        means[k] = np.mean(values[starts[k] : ends[k]])
    return means


def _spreads(tables: _CellTables, near, usable, row, col, ideal, norm) -> np.ndarray:
    """:func:`accuracy_measure` of every usable grid; inf elsewhere."""
    n_scales = usable.shape[1]
    cn, cs, cr, cc = np.unravel_index(np.flatnonzero(near & usable[:, :, None, None]), near.shape)
    tables.fill_points(cs, cr, cc)
    # a finite peak's spread skips candidates at infinity
    use = ideal[cn, cs] | ~tables.ideal[cs, cr, cc]
    cn, cs, cr, cc = cn[use], cs[use], cr[use], cc[use]
    pr, pc = row[cn, cs], col[cn, cs]
    dist = np.empty(len(cn))
    on = ideal[cn, cs]
    dist[on] = np.linalg.norm(
        tables.direction[cs[on], cr[on], cc[on]] - tables.direction[cs[on], pr[on], pc[on]],
        axis=1,
    )
    on = ~on
    dist[on] = np.linalg.norm(
        pj.dehomogenize(tables.vp[cs[on], cr[on], cc[on]])
        - pj.dehomogenize(tables.vp[cs[on], pr[on], pc[on]]),
        axis=1,
    )
    grid = cn * n_scales + cs
    starts = np.flatnonzero(np.diff(grid, prepend=-1))
    spread = np.full(usable.shape, np.inf)
    spread.flat[grid[starts]] = _run_means(dist, starts)
    finite = usable & ~ideal
    spread[finite] /= norm[finite]
    return spread


def _fuse(tables: _CellTables, near, records, chosen, row, col, centre, ideal, others):
    """Homogeneous box-coordinate VPs where the other scales' cells meet the chosen ones.

    One row per decoded record: ``records`` indexes ``near``, ``chosen`` is
    the chosen scale, ``(row, col)`` its peak cell, ``centre`` the point of
    that cell and ``others`` marks the other non-empty scales. Each chosen
    cell is sampled on a sub-pixel grid; a sample is kept when, at every
    other scale, it falls into a near-maximum cell (by the rounding of
    :func:`encode_vp`). The result is the point at the mean position of the
    kept samples, or ``centre`` when no sample is kept or when that point is
    farther from some kept sample than ``centre`` is. The mean never reaches
    the grid diagonal, where points lie at infinity, unless the chosen cell
    is on it.
    """
    resolution = tables.resolution
    rc = np.stack([row, col], axis=-1)[:, None, :] + _SUBPIXEL
    samples = _vp_by_scale(tables.scales, chosen, rc[..., 0], rc[..., 1], resolution)
    cells = _nearest_cells(samples, tables.scales, resolution)
    scale_index = np.arange(len(tables.scales))[:, None, None]
    hit = near[records[:, None], scale_index, cells[..., 0], cells[..., 1]]
    keep = np.all(hit | ~others.T[:, :, None], axis=0)
    count = keep.sum(axis=1)
    fused = centre.copy()
    some = count > 0
    # rc[keep].mean(axis=0) adds the kept rows in order; skipped rows add zero
    mean = np.where(keep[..., None], rc, 0.0).sum(axis=1)[some] / count[some, None]
    fused[some] = _vp_by_scale(tables.scales, chosen[some], mean[:, 0], mean[:, 1], resolution)
    # a direction at infinity stays one, oriented like the centre's
    flip = ideal & (np.sum(fused[:, :2] * centre[:, :2], axis=1) < 0.0)
    fused[flip, :2] *= -1.0
    fused[ideal, 2] = 0.0

    sample_dirs = _directions(samples.reshape(-1, 3)).reshape(samples.shape[:2] + (2,))

    def worst_angle(direction):
        # the stacked matmul gives each sample what ``dirs @ direction`` gives
        # it; for a point at infinity both signs of a direction are one point
        cosines = np.matmul(sample_dirs, direction[:, :, None])[..., 0]
        cosines = np.where(ideal[:, None], np.abs(cosines), cosines)
        angles = np.arccos(np.clip(cosines, -1.0, 1.0))
        return np.max(np.where(keep, angles, -np.inf), axis=1)

    closer = ~(worst_angle(_directions(fused)) > worst_angle(_directions(centre)))
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
    where it raises :class:`AllScalesDegenerate`. Per-cell quantities come
    from tables of the grid (cached per scale set and resolution) that are
    filled for the cells the decode touches.
    """
    if not (0.0 < peak_ratio <= 1.0):
        raise ValueError(f"peak_ratio must be in (0, 1], got {peak_ratio}")
    values = np.asarray(values)
    if not np.issubdtype(values.dtype, np.floating):
        values = values.astype(float)
    if values.ndim != 4 or values.shape[2] != values.shape[3]:
        raise ValueError(f"expected an (N, S, R, R) stack, got shape {values.shape}")
    n, n_scales, resolution = values.shape[:3]
    if len(scales) != n_scales or len(boxes) != n:
        raise ValueError("need one scale per grid and one box per record")
    if n_scales == 0:
        return [None] * n
    tables = _cell_tables(tuple(float(s) for s in scales), resolution)
    scale_index = np.broadcast_to(np.arange(n_scales), (n, n_scales))

    # argmax and near-maximum cells of every grid (decode_heatmap), compared
    # in float64 whatever the stack's precision; negative responses count as
    # zero, so all of them reach a zero threshold
    flat = values.reshape(n, n_scales, -1)
    top = np.maximum(flat.max(axis=2), 0.0).astype(float)
    row, col = np.divmod(flat.argmax(axis=2), resolution)
    threshold = peak_ratio * top
    near = values >= threshold[:, :, None, None]
    near[threshold == 0.0] = True
    nonempty = top > 0.0

    # skip empty grids and peaks on the box centre; rank the rest by spread,
    # then by quantization radius, then by scale order
    tables.fill_points(scale_index[nonempty], row[nonempty], col[nonempty])
    ideal = tables.ideal[scale_index, row, col]
    norm = tables.norm[scale_index, row, col]
    usable = nonempty & (ideal | (norm >= CENTER_EPS))
    spread = _spreads(tables, near, usable, row, col, ideal, norm)
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

    corners = np.array([boxes[k].as_tuple() for k in records], dtype=float).reshape(-1, 4)
    box_centre = (corners[:, :2] + corners[:, 2:]) / 2.0
    half = (corners[:, 2:] - corners[:, :2]) / 2.0
    points = np.empty((len(records), 2))
    direction = vph[is_ideal, :2] * half[is_ideal]
    points[is_ideal] = direction / _dot_norms(direction)[:, None]
    finite = ~is_ideal
    points[finite] = pj.dehomogenize(vph[finite]) * half[finite] + box_centre[finite]

    out: list[VPDetection | None] = [None] * n
    for j, k in enumerate(records):
        out[k] = VPDetection(
            points[j],
            float(spread[k, chosen[j]]),
            tables.scales[chosen[j]],
            direction_only=bool(is_ideal[j]),
        )
    return out


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

    This is the one-record call of :func:`decode_stack`.
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
    orthogonal one.
    """

    def __init__(
        self,
        resolution: int = DEFAULT_RESOLUTION,
        scales=DEFAULT_SCALES,
        sigma: float = DEFAULT_SIGMA,
        peak_ratio: float = DEFAULT_PEAK_RATIO,
    ):
        if resolution < 2:
            raise ValueError(f"resolution must be at least 2, got {resolution}")
        self.resolution = int(resolution)
        self.scales = check_scales(scales)
        self.sigma = float(sigma)
        self.peak_ratio = float(peak_ratio)

    def encode(self, vp) -> list[Heatmap]:
        """One heatmap per scale for a box-coordinate vanishing point."""
        return [encode_vp(vp, s, self.resolution, self.sigma) for s in self.scales]

    def decode(self, heatmaps, box: BBox) -> VPDetection:
        return select_vp(heatmaps, box, self.peak_ratio)

    def encode_pair(self, first_vp, second_vp) -> list[list[Heatmap]]:
        """Channel-major heatmaps for a (first, second) vanishing-point pair."""
        return [self.encode(first_vp), self.encode(second_vp)]

    def decode_pair(self, channel_maps, box: BBox) -> tuple[VPDetection, VPDetection]:
        first, second = channel_maps
        return self.decode(first, box), self.decode(second, box)
