"""The ``(..., 3)`` diamond-space kernels and the one-grid decode, kept as references.

:mod:`vpcalib.projective` and :mod:`vpcalib.heatmap` map points between the
projective plane, the diamond and the grid on separate ``x``, ``y`` and
``w`` arrays, with the scales on a leading axis. These are the forms they
replaced: each point a trailing triple, each scale a stacked copy. The
tests require the column kernels to give the same bits, and the same
errors, as these.

The decode and box rules exist once in :mod:`vpcalib.heatmap`, as the
array code of a stack decode; ``decode_heatmap``, ``accuracy_measure`` and
the box helpers there are its one-grid and one-box calls. Their former
scalar bodies are kept here, at the end, so that the tests have a second
implementation to hold the array code to. So is the encoder's former
grid-by-grid rasterizer: one zeroed float64 grid per scale, a Gaussian
patch sliced into each, and a checked ``Heatmap`` made of each grid.
"""

import math

import numpy as np

from vpcalib.errors import DegeneratePeak, EmptyHeatmap, InvalidScale, OutOfDiamond
from vpcalib.heatmap import CENTER_EPS, IDEAL_EPS, Heatmap


def columns(p):
    """The coordinate arrays ``x, y, w`` of ``(..., 3)`` points."""
    return p[..., 0], p[..., 1], p[..., 2]


def same_bits(got, expected) -> bool:
    """Same shape, dtype and bytes: signed zeros and NaN payloads included."""
    got, expected = np.asarray(got), np.asarray(expected)
    return (got.shape == expected.shape and got.dtype == expected.dtype
            and got.tobytes() == expected.tobytes())


def sgn(t):
    return np.where(np.asarray(t, dtype=float) >= 0.0, 1.0, -1.0)


def canonical(p):
    p = np.asarray(p, dtype=float)
    x, y, w = p[..., 0], p[..., 1], p[..., 2]
    if np.any((x == 0) & (y == 0) & (w == 0)):
        raise ValueError("(0, 0, 0) is not a projective point")
    flip = np.where(w != 0, np.sign(w), np.where(y != 0, np.sign(y), np.sign(x)))
    return p * flip[..., None]


def to_diamond(p):
    c = canonical(p)
    x, y, w = c[..., 0], c[..., 1], c[..., 2]
    third = sgn(x) * sgn(y) * x + y + sgn(y) * w
    return np.stack([-w, -x, third], axis=-1)


def from_diamond(d):
    c = canonical(d)
    x, y, w = c[..., 0], c[..., 1], c[..., 2]
    mid = np.abs(x) + np.abs(y) - w
    return np.stack([y, mid, x], axis=-1)


def dehomogenize(p):
    return p[..., :2] / p[..., 2:3]


def is_ideal(p, rel_eps=IDEAL_EPS):
    return np.abs(p[..., 2]) <= rel_eps * np.hypot(p[..., 0], p[..., 1])


def scale_point(p, s):
    if not np.isfinite(s) or s <= 0:
        raise InvalidScale(f"scale must be positive and finite, got {s!r}")
    out = np.asarray(p, dtype=float).copy()
    out[..., 0] *= s
    out[..., 1] *= s
    return out


def diamond_to_pixel(xy, resolution):
    xy = np.asarray(xy, dtype=float)
    absum = np.abs(xy[..., 0]) + np.abs(xy[..., 1])
    if np.any(absum > 1.0 + 1e-9):
        raise OutOfDiamond(f"|X| + |Y| = {float(np.max(absum))} exceeds 1")
    u = xy[..., 0] + xy[..., 1]
    v = xy[..., 1] - xy[..., 0]
    col = (u + 1.0) / 2.0 * (resolution - 1)
    row = (v + 1.0) / 2.0 * (resolution - 1)
    return np.stack([row, col], axis=-1)


def pixel_to_diamond(rowcol, resolution):
    rc = np.asarray(rowcol, dtype=float)
    u = 2.0 * rc[..., 1] / (resolution - 1) - 1.0
    v = 2.0 * rc[..., 0] / (resolution - 1) - 1.0
    return np.stack([(u - v) / 2.0, (u + v) / 2.0], axis=-1)


def _clamp_to_diamond(xy):
    absum = np.abs(xy[..., 0]) + np.abs(xy[..., 1])
    factor = np.where(absum > 1.0, 1.0 / np.maximum(absum, 1e-300), 1.0)
    return xy * factor[..., None]


def nearest_cells(vph, scales, resolution):
    """``(len(scales),) + vph.shape[:-1] + (2,)`` integer ``(row, col)`` cells."""
    size = np.abs(vph)
    vph = vph / np.maximum(np.maximum(size[..., 0], size[..., 1]), size[..., 2])[..., None]
    scaled = np.stack([scale_point(vph, s) for s in scales])
    xy = dehomogenize(to_diamond(scaled))
    return np.floor(diamond_to_pixel(xy, resolution) + 0.5).astype(int)


def unscaled_vp_of_pixel(row, col, resolution):
    rc = np.stack([np.asarray(row, dtype=float), np.asarray(col, dtype=float)], axis=-1)
    xy = _clamp_to_diamond(pixel_to_diamond(rc, resolution))
    return from_diamond(np.concatenate([xy, np.ones(xy.shape[:-1] + (1,))], axis=-1))


def vp_of_pixel(row, col, scale, resolution):
    return scale_point(unscaled_vp_of_pixel(row, col, resolution), 1.0 / scale)


def vp_by_scale(scales, index, rows, cols, resolution):
    vph = unscaled_vp_of_pixel(rows, cols, resolution)
    inverse = (1.0 / np.asarray(scales, dtype=float))[index]
    vph[..., :2] *= inverse.reshape(inverse.shape + (1,) * (vph.ndim - inverse.ndim))
    return vph


def directions(vph):
    """``(N, 2)`` unit directions of ``(N, 3)`` homogeneous points."""
    vph = np.atleast_2d(vph)
    ideal = is_ideal(vph)
    xy = np.where(ideal[:, None], vph[:, :2], vph[:, :2] / np.where(ideal, 1.0, vph[:, 2])[:, None])
    norms = np.linalg.norm(xy, axis=1)
    return xy / np.maximum(norms, 1e-300)[:, None]


def quantization_radius(row, col, scale, resolution, edge_samples=9):
    """The one-cell form of ``heatmap.quantization_radius``: the cell centre's
    direction and its boundary points' directions, one cell at a time."""
    ts = np.linspace(-0.5, 0.5, edge_samples)
    half = np.full_like(ts, 0.5)
    rows = np.concatenate([row - half, row + half, row + ts, row + ts])
    cols = np.concatenate([col + ts, col + ts, col - half, col + half])
    c_dir = directions(vp_of_pixel(float(row), float(col), scale, resolution))[0]
    if not np.isfinite(c_dir).all():
        return np.inf
    vph = vp_of_pixel(rows, cols, scale, resolution)
    ideal = is_ideal(vph)
    xy = np.where(ideal[:, None], vph[:, :2], vph[:, :2] / np.where(ideal, 1.0, vph[:, 2])[:, None])
    norms = np.linalg.norm(xy, axis=1)
    if np.any(norms < 1e-300):
        return np.inf
    cosines = np.clip((xy / norms[:, None]) @ c_dir, -1.0, 1.0)
    return float(np.max(np.arccos(cosines)))


def decode_heatmap(heatmap, peak_ratio=0.8):
    """The grid argmax of one heatmap, as Python ints, and its near-maximum
    cells in row-major order; ``peak_ratio`` is taken as valid."""
    values = np.maximum(heatmap.values, 0.0)
    top = values.max()
    if top <= 0.0:
        raise EmptyHeatmap("all heatmap values are zero")
    flat = int(np.argmax(values))
    peak = (flat // heatmap.resolution, flat % heatmap.resolution)
    return peak, np.argwhere(values >= peak_ratio * top)


def accuracy_measure(heatmap, peak, candidates):
    """Mean relative spread of candidate positions around the peak, one
    candidate at a time: directions when the peak is at infinity, else
    finite points only, and inf when no candidate is finite."""
    cand = np.asarray(candidates, dtype=float)
    if cand.ndim != 2 or cand.shape[0] == 0:
        raise ValueError("candidates must be a nonempty (n, 2) array")
    vph = vp_of_pixel(cand[:, 0], cand[:, 1], heatmap.scale, heatmap.resolution)
    peak_vph = vp_of_pixel(float(peak[0]), float(peak[1]), heatmap.scale, heatmap.resolution)
    if is_ideal(peak_vph):
        peak_dir = directions(peak_vph)[0]
        return float(np.mean(np.linalg.norm(directions(vph) - peak_dir, axis=1)))
    peak_xy = dehomogenize(peak_vph)
    peak_norm = float(np.linalg.norm(peak_xy))
    if peak_norm < CENTER_EPS:
        raise DegeneratePeak("peak decodes to the bounding-box centre")
    finite = ~is_ideal(vph)
    if not finite.any():
        return math.inf
    xy = dehomogenize(vph[finite])
    return float(np.mean(np.linalg.norm(xy - peak_xy, axis=1)) / peak_norm)


def box_center(box):
    return np.array([(box.x_min + box.x_max) / 2.0, (box.y_min + box.y_max) / 2.0])


def box_half_size(box):
    return np.array([(box.x_max - box.x_min) / 2.0, (box.y_max - box.y_min) / 2.0])


def bbox_normalize(points, box):
    return (np.asarray(points, dtype=float) - box_center(box)) / box_half_size(box)


def bbox_denormalize(points, box):
    return np.asarray(points, dtype=float) * box_half_size(box) + box_center(box)


def gaussian_patch(sigma):
    reach = int(np.ceil(3.0 * sigma))
    d2 = np.arange(-reach, reach + 1) ** 2
    patch = np.exp(-(d2[:, None] + d2[None, :]) / (2.0 * sigma * sigma))
    patch[patch < 1e-4] = 0.0
    return patch


def rasterize(i0, j0, resolution, sigma):
    """The grid of ``encode_vp`` with its peak at cell ``(i0, j0)``."""
    values = np.zeros((resolution, resolution))
    patch = gaussian_patch(sigma)
    reach = len(patch) // 2
    lo_i, hi_i = max(0, i0 - reach), min(resolution, i0 + reach + 1)
    lo_j, hi_j = max(0, j0 - reach), min(resolution, j0 + reach + 1)
    values[lo_i:hi_i, lo_j:hi_j] = patch[lo_i - i0 + reach : hi_i - i0 + reach,
                                         lo_j - j0 + reach : hi_j - j0 + reach]
    return values


def rasterized(rows, cols, scales, resolution, sigma):
    """``HeatmapCodec``'s heatmaps of the cells ``(rows[k], cols[k])``, one per scale."""
    return [Heatmap(rasterize(i0, j0, resolution, sigma), s)
            for i0, j0, s in zip(rows.tolist(), cols.tolist(), scales)]


def encode(vph, scales, resolution, sigma):
    """The heatmaps of ``HeatmapCodec.encode`` of one homogeneous point,
    scale by scale, its cells from :func:`nearest_cells`."""
    cells = nearest_cells(np.asarray(vph, dtype=float), scales, resolution)
    return rasterized(cells[:, 0], cells[:, 1], scales, resolution, sigma)
