"""File formats for per-vehicle heatmap observations.

Binary layout (little-endian), one observation per file:

    magic   4 bytes  b"DVP1"
    u32     grid resolution R
    u32     scale count S
    f64*S   the scales, ascending
    u32     channel count (2: first and second vanishing point)
    f32     channel-major, scale-major, row-major R*R grids

A JSON alternative with the same structure is accepted and produced for
paths ending in ``.json``.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .errors import reading
from .heatmap import Heatmap, check_scales

__all__ = ["write_heatmap_file", "read_heatmap_file", "read_heatmap_arrays"]

MAGIC = b"DVP1"


def _validate_channels(channel_maps) -> tuple[int, tuple[float, ...]]:
    if not channel_maps or not channel_maps[0]:
        raise ValueError("channel_maps must contain at least one channel and scale")
    scales = tuple(h.scale for h in channel_maps[0])
    resolution = channel_maps[0][0].resolution
    for channel in channel_maps:
        if tuple(h.scale for h in channel) != scales:
            raise ValueError("all channels must carry the same scale set")
        if any(h.resolution != resolution for h in channel):
            raise ValueError("all heatmaps must share one resolution")
    check_scales(scales)
    return resolution, scales


def write_heatmap_file(path, channel_maps) -> None:
    """Write channel-major heatmaps (``channel_maps[channel][scale]``)."""
    path = Path(path)
    resolution, scales = _validate_channels(channel_maps)
    if path.suffix == ".json":
        payload = {
            "magic": MAGIC.decode(),
            "resolution": resolution,
            "scales": list(scales),
            "channels": len(channel_maps),
            "data": [
                [np.asarray(h.values, dtype=np.float32).tolist() for h in channel]
                for channel in channel_maps
            ],
        }
        path.write_text(json.dumps(payload))
        return
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", resolution, len(scales)))
        fh.write(struct.pack(f"<{len(scales)}d", *scales))
        fh.write(struct.pack("<I", len(channel_maps)))
        for channel in channel_maps:
            for h in channel:
                fh.write(np.ascontiguousarray(h.values, dtype="<f4").tobytes())


def read_heatmap_file(path) -> list[list[Heatmap]]:
    """Read a heatmap observation; returns ``[channel][scale]`` heatmaps."""
    scales, values = read_heatmap_arrays(path)
    return [[Heatmap(grid, scale) for grid, scale in zip(channel, scales)] for channel in values]


def read_heatmap_arrays(path) -> tuple[tuple[float, ...], np.ndarray]:
    """Read a heatmap observation as ``(scales, values)``.

    ``values`` has shape ``(channels, len(scales), R, R)`` and the precision
    of the file: float32 from DVP files, float64 from JSON. Every defect of
    the file (unreadable, malformed, truncated, scales that are not
    positive, values that are not finite) raises :class:`InputFormatError`.
    """
    path = Path(path)
    with reading(f"heatmap file {path}"):
        blob = path.read_bytes()
        scales, values = (_parse_json if path.suffix == ".json" else _parse_binary)(blob)
        if not all(np.isfinite(s) and s > 0 for s in scales):
            raise ValueError(f"heatmap scales must be positive, got {scales}")
        if not np.isfinite(values).all():
            raise ValueError("heatmap values must be finite")
    return scales, values


def _parse_json(blob: bytes) -> tuple[tuple[float, ...], np.ndarray]:
    payload = json.loads(blob)
    magic = payload.get("magic") if isinstance(payload, dict) else None
    if magic != MAGIC.decode():
        raise ValueError(f"bad magic {magic!r}")
    resolution = int(payload["resolution"])
    scales = tuple(float(s) for s in payload["scales"])
    data = payload["data"]
    shape = (len(data), len(scales), resolution, resolution)
    values = np.array(data, dtype=float) if data else np.zeros(shape)
    if values.shape != shape:
        raise ValueError(f"heatmap data shape {values.shape} != {shape}")
    if int(payload.get("channels", len(data))) != len(data):
        raise ValueError("channel count mismatch")
    return scales, values


def _parse_binary(blob: bytes) -> tuple[tuple[float, ...], np.ndarray]:
    if blob[:4] != MAGIC:
        raise ValueError(f"bad magic {blob[:4]!r}")
    try:
        offset = 4
        resolution, n_scales = struct.unpack_from("<II", blob, offset)
        offset += 8
        scales = struct.unpack_from(f"<{n_scales}d", blob, offset)
        offset += 8 * n_scales
        (n_channels,) = struct.unpack_from("<I", blob, offset)
        offset += 4
    except struct.error as exc:
        raise ValueError(f"truncated heatmap file: {exc}") from exc
    shape = (n_channels, n_scales, resolution, resolution)
    count = n_channels * n_scales * resolution * resolution
    expected = offset + 4 * count
    if len(blob) != expected:
        raise ValueError(f"expected {expected} bytes, found {len(blob)}")
    grids = np.frombuffer(blob, dtype="<f4", count=count, offset=offset)
    return scales, grids.reshape(shape)
