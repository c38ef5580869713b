"""File formats for per-vehicle heatmap observations.

Binary layout (little-endian), one observation per file:

    magic   4 bytes  b"DVP1"
    u32     grid resolution R, at least 2
    u32     scale count S
    f64*S   the scales, strictly ascending and positive
    u32     channel count (2: first and second vanishing point)
    f32     channel-major, scale-major, row-major R*R grids

A JSON alternative with the same structure is accepted and produced for
paths whose name has the suffix ``.json`` (:func:`_is_json`). Writer and
readers hold a file's grid to the same rule: ``check_integer`` of the
resolution and ``check_scales``.
"""

from __future__ import annotations

import json
import os
import struct
from itertools import chain
from pathlib import Path

import numpy as np

from ._validation import as_float_array, check_integer
from .errors import reading
from .heatmap import Heatmap, _heatmaps, check_scales

__all__ = ["write_heatmap_file", "read_heatmap_file", "read_heatmap_arrays"]

MAGIC = b"DVP1"
# how a DVP file stores its grid values
_GRID = np.dtype("<f4")


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
    check_integer(resolution, "resolution", 2)
    check_scales(scales)
    return resolution, scales


def _header(resolution: int, scales, n_channels: int) -> bytes:
    """The bytes of a DVP file before its grids."""
    return struct.pack(f"<4sII{len(scales)}dI", MAGIC, resolution, len(scales), *scales,
                       n_channels)


def write_heatmap_file(path, channel_maps) -> None:
    """Write channel-major heatmaps (``channel_maps[channel][scale]``).

    The grids are converted into one float32 array, which a DVP file takes
    from its buffer after the header's. A value that float32 cannot hold
    (its magnitude rounds above float32's maximum) raises ``ValueError``
    before the file is opened; one that rounds to a subnormal or to zero is
    written as such."""
    if not isinstance(path, Path):
        path = Path(path)
    resolution, scales = _validate_channels(channel_maps)
    grids = np.empty((len(channel_maps), len(scales), resolution, resolution), dtype=_GRID)
    # one cast of every grid, as an assignment of each would cast it; it
    # flags a value that would be stored as inf
    try:
        with np.errstate(over="raise"):
            np.concatenate([h.values for h in chain.from_iterable(channel_maps)],
                           out=grids.reshape(-1, resolution), casting="unsafe")
    except FloatingPointError:
        raise ValueError(f"heatmap values must lie within float32's range, "
                         f"+-{np.finfo(_GRID).max}") from None
    if _is_json(path.name):
        payload = {
            "magic": MAGIC.decode(),
            "resolution": resolution,
            "scales": list(scales),
            "channels": len(channel_maps),
            "data": grids.tolist(),
        }
        path.write_text(json.dumps(payload))
        return
    header = _header(resolution, scales, len(channel_maps))
    # An existing file is overwritten in place and then cut to length, never
    # emptied first: ext4 flushes a file that was truncated to zero and
    # rewritten to disk when it is closed (auto_da_alloc), so rewriting a
    # directory of DVP files would wait on the disk once per file.
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb", buffering=0) as fh:
        try:
            for buffer in (header, grids):
                view = memoryview(buffer).cast("B")
                while view:
                    view = view[fh.write(view) :]
            fh.truncate(len(header) + grids.nbytes)
        except BaseException:
            fh.truncate(0)  # a part-written file must not read as a whole one
            raise


def read_heatmap_file(path) -> list[list[Heatmap]]:
    """Read a heatmap observation; returns ``[channel][scale]`` heatmaps,
    views of one float64 copy of the file's grids."""
    scales, values = read_heatmap_arrays(path)
    return _heatmaps(values.astype(float), scales)


def read_heatmap_arrays(path, out=None) -> tuple[tuple[float, ...], np.ndarray]:
    """Read a heatmap observation as ``(scales, values)``.

    ``values`` has shape ``(channels, len(scales), R, R)`` and the precision
    of the file: float32 from DVP files, float64 from JSON. Every defect of
    the file (unreadable, malformed, truncated, a resolution below 2,
    scales that do not ascend or are not positive, values that are not
    finite) raises :class:`InputFormatError`, in that order.

    ``out`` is an optional little-endian float32 array whose channels are
    each contiguous. A DVP file whose grids have its shape is read straight
    into it and ``values`` is ``out``, checked as any other read; a read
    that raises may leave part of the file in ``out``. Any other file is
    read as without ``out``.
    """
    if not isinstance(path, Path):
        path = Path(path)
    with reading("heatmap file", path):
        if _is_json(path.name):
            scales, values = _parse_json(path.read_bytes())
        else:
            with open(path, "rb", buffering=0) as fh:
                resolution, scales, n_channels = _read_header(fh)
                check_integer(resolution, "resolution", 2)
                check_scales(scales)
                shape = (n_channels, len(scales), resolution, resolution)
                into = out is not None and out.shape == shape and out.dtype == _GRID
                values = out if into else np.empty(shape, dtype=_GRID)
                for grids in values:
                    if fh.readinto(grids) != grids.nbytes:
                        raise ValueError("heatmap file changed while it was read")
        if not np.isfinite(values).all():
            raise ValueError("heatmap values must be finite")
    return scales, values


def _read_dvp_into(path: str, header: bytes, out) -> bool:
    """Whether the file at ``path`` is a DVP file of exactly ``header`` (see
    :func:`_header`) and the grids of ``out``, read into ``out`` by one
    ``os.readv``; ``out`` is a little-endian float32 array whose channels
    are each contiguous. Its values are not checked for finiteness. False
    for any other file, a JSON one or one that cannot be opened or read
    included, which :func:`read_heatmap_arrays` reports on; ``out`` may
    then hold part of it.
    """
    if _is_json(os.path.basename(path)):
        return False
    head = bytearray(len(header))
    try:
        fd = os.open(path, os.O_RDONLY)
        try:
            # a spare byte, so a file longer than header and grids reads longer
            size = os.readv(fd, (head, *out, bytearray(1)))
        finally:
            os.close(fd)
    except (OSError, ValueError):  # a NUL in the name is a ValueError
        return False
    return size == len(header) + out.nbytes and head == header


def _is_json(name: str) -> bool:
    """Whether the file name ``name`` has the suffix ``.json``, as
    ``pathlib`` gives suffixes: a name ``.json`` has none."""
    return len(name) > 5 and name.endswith(".json")


def _parse_json(blob: bytes) -> tuple[tuple[float, ...], np.ndarray]:
    payload = json.loads(blob)
    magic = payload.get("magic") if isinstance(payload, dict) else None
    if magic != MAGIC.decode():
        raise ValueError(f"bad magic {magic!r}")
    resolution = check_integer(payload["resolution"], "resolution", 2)
    scales = check_scales(payload["scales"])
    data = payload["data"]
    shape = (len(data), len(scales), resolution, resolution)
    values = as_float_array(data, "data") if data else np.zeros(shape)
    if values.shape != shape:
        raise ValueError(f"heatmap data shape {values.shape} != {shape}")
    if check_integer(payload.get("channels", len(data)), "channels", 0) != len(data):
        raise ValueError("channel count mismatch")
    return scales, values


def _read_header(fh) -> tuple[int, tuple[float, ...], int]:
    """Resolution, scales and channel count of the open DVP file ``fh``,
    which is left at its first grid once the file's size is checked to be
    exactly that of the header and the grids.

    A header cut short reads the whole file, so its ``struct.error`` names
    the file's size.
    """
    size = os.fstat(fh.fileno()).st_size
    head = fh.read(12)
    if head[:4] != MAGIC:
        raise ValueError(f"bad magic {head[:4]!r}")
    try:
        resolution, n_scales = struct.unpack_from("<II", head, 4)
        head += fh.read(min(8 * n_scales + 4, size))
        scales = struct.unpack_from(f"<{n_scales}d", head, 12)
        (n_channels,) = struct.unpack_from("<I", head, 12 + 8 * n_scales)
    except struct.error as exc:
        raise ValueError(f"truncated heatmap file: {exc}") from exc
    expected = len(head) + 4 * n_channels * n_scales * resolution * resolution
    if size != expected:
        raise ValueError(f"expected {expected} bytes, found {size}")
    return resolution, scales, n_channels
