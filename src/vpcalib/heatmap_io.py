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

This module is the only one that opens a heatmap file. Beside the
whole-file readers it reads a run's files in chunks for
:func:`~vpcalib.pipeline.detections_to_pairs` (:func:`_read_stacks`): a DVP
file of the run's grid by one ``readv`` straight into the chunk's stack,
any other file through :func:`read_heatmap_arrays`.
"""

from __future__ import annotations

import json
import math
import os
import struct
from itertools import chain
from pathlib import Path

import numpy as np

from ._validation import as_real_array, check_integer
from .errors import InputFormatError, reading
from .heatmap import Heatmap, _heatmaps, check_scales

__all__ = ["write_heatmap_file", "read_heatmap_file", "read_heatmap_arrays"]

MAGIC = b"DVP1"
# how a DVP file stores its grid values
_GRID = np.dtype("<f4")
# the most bytes of grids a chunk of a run holds: 8 MB holds 64 records of
# two channels of 4 x 64 x 64 float32 grids
_STACK_BYTES = 8 << 20


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
    views of one float64 copy of the grids that :func:`read_heatmap_arrays`
    checked."""
    scales, values = read_heatmap_arrays(path)
    return _heatmaps(values.astype(float), scales)


def read_heatmap_arrays(path) -> tuple[tuple[float, ...], np.ndarray]:
    """Read a heatmap observation as ``(scales, values)``.

    ``values`` has shape ``(channels, len(scales), R, R)`` and the precision
    of the file: float32 from DVP files, read by one ``readinto``, float64
    from JSON. Every defect of the file (unreadable, malformed, truncated,
    a resolution below 2, scales that do not ascend or are not positive,
    values that are not finite) raises :class:`InputFormatError`, in that
    order; one finiteness pass, with one message, serves both formats.
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
                values = np.empty((n_channels, len(scales), resolution, resolution), dtype=_GRID)
                if fh.readinto(values) != values.nbytes:
                    raise ValueError("heatmap file changed while it was read")
        if not np.isfinite(values).all():
            raise ValueError("heatmap values must be finite")
    return scales, values


def _read_stacks(refs, base_dir, most: int):
    """Yield ``(start, scales, stack)`` for each chunk of the heatmap files
    ``refs``, in order, and raise the error of the first bad file in record
    order.

    A run's heatmap files share the grid of its first file, which is read
    whole to learn it; ``scales`` are that grid's. A chunk is at most
    ``most`` files, fewer where their two channels pass ``_STACK_BYTES``,
    and ``stack`` holds the channel-major ``(2, N, S, R, R)`` grids of
    ``refs[start : start + N]`` as :func:`_read_stack` reads them. The
    chunks share one zeroed float32 buffer, so a stack is valid until the
    next one is drawn.
    """
    first = refs[0]
    scales, values = read_heatmap_arrays(Path(base_dir) / first)
    grid = (first, scales, values.shape[-1])
    record_bytes = 2 * _GRID.itemsize * math.prod(values.shape[1:])
    chunk = min(len(refs), most, max(1, _STACK_BYTES // record_bytes))
    buffer = np.zeros((2, chunk) + values.shape[1:], dtype=_GRID)
    for start in range(0, len(refs), chunk):
        yield start, scales, _read_stack(refs[start : start + chunk], grid, base_dir, buffer)


def _read_stack(refs, grid, base_dir, buffer) -> np.ndarray:
    """Channel-major ``(2, N, S, R, R)`` grids of the heatmap files ``refs``.

    ``grid`` is ``(first, scales, resolution)`` of the run's first heatmap
    file, whose grid every file must share. A DVP file of that grid is read
    straight into ``buffer``, a float32 ``(2, chunk, S, R, R)`` array that
    a run reuses for each chunk, by one ``readv`` (:func:`_read_dvp_into`);
    any other file, a JSON one or a non-finite one included, is read by
    :func:`read_heatmap_arrays`, which reports what is wrong with it, and
    copied into the stack. A JSON file turns the stack into a float64 copy,
    which the rest of the chunk is copied into. Each file is checked as it
    is read, in record order, so the first bad one is the one reported.
    """
    first, scales, resolution = grid
    stack = buffer[:, : len(refs)]
    header = _header(resolution, scales, 2)
    for k, ref in enumerate(refs):
        path = Path(base_dir) / ref
        if stack.dtype == _GRID and _read_dvp_into(os.fspath(path), header, stack[:, k]):
            continue
        file_scales, values = read_heatmap_arrays(path)
        if len(values) != 2:
            raise InputFormatError(f"heatmap file {ref} has {len(values)} channels, expected 2")
        if (file_scales, values.shape[-1]) != (scales, resolution):
            raise InputFormatError(f"heatmap file {ref} has scales {file_scales} at resolution "
                                   f"{values.shape[-1]}, the run's first heatmap file {first} "
                                   f"has scales {scales} at resolution {resolution}")
        if not np.can_cast(values.dtype, stack.dtype):
            stack = stack.astype(values.dtype)
        stack[:, k] = values
    return stack


def _read_dvp_into(path: str, header: bytes, out) -> bool:
    """Whether the file at ``path`` is a DVP file of exactly ``header`` (see
    :func:`_header`) and the finite grids of ``out``, read into ``out`` by
    one ``os.readv``; ``out`` is a little-endian float32 array whose
    channels are each contiguous. False for any other file, a JSON one, a
    non-finite one or one that cannot be opened or read included, which
    :func:`read_heatmap_arrays` reports on; ``out`` may then hold part of it.
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
    return size == len(header) + out.nbytes and head == header and np.isfinite(out).all()


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
    values = as_real_array(data, "data") if data else np.zeros(shape)
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
