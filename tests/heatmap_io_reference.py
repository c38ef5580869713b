"""The whole-file heatmap reader, the file-by-file chunk stack and the
bytearray writer, kept as references.

``read_arrays`` reads a heatmap file with one ``read_bytes`` and checks it
whole; ``read_stack`` copies each file's grids into the chunk's stack after
checking them, one file at a time. :mod:`vpcalib` now reads each DVP
file straight into the stack and checks its values there. The tests
require it to give the same stack, and the same first error with the same
message. ``write_file`` builds a DVP file in a bytearray, copying
each heatmap's grid into it one at a time, and a JSON file from each grid's
float32 copy; :mod:`vpcalib` now converts every grid in one pass and writes
the header and the grids from their own buffers. The tests require the
same bytes.
"""

import json
import struct
from itertools import chain
from pathlib import Path

import numpy as np

from vpcalib.errors import InputFormatError, reading
from vpcalib._validation import check_integer
from vpcalib.heatmap import check_scales
from vpcalib.heatmap_io import MAGIC, _parse_json, _validate_channels


def _parse_binary(blob: bytes):
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


def read_arrays(path):
    path = Path(path)
    with reading(f"heatmap file {path}"):
        blob = path.read_bytes()
        scales, values = (_parse_json if path.suffix == ".json" else _parse_binary)(blob)
        check_integer(values.shape[-1], "resolution", 2)
        check_scales(scales)
        if not np.isfinite(values).all():
            raise ValueError("heatmap values must be finite")
    return scales, values


def read_stack(refs, grid, base_dir):
    """``grid`` is ``(first, scales, resolution)`` of the run's first file."""
    first, run_scales, run_resolution = grid
    stack = None
    for k, ref in enumerate(refs):
        scales, values = read_arrays(Path(base_dir) / ref)
        if len(values) != 2:
            raise InputFormatError(f"heatmap file {ref} has {len(values)} channels, expected 2")
        if scales != run_scales or values.shape[-1] != run_resolution:
            raise InputFormatError(f"heatmap file {ref} has scales {scales} at resolution "
                                   f"{values.shape[-1]}, the run's first heatmap file {first} "
                                   f"has scales {run_scales} at resolution {run_resolution}")
        if stack is None:
            # zeros: casting the unwritten rows of an np.empty buffer can meet a
            # signalling NaN in its garbage and warn
            stack = np.zeros((2, len(refs)) + values.shape[1:], dtype=values.dtype)
        elif not np.can_cast(values.dtype, stack.dtype):
            stack = stack.astype(values.dtype)
        stack[:, k] = values
    return stack


def write_file(path, channel_maps):
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
    header = struct.pack(f"<4sII{len(scales)}dI", MAGIC, resolution, len(scales), *scales,
                         len(channel_maps))
    blob = bytearray(len(header) + 4 * len(channel_maps) * len(scales) * resolution * resolution)
    blob[: len(header)] = header
    grids = np.frombuffer(blob, dtype="<f4", offset=len(header)).reshape(-1, resolution, resolution)
    for grid, h in zip(grids, chain.from_iterable(channel_maps)):
        grid[...] = h.values
    path.write_bytes(bytes(blob))
