import io
import json
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest

from heatmap_io_reference import read_stack
from vpcalib.errors import InputFormatError
from vpcalib import heatmap_io
from vpcalib.heatmap import DEFAULT_RESOLUTION, DEFAULT_SCALES, BBox, Heatmap, HeatmapCodec
from vpcalib.heatmap_io import (
    MAGIC,
    _read_dvp_into,
    _read_stack,
    read_heatmap_arrays,
    read_heatmap_file,
    write_heatmap_file,
)
from vpcalib.pipeline import _CHUNK, DetectionRecord, PipelineConfig, detections_to_pairs


@pytest.fixture
def observation():
    codec = HeatmapCodec()
    return codec.encode_pair([4.0, -2.0], [0.5, 7.0])


def test_binary_round_trip(tmp_path, observation):
    path = tmp_path / "obs.dvp"
    write_heatmap_file(path, observation)
    loaded = read_heatmap_file(path)
    assert len(loaded) == 2
    for chan_in, chan_out in zip(observation, loaded):
        for h_in, h_out in zip(chan_in, chan_out):
            assert h_out.scale == h_in.scale
            assert h_out.resolution == h_in.resolution
            np.testing.assert_allclose(h_out.values, h_in.values, atol=1e-6)


def test_rewrite_gives_the_bytes_of_a_fresh_write(tmp_path, observation):
    fresh, rewritten = tmp_path / "fresh.dvp", tmp_path / "rewritten.dvp"
    write_heatmap_file(fresh, observation)
    # a longer file of other content: the rewrite must replace and cut it
    rewritten.write_bytes(b"\xff" * (2 * fresh.stat().st_size))
    write_heatmap_file(rewritten, observation)
    assert rewritten.read_bytes() == fresh.read_bytes()


def test_failed_rewrite_leaves_no_file_that_reads_whole(tmp_path, observation, monkeypatch):
    path = tmp_path / "obs.dvp"
    write_heatmap_file(path, observation)

    class Full(io.FileIO):
        def write(self, data):
            raise OSError("no space left on device")

    monkeypatch.setattr(heatmap_io, "open", lambda fd, mode, buffering: Full(fd, mode), raising=False)
    with pytest.raises(OSError, match="no space"):
        write_heatmap_file(path, observation)
    monkeypatch.undo()
    assert path.stat().st_size == 0
    with pytest.raises(InputFormatError):
        read_heatmap_file(path)


def test_a_new_file_gets_the_permissions_of_any_new_file(tmp_path, observation):
    # 0o666 less the umask, as open(path, "wb") creates a file
    write_heatmap_file(tmp_path / "obs.dvp", observation)
    (tmp_path / "plain").write_bytes(b"")
    assert (tmp_path / "obs.dvp").stat().st_mode == (tmp_path / "plain").stat().st_mode


def test_short_writes_give_the_bytes_of_a_fresh_write(tmp_path, observation, monkeypatch):
    fresh, short = tmp_path / "fresh.dvp", tmp_path / "short.dvp"
    write_heatmap_file(fresh, observation)
    short.write_bytes(b"\xff" * (2 * fresh.stat().st_size))

    class Short(io.FileIO):
        # at most 1000 bytes a call, as a write to a pipe or a full disk may take
        def write(self, data):
            return super().write(memoryview(data)[:1000])

    monkeypatch.setattr(heatmap_io, "open", lambda fd, mode, buffering: Short(fd, mode),
                        raising=False)
    write_heatmap_file(short, observation)
    monkeypatch.undo()
    assert short.read_bytes() == fresh.read_bytes()


def test_a_failure_after_the_header_leaves_no_file_that_reads_whole(tmp_path, observation,
                                                                    monkeypatch):
    path = tmp_path / "obs.dvp"
    write_heatmap_file(path, observation)

    class FullAfterHeader(io.FileIO):
        def write(self, data):
            if self.tell() > 0:
                raise OSError("no space left on device")
            return super().write(data)

    monkeypatch.setattr(heatmap_io, "open", lambda fd, mode, buffering: FullAfterHeader(fd, mode),
                        raising=False)
    with pytest.raises(OSError, match="no space"):
        write_heatmap_file(path, observation)
    monkeypatch.undo()
    assert path.stat().st_size == 0


def test_json_round_trip(tmp_path, observation):
    path = tmp_path / "obs.json"
    write_heatmap_file(path, observation)
    loaded = read_heatmap_file(path)
    assert [h.scale for h in loaded[0]] == [h.scale for h in observation[0]]
    np.testing.assert_allclose(loaded[1][2].values, observation[1][2].values, atol=1e-6)


def test_binary_header_layout(tmp_path, observation):
    path = tmp_path / "obs.dvp"
    write_heatmap_file(path, observation)
    blob = path.read_bytes()
    assert blob[:4] == MAGIC
    resolution = int.from_bytes(blob[4:8], "little")
    n_scales = int.from_bytes(blob[8:12], "little")
    assert resolution == 64 and n_scales == 4
    header = 4 + 8 + 8 * n_scales + 4
    assert len(blob) == header + 2 * n_scales * resolution * resolution * 4


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "obs.dvp"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(InputFormatError):
        read_heatmap_file(path)


def test_truncated_file_rejected(tmp_path, observation):
    path = tmp_path / "obs.dvp"
    write_heatmap_file(path, observation)
    path.write_bytes(path.read_bytes()[:-100])
    with pytest.raises(InputFormatError):
        read_heatmap_file(path)


def test_json_shape_mismatch_rejected(tmp_path):
    path = tmp_path / "obs.json"
    path.write_text(
        '{"magic": "DVP1", "resolution": 4, "scales": [1.0], "channels": 1,'
        ' "data": [[[[0, 0], [0, 0]]]]}'
    )
    with pytest.raises(InputFormatError):
        read_heatmap_file(path)


@pytest.mark.parametrize("field, value", [
    ("resolution", "2"), ("resolution", 2.9), ("resolution", True), ("scales", ["0.5", 1.0]),
    ("scales", [0.5, True]), ("channels", 1.5), ("channels", "1"),
    ("data", [[[[0, 0], [0, 1]], [["1", 0], [0, 0]]]]),
    ("data", [[[[0, 0], [0, True]], [[1, 0], [0, 0]]]]),
])
def test_json_fields_of_the_wrong_type_rejected(tmp_path, field, value):
    # int() and float() would take each of these
    payload = {"magic": "DVP1", "resolution": 2, "scales": [0.5, 1.0], "channels": 1,
               "data": [[[[0, 0], [0, 1]], [[1, 0], [0, 0]]]]}
    path = tmp_path / "obs.json"
    path.write_text(json.dumps(payload))
    assert read_heatmap_arrays(path)[1].shape == (1, 2, 2, 2)
    path.write_text(json.dumps({**payload, field: value}))
    with pytest.raises(InputFormatError, match=field):
        read_heatmap_arrays(path)


def test_mismatched_channel_scales_rejected(tmp_path, observation):
    bad = [observation[0], observation[1][::-1]]
    with pytest.raises(ValueError):
        write_heatmap_file(tmp_path / "obs.dvp", bad)


def test_arrays_keep_the_stored_precision(tmp_path, observation):
    for name, dtype in (("obs.dvp", np.float32), ("obs.json", np.float64)):
        write_heatmap_file(tmp_path / name, observation)
        scales, values = read_heatmap_arrays(tmp_path / name)
        assert scales == tuple(h.scale for h in observation[0])
        assert values.dtype == dtype and values.shape == (2, 4, 64, 64)
        assert np.array_equal(values[1, 2], observation[1][2].values.astype(np.float32))


def _with_nan(path):
    blob = bytearray(path.read_bytes())
    blob[-4:] = np.float32(np.nan).tobytes()
    path.write_bytes(bytes(blob))


def test_non_finite_values_rejected(tmp_path, observation):
    path = tmp_path / "obs.dvp"
    write_heatmap_file(path, observation)
    _with_nan(path)
    with pytest.raises(InputFormatError, match="finite"):
        read_heatmap_file(path)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(InputFormatError, match="cannot read"):
        read_heatmap_arrays(tmp_path / "absent.dvp")


def test_non_positive_scale_rejected(tmp_path, observation):
    path = tmp_path / "obs.dvp"
    write_heatmap_file(path, observation)
    blob = bytearray(path.read_bytes())
    blob[12:20] = np.float64(-1.0).tobytes()
    path.write_bytes(bytes(blob))
    with pytest.raises(InputFormatError, match="positive"):
        read_heatmap_arrays(path)


@pytest.mark.parametrize("scales", [DEFAULT_SCALES[::-1], (0.03, 0.1, 0.1, 1.0),
                                    (0.03, 0.1, 1.0, 0.3)])
@pytest.mark.parametrize("name", ["obs.dvp", "obs.json"])
def test_scales_that_do_not_ascend_are_rejected_as_the_writer_rejects_them(
        tmp_path, observation, scales, name):
    # the reversed file would decode box point (4, -2) far from it, and quietly
    path = tmp_path / name
    write_heatmap_file(path, observation)
    if name.endswith(".json"):
        payload = json.loads(path.read_text())
        path.write_text(json.dumps({**payload, "scales": list(scales)}))
    else:
        _edit(path, 12, struct.pack("<4d", *scales))
    for read in (read_heatmap_arrays, read_heatmap_file):
        with pytest.raises(InputFormatError, match="scales must be a nonempty, strictly incr"):
            read(path)
    relabelled = [[Heatmap(h.values, s) for h, s in zip(channel, scales)]
                  for channel in observation]
    with pytest.raises(ValueError):
        write_heatmap_file(tmp_path / "out.dvp", relabelled)


@pytest.mark.parametrize("resolution", [0, 1])
def test_a_grid_below_two_cells_is_neither_read_nor_written(tmp_path, resolution):
    with pytest.raises(ValueError, match="resolution must be an integer >= 2"):
        Heatmap(np.zeros((resolution, resolution)), 1.0)
    # a heatmap whose values were replaced after it was made
    h = Heatmap(np.zeros((2, 2)), 1.0)
    h.values = np.zeros((resolution, resolution))
    maps = [[h]] * 2
    with pytest.raises(ValueError, match="resolution must be an integer >= 2"):
        write_heatmap_file(tmp_path / "obs.dvp", maps)
    header = MAGIC + struct.pack("<IIdI", resolution, 1, 1.0, 2)
    (tmp_path / "obs.dvp").write_bytes(header + bytes(8 * resolution * resolution))
    (tmp_path / "obs.json").write_text(json.dumps({
        "magic": "DVP1", "resolution": resolution, "scales": [1.0], "channels": 2,
        "data": np.zeros((2, 1, resolution, resolution)).tolist()}))
    for name in ("obs.dvp", "obs.json"):
        with pytest.raises(InputFormatError, match="resolution must be an integer >= 2"):
            read_heatmap_arrays(tmp_path / name)


# -- reading a chunk of files straight into its stack --------------------------

CONFIG = PipelineConfig()
# the grid of a run whose first file is the first of _chunk's
GRID = ("v0.dvp", DEFAULT_SCALES, DEFAULT_RESOLUTION)
BOX = BBox(100.0, 200.0, 300.0, 260.0)


def _chunk(tmp_path, n, suffixes=()):
    """``n`` good heatmap files, DVP unless ``suffixes`` says otherwise."""
    codec = HeatmapCodec()
    rng = np.random.default_rng(11)
    refs = []
    for k in range(n):
        ref = f"v{k}{suffixes[k] if k < len(suffixes) else '.dvp'}"
        write_heatmap_file(tmp_path / ref, codec.encode_pair(*rng.uniform(-40.0, 40.0, (2, 2))))
        refs.append(ref)
    return refs


def _buffer(n=_CHUNK, fill=0.0):
    return np.full((2, n, len(DEFAULT_SCALES), DEFAULT_RESOLUTION, DEFAULT_RESOLUTION), fill,
                   dtype="<f4")


def _records(refs):
    return [DetectionRecord(frame_index=0, box=BOX, confidence=1.0, heatmap_ref=ref)
            for ref in refs]


def _edit(path, at, data):
    blob = bytearray(path.read_bytes())
    blob[at : at + len(data)] = data
    path.write_bytes(bytes(blob))


def _missing(path):
    path.unlink()


def _directory(path):
    path.unlink()
    path.mkdir()


def _empty(path):
    path.write_bytes(b"")


def _bad_magic(path):
    _edit(path, 0, b"NOPE")


def _truncated(path):
    path.write_bytes(path.read_bytes()[:-100])


def _cut_in_the_scales(path):
    path.write_bytes(path.read_bytes()[:30])


def _cut_in_the_magic(path):
    path.write_bytes(path.read_bytes()[:2])


def _trailing_bytes(path):
    path.write_bytes(path.read_bytes() + b"\x00\x00\x00")


def _non_positive_scale(path):
    _edit(path, 12, np.float64(-1.0).tobytes())


def _reversed_scales(path):
    _edit(path, 12, struct.pack("<4d", *DEFAULT_SCALES[::-1]))


def _repeated_scale(path):
    _edit(path, 12 + 8, struct.pack("<d", DEFAULT_SCALES[0]))


def _scale_off_by_its_last_bit(path):
    # the second scale's lowest mantissa bit, its first byte little-endian
    scale = struct.pack("<d", DEFAULT_SCALES[1])
    _edit(path, 12 + 8, bytes([scale[0] ^ 1]))


def _nan(path):
    _edit(path, path.stat().st_size - 4, np.float32(np.nan).tobytes())


def _negative_infinity(path):
    _edit(path, 60_000, np.float32(-np.inf).tobytes())


def _three_channels(path):
    codec = HeatmapCodec()
    write_heatmap_file(path, codec.encode_pair([1.0, 2.0], [3.0, -4.0]) + [codec.encode([5.0, 1.0])])


def _other_scales(path):
    codec = HeatmapCodec(scales=(0.05, 0.1, 0.3, 1.0))
    write_heatmap_file(path, codec.encode_pair([1.0, 2.0], [3.0, -4.0]))


def _fewer_scales(path):
    codec = HeatmapCodec(scales=(0.05, 0.5))
    write_heatmap_file(path, codec.encode_pair([1.0, 2.0], [3.0, -4.0]))


def _other_resolution(path):
    codec = HeatmapCodec(resolution=32)
    write_heatmap_file(path, codec.encode_pair([1.0, 2.0], [3.0, -4.0]))


# (record index, defect) per case; the first listed is the file to report
BAD_CHUNKS = {
    "missing": [(3, _missing)],
    "a directory": [(3, _directory)],
    "empty": [(3, _empty)],
    "bad magic": [(3, _bad_magic)],
    "truncated": [(3, _truncated)],
    "cut in the scales": [(3, _cut_in_the_scales)],
    "cut in the magic": [(3, _cut_in_the_magic)],
    "trailing bytes": [(3, _trailing_bytes)],
    "non-positive scale": [(3, _non_positive_scale)],
    "reversed scales": [(3, _reversed_scales)],
    "repeated scale": [(3, _repeated_scale)],
    "NaN": [(3, _nan)],
    "negative infinity": [(3, _negative_infinity)],
    "three channels": [(3, _three_channels)],
    "other scales": [(3, _other_scales)],
    "a scale off by its last bit": [(3, _scale_off_by_its_last_bit)],
    "fewer scales": [(3, _fewer_scales)],
    "other resolution": [(3, _other_resolution)],
    "NaN before a missing file": [(2, _nan), (5, _missing)],
    "NaN before bad magic": [(1, _nan), (4, _bad_magic)],
    "NaN before other scales": [(2, _nan), (4, _other_scales)],
    "NaN in a file of other scales": [(3, _other_scales), (3, _nan)],
    "NaN in a file of three channels": [(3, _three_channels), (3, _nan)],
    "two NaN files": [(2, _negative_infinity), (5, _nan)],
    "first file missing": [(0, _missing), (4, _nan)],
    "last file NaN": [(6, _nan)],
    "first file NaN": [(0, _nan)],
}


def _spoil(tmp_path, refs, defects):
    for k, defect in defects:
        defect(tmp_path / refs[k])
    return refs[defects[0][0]]


def _first_error(read, *args) -> str:
    with pytest.raises(InputFormatError) as err:
        read(*args)
    return str(err.value)


@pytest.mark.parametrize("case", BAD_CHUNKS)
def test_a_bad_file_in_a_chunk_gives_the_whole_file_readers_first_error(tmp_path, case):
    refs = _chunk(tmp_path, 7)
    bad = _spoil(tmp_path, refs, BAD_CHUNKS[case])
    message = _first_error(read_stack, refs, GRID, tmp_path)
    assert bad in message
    # with a zeroed buffer, and with one that holds an earlier chunk's grids
    assert _first_error(_read_stack, refs, GRID, tmp_path, _buffer()) == message
    assert _first_error(_read_stack, refs, GRID, tmp_path, _buffer(fill=0.5)) == message
    assert _first_error(detections_to_pairs, _records(refs), CONFIG, tmp_path) == message


def test_a_bad_file_in_a_later_chunk_is_reported(tmp_path):
    refs = _chunk(tmp_path, 7)
    _spoil(tmp_path, refs, BAD_CHUNKS["NaN before a missing file"])
    # the first chunk reads only good files, some of them many times
    good = [refs[k] for k in (0, 1, 3, 4, 6)]
    later = good * 13 + refs
    message = _first_error(read_stack, refs, GRID, tmp_path)
    assert refs[2] in message and "finite" in message
    assert _first_error(detections_to_pairs, _records(later), CONFIG, tmp_path) == message


def test_good_dvp_files_are_read_without_the_whole_file_reader(tmp_path, monkeypatch):
    refs = _chunk(tmp_path, 5, (".dvp", ".dvp", ".dvp", ".dvp", ".json"))
    expected = read_stack(refs, GRID, tmp_path)
    read = []
    readv = []
    os_readv = heatmap_io.os.readv

    def counted(path):
        read.append(path.name)
        return read_heatmap_arrays(path)

    def counted_readv(fd, buffers):
        readv.append(fd)
        return os_readv(fd, buffers)

    monkeypatch.setattr(heatmap_io, "read_heatmap_arrays", counted)
    monkeypatch.setattr(heatmap_io.os, "readv", counted_readv)
    stack = _read_stack(refs, GRID, tmp_path, _buffer())
    assert read == ["v4.json"]
    assert len(readv) == 4  # one per DVP file
    assert stack.dtype == expected.dtype and stack.tobytes() == expected.tobytes()


@pytest.mark.parametrize("name", ["obs.json", "..json", ".json", "json", "obs.json.",
                                  "obs.JSON", "obs.json.dvp", "a.b.json", "obs.dvp"])
def test_the_json_rule_is_pathlibs_suffix(name):
    assert heatmap_io._is_json(name) == (Path(name).suffix == ".json")


@pytest.mark.parametrize("missed", [0, 1])
def test_a_good_file_the_one_read_misses_leaves_the_next_file_checked(tmp_path, monkeypatch,
                                                                      missed):
    # as when a file is replaced while the one readv reads it
    refs = _chunk(tmp_path, 4)
    _nan(tmp_path / refs[2])
    message = _first_error(read_stack, refs, GRID, tmp_path)
    assert refs[2] in message and "finite" in message

    def missing_one(path, header, out):
        return not path.endswith(refs[missed]) and _read_dvp_into(path, header, out)

    monkeypatch.setattr(heatmap_io, "_read_dvp_into", missing_one)
    assert _first_error(_read_stack, refs, GRID, tmp_path, _buffer()) == message


def test_a_dvp_file_named_dot_json_is_read_as_dvp_and_the_next_file_is_checked(tmp_path):
    # pathlib gives ".json" no suffix, so the whole-file readers take it as DVP
    refs = _chunk(tmp_path, 4)
    (tmp_path / "sub").mkdir()
    (tmp_path / refs[1]).rename(tmp_path / "sub" / ".json")
    refs[1] = "sub/.json"
    expected = read_stack(refs, GRID, tmp_path)
    assert expected.dtype == np.float32
    assert _read_stack(refs, GRID, tmp_path, _buffer()).tobytes() == expected.tobytes()
    _nan(tmp_path / refs[2])
    message = _first_error(read_stack, refs, GRID, tmp_path)
    assert refs[2] in message and "finite" in message
    assert _first_error(_read_stack, refs, GRID, tmp_path, _buffer()) == message


@pytest.mark.parametrize("slashed", [0, 1])
def test_a_ref_with_a_trailing_slash_is_read_as_pathlib_reads_it(tmp_path, monkeypatch,
                                                                 slashed):
    # both reads take the path as pathlib resolves it, which drops the slash
    # of "v1.dvp/", so that file too is read by its one readv
    refs = _chunk(tmp_path, 4)
    plain = _read_stack(refs, GRID, tmp_path, _buffer())
    with_slash = list(refs)
    with_slash[slashed] += "/"
    readv = []
    os_readv = heatmap_io.os.readv

    def counted_readv(fd, buffers):
        readv.append(fd)
        return os_readv(fd, buffers)

    def whole_file(path):
        raise AssertionError(f"{path} was read whole")

    with monkeypatch.context() as patch:
        patch.setattr(heatmap_io.os, "readv", counted_readv)
        patch.setattr(heatmap_io, "read_heatmap_arrays", whole_file)
        stack = _read_stack(with_slash, GRID, tmp_path, _buffer(fill=0.5))
    assert len(readv) == 4  # one per file, the slashed one included
    assert stack.tobytes() == plain.tobytes()
    expected = detections_to_pairs(_records(refs), CONFIG, tmp_path)
    pairs = detections_to_pairs(_records(with_slash), CONFIG, tmp_path)
    for name in ("first", "second", "first_is_direction", "second_is_direction"):
        assert getattr(pairs, name).tobytes() == getattr(expected, name).tobytes()


def test_a_file_rewritten_finite_after_a_non_finite_read_is_taken_as_the_second_read_gives_it(
        tmp_path, monkeypatch):
    # the file is replaced between its readv and its whole-file read, as a
    # file that the readv misses for any other reason is taken
    refs = _chunk(tmp_path, 3)
    expected = read_stack(refs, GRID, tmp_path)
    path = tmp_path / refs[1]
    good = path.read_bytes()
    _nan(path)
    read = []

    def replaced(p):
        read.append(p.name)
        path.write_bytes(good)
        return read_heatmap_arrays(p)

    monkeypatch.setattr(heatmap_io, "read_heatmap_arrays", replaced)
    stack = _read_stack(refs, GRID, tmp_path, _buffer(fill=0.5))
    assert read == [refs[1]]
    assert stack.dtype == np.float32 and stack.tobytes() == expected.tobytes()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_a_non_finite_json_file_gets_the_dvp_files_message(tmp_path, value):
    refs = _chunk(tmp_path, 3, (".dvp", ".json"))
    payload = json.loads((tmp_path / refs[1]).read_text())
    payload["data"][0][1][3][3] = value
    (tmp_path / refs[1]).write_text(json.dumps(payload))
    _nan(tmp_path / refs[2])
    expected = {}
    for ref in refs[1:]:
        for read in (read_heatmap_arrays, read_heatmap_file):
            message = _first_error(read, tmp_path / ref)
            assert message == f"cannot read heatmap file {tmp_path / ref}: " \
                              "heatmap values must be finite"
        expected[ref] = message
    assert _first_error(_read_stack, refs, GRID, tmp_path, _buffer()) == expected[refs[1]]
    assert _first_error(read_stack, refs, GRID, tmp_path) == expected[refs[1]]
    assert _first_error(detections_to_pairs, _records(refs), CONFIG, tmp_path) \
        == expected[refs[1]]


RECORD_BYTES = 2 * 4 * len(DEFAULT_SCALES) * DEFAULT_RESOLUTION ** 2  # two float32 channels


@pytest.mark.parametrize("most, stack_bytes, sizes", [
    (_CHUNK, heatmap_io._STACK_BYTES, [7]),
    (3, heatmap_io._STACK_BYTES, [3, 3, 1]),
    (_CHUNK, 2 * RECORD_BYTES + 5, [2, 2, 2, 1]),
    (_CHUNK, RECORD_BYTES - 1, [1] * 7),  # a record above the limit still makes a chunk
])
def test_a_run_is_read_in_chunks_of_most_records_within_the_byte_limit(tmp_path, monkeypatch,
                                                                       most, stack_bytes, sizes):
    refs = _chunk(tmp_path, 7, (".dvp", ".dvp", ".dvp", ".dvp", ".dvp", ".json"))
    monkeypatch.setattr(heatmap_io, "_STACK_BYTES", stack_bytes)
    chunks = []
    # each stack is compared before the next chunk reuses the buffer
    for start, scales, stack in heatmap_io._read_stacks(np.array(refs, dtype=object), tmp_path,
                                                        most):
        expected = read_stack(refs[start : start + stack.shape[1]], GRID, tmp_path)
        assert scales == DEFAULT_SCALES
        assert stack.dtype == expected.dtype and stack.tobytes() == expected.tobytes()
        chunks.append((start, stack.shape[1]))
    assert chunks == list(zip(np.cumsum([0] + sizes[:-1]).tolist(), sizes))


@pytest.mark.parametrize("suffixes", [(), (".json",), (".dvp", ".dvp", ".json", ".dvp"),
                                      (".dvp",) * 4 + (".json",), (".json",) * 5])
def test_a_chunk_reads_the_whole_file_readers_stack(tmp_path, suffixes):
    refs = _chunk(tmp_path, 5, suffixes)
    expected = read_stack(refs, GRID, tmp_path)
    for buffer in (_buffer(), _buffer(5, fill=0.5)):
        stack = _read_stack(refs, GRID, tmp_path, buffer)
        assert stack.dtype == expected.dtype and stack.shape == expected.shape
        assert stack.tobytes() == expected.tobytes()


@pytest.mark.parametrize("case", ["NaN", "other scales", "missing"])
def test_a_bad_file_after_a_json_file_gives_the_first_error(tmp_path, case):
    refs = _chunk(tmp_path, 6, (".dvp", ".json"))
    bad = _spoil(tmp_path, refs, BAD_CHUNKS[case])
    message = _first_error(read_stack, refs, GRID, tmp_path)
    assert bad in message
    assert _first_error(_read_stack, refs, GRID, tmp_path, _buffer()) == message


def test_a_non_finite_json_file_after_a_non_finite_dvp_file_is_not_the_one_reported(tmp_path):
    refs = _chunk(tmp_path, 5, (".dvp", ".dvp", ".dvp", ".json"))
    _nan(tmp_path / refs[1])
    payload = json.loads((tmp_path / refs[3]).read_text())
    payload["data"][1][2][5][5] = float("nan")
    (tmp_path / refs[3]).write_text(json.dumps(payload))
    message = _first_error(read_stack, refs, GRID, tmp_path)
    assert refs[1] in message and "finite" in message
    assert _first_error(_read_stack, refs, GRID, tmp_path, _buffer()) == message


def test_the_written_bytes_are_the_header_then_the_float32_grids(tmp_path, observation):
    path = tmp_path / "obs.dvp"
    write_heatmap_file(path, observation)
    scales = [h.scale for h in observation[0]]
    header = MAGIC + struct.pack(f"<II{len(scales)}dI", 64, len(scales), *scales, 2)
    grids = b"".join(np.ascontiguousarray(h.values, dtype="<f4").tobytes()
                     for channel in observation for h in channel)
    assert path.read_bytes() == header + grids


def _maps_with(cells):
    """Two channels of four zero grids, with ``cells[(row, col)]`` set in the
    second channel's third grid."""
    grids = np.zeros((2, len(DEFAULT_SCALES), DEFAULT_RESOLUTION, DEFAULT_RESOLUTION))
    for (row, col), value in cells.items():
        grids[1, 2, row, col] = value
    return [[Heatmap(g, s) for g, s in zip(channel, DEFAULT_SCALES)] for channel in grids]


@pytest.mark.parametrize("suffix", [".dvp", ".json"])
@pytest.mark.parametrize("value", [1e39, -1e39])
def test_a_value_beyond_float32s_range_is_not_written(tmp_path, observation, suffix, value):
    path = tmp_path / f"obs{suffix}"
    write_heatmap_file(path, observation)
    before = path.read_bytes()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="float32's range"):
            write_heatmap_file(path, _maps_with({(5, 7): value}))
    assert path.read_bytes() == before


@pytest.mark.parametrize("suffix", [".dvp", ".json"])
def test_float32s_maximum_and_values_that_round_to_subnormals_or_zero_are_written(
        tmp_path, suffix):
    top = float(np.finfo(np.float32).max)
    cells = {(5, 7): top, (5, 8): -top, (6, 7): 1e-40, (6, 8): -1e-50}
    path = tmp_path / f"obs{suffix}"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        write_heatmap_file(path, _maps_with(cells))
    _, values = read_heatmap_arrays(path)
    for (row, col), value in cells.items():
        assert values[1, 2, row, col] == np.float32(value)
    assert values[1, 2, 6, 7] != 0.0 and values[1, 2, 6, 8] == 0.0


def test_a_name_the_system_cannot_open_is_reported_as_the_whole_file_reader_reports_it(
        tmp_path):
    refs = _chunk(tmp_path, 3)
    refs[1] = "v\x00.dvp"
    message = _first_error(read_stack, refs, GRID, tmp_path)
    assert "null" in message
    assert _first_error(_read_stack, refs, GRID, tmp_path, _buffer()) == message
    assert _first_error(detections_to_pairs, _records(refs), CONFIG, tmp_path) == message
