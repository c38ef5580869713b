import numpy as np
import pytest

from vpcalib.errors import InputFormatError
from vpcalib.heatmap import HeatmapCodec
from vpcalib.heatmap_io import MAGIC, read_heatmap_arrays, read_heatmap_file, write_heatmap_file


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
