"""The columnar detections table against the record-by-record reader and filter.

``detections_reference`` keeps the per-line parser and the per-frame filter
loop. ``parse_detections`` must give the records, and the error messages,
that the per-line parser gives, and ``filter_detections`` must keep the rows
the loop keeps, in its order. ``test_detection_properties`` checks the same
on generated files and scenes.
"""

import json

import numpy as np
import pytest

import test_cli
from detections_reference import GOOD, filter_loop, parse_lines, record, same_as_line_parser
from vpcalib.errors import InputFormatError
from vpcalib.heatmap import HeatmapCodec
from vpcalib.heatmap_io import write_heatmap_file
from vpcalib.pipeline import (
    DetectionTable,
    PipelineConfig,
    detections_to_pairs,
    filter_detections,
    parse_detections,
)


class TestParse:
    def test_rows_are_the_records_of_the_line_parser(self, tmp_path):
        path = tmp_path / "det.jsonl"
        path.write_text(
            '{"frame": 0, "box": [0, 0, 100, 50], "confidence": 0.9, '
            '"vp_first": [3.0, -1.0], "vp_second": [-4.0, 2.0]}\n'
            '{"frame": 10, "box": [5, 5, 90, 45], "confidence": 0.8, '
            '"vp_first_direction": [1.0, 0.0], "vp_second": [-4.0, 2.0]}\n'
        )
        table = parse_detections(path)
        assert isinstance(table, DetectionTable) and len(table) == 2
        assert list(table) == parse_lines(path)
        assert table[1] == parse_lines(path)[1]
        assert table.frame_index.dtype == np.int64 and table.boxes.shape == (2, 4)
        assert not table.boxes.flags.writeable

    def test_mixed_routes(self, tmp_path):
        write_heatmap_file(tmp_path / "obs.dvp", HeatmapCodec().encode_pair([4, -1.5], [-6, 2]))
        payloads = [
            {"vp_first": [3, -1], "vp_second": [-4.5, 2]},
            {"vp_first_direction": [1, 0], "vp_second": [-4, 2]},
            {"vp_first": [3, -1], "vp_second_direction": [0.6, 0.8]},
            {"vp_first_direction": [0, 1], "vp_second_direction": [1, 0]},
            {"heatmap": "obs.dvp"},
            {"heatmap": "obs.dvp", "vp_first": [1, 2], "vp_second": [-2, 1]},
            {"vp_first": [3, -1], "vp_first_direction": [1, 0], "vp_second": [-4, 2]},
        ]
        lines = [json.dumps({"frame": 10 * (k // 2), "box": [k, 0.5, 100 + k, 60],
                             "confidence": k / 10, **payload})
                 for k, payload in enumerate(payloads)]
        path = tmp_path / "det.jsonl"
        path.write_text("\n".join(lines[:3] + ["", "  "] + lines[3:]) + "\n")
        same_as_line_parser(path)
        table = parse_detections(path)
        assert table.heatmap_ref.tolist() == [None] * 4 + ["obs.dvp"] * 2 + [None]
        # the table and the list of its records give the same pairs
        pairs, from_list = (detections_to_pairs(records, PipelineConfig(), tmp_path)
                            for records in (table, parse_lines(path)))
        assert len(pairs) == len(payloads)
        for name in ("first", "second", "first_is_direction", "second_is_direction"):
            assert getattr(pairs, name).tobytes() == getattr(from_list, name).tobytes()

    @pytest.mark.parametrize("bad", [
        '{"frame": 5160, "box": [0, 0, 100, 50]',
        '{"frame": 5160, "box": [0, 0, 100, 50], "vp_first": [3, "x"], "vp_second": [1, 2]}',
        '{"frame": 5160, "box": [10, 0, 5, 50], "vp_first": [3, 1], "vp_second": [1, 2]}',
        '{"frame": 5160, "box": [0, 0, 100, 50], "confidence": 2, "heatmap": "a.dvp"}',
    ])
    # the bad line is the line-th of n_lines non-blank lines, after blanks blank ones
    @pytest.mark.parametrize("n_lines, line, blanks", [
        pytest.param(1000, 517, 0, id="1000-517"), pytest.param(9000, 5117, 0, id="9000-5117"),
        (2000, 1024, 3), (2000, 1025, 3),
    ])
    def test_malformed_line_in_the_middle_is_named(self, tmp_path, bad, n_lines, line, blanks):
        # 9000 lines are read in several parts, and the bad line is in a middle
        # one; the 1024th and the 1025th end the first part and start the next
        lines = [json.dumps({**GOOD, "frame": 10 * k}) for k in range(n_lines)]
        lines[line - 1] = bad
        lines[-1] = "not json"
        lines[10:10] = [""] * blanks
        path = tmp_path / "det.jsonl"
        path.write_text("\n".join(lines) + "\n")
        assert f"line {line + blanks}: " in same_as_line_parser(path)

    def test_first_bad_line_is_named_for_its_first_failing_check(self, tmp_path):
        # each stage finds a different first bad line: the file's first is named
        lines = [json.dumps({**GOOD, "frame": 10 * k}) for k in range(30)]
        lines[25] = '{"frame": 250, "box": ["0", 0, 1, 1]}'
        lines[20] = '{"frame": -1, "box": [0, 0, 1, 1], "vp_first": [1, 1]}'
        lines[12] = '{"frame": 120, "box": [0, 0, 1, 1], "vp_first": [1], "confidence": 7}'
        lines[7] = '{"frame": -70, "box": [0, 0, 1, 1], "confidence": 3, "heatmap": 2}'
        path = tmp_path / "det.jsonl"
        path.write_text("\n".join(lines) + "\n")
        assert "line 8: frame_index must be >= 0" in same_as_line_parser(path)

    # the command-line cases of a bad detections line
    CASES = {name: files["det.jsonl"] for name, (_, _, files, _, named)
             in test_cli.TestErrorPaths.BAD_INPUTS.items() if named.startswith("line ")}

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_error_cases_keep_their_messages(self, tmp_path, case):
        path = tmp_path / "det.jsonl"
        path.write_text(self.CASES[case], encoding="latin-1")
        assert same_as_line_parser(path).startswith("InputFormatError")

    def test_frames_past_the_int64_column_rejected(self, tmp_path):
        path = tmp_path / "det.jsonl"
        path.write_text(json.dumps({**GOOD, "frame": 2**63}) + "\n")
        with pytest.raises(InputFormatError, match="line 1: frame_index must be below 2"):
            parse_detections(path)
        path.write_text(json.dumps({**GOOD, "frame": 2**63 - 1}) + "\n")
        assert parse_detections(path)[0].frame_index == 2**63 - 1


class TestFilter:
    def test_table_in_table_out(self):
        records = [record(10 * k, (5, 5, 50, 40)) for k in range(6)] + [record(61, (0, 0, 1, 1))]
        kept = filter_detections(DetectionTable.of(records), PipelineConfig())
        assert isinstance(kept, DetectionTable)
        assert list(kept) == records[:3]
        assert filter_detections(iter(records), PipelineConfig()) == records[:3]

    def test_huge_config_integers(self):
        records = [record(10 * k, (10 * k, 0, 10 * k + 5, 5)) for k in range(5)]
        config = PipelineConfig(frame_stride=10**30, max_frames=10**30,
                                max_boxes_per_frame=10**30, static_min_hits=10**30)
        assert filter_detections(records, config) == filter_loop(records, config) == records[:1]

    @pytest.mark.parametrize("stride", [2**63 - 1, 2**63])
    def test_a_stride_at_the_frame_limit_keeps_frame_zero_only(self, stride):
        # 2**63 is past the int64 frame column, so no modulo may be taken with it
        records = [record(frame, (0, 0, 9, 9)) for frame in (0, 10, 2**63 - 1)]
        config = PipelineConfig(frame_stride=stride, max_frames=2**63)
        kept = filter_detections(records, config)
        assert kept == filter_loop(records, config)
        assert kept == ([records[0], records[2]] if stride < 2**63 else [records[0]])

    def test_an_iou_equal_to_static_iou_is_no_match(self):
        # boxes 25 px apart along x overlap by IoU 7500 / 12500 = 0.6 exactly
        records = [record(10 * k, (25 * (k % 2), 0, 100 + 25 * (k % 2), 100)) for k in range(4)]
        config = PipelineConfig(static_iou=0.6, static_min_hits=1)
        assert filter_detections(records, config) == filter_loop(records, config) == records

    @pytest.mark.parametrize("crowd", [[20] * 30, [4097, 1, 1, 1]])
    def test_frames_whose_pairs_fill_several_blocks_match_the_loop(self, crowd):
        # 400 box pairs a frame, or a previous frame of more boxes than a
        # block of the static filter holds (4096 pairs); a box at one of
        # four places, so that tracks grow past static_min_hits
        rng = np.random.default_rng(len(crowd))
        records = []
        for frame, n in enumerate(crowd):
            corner = rng.integers(0, 2, (n, 2)) * 3.0 if n > 1 else np.zeros((1, 2))
            records += [record(10 * frame, (x, y, x + 40, y + 40), float(c))
                        for (x, y), c in zip(corner, rng.random(n))]
        config = PipelineConfig(max_boxes_per_frame=5000, static_min_hits=2)
        kept = filter_detections(records, config)
        assert kept == filter_loop(records, config)
        assert 0 < len(kept) < len(records)

    def test_underflowing_boxes_match_nothing(self):
        # BBox.iou divides 0 by 0 here; the columnar filter finds no match
        records = [record(10 * k, (0, 0, 1e-200, 1e-200)) for k in range(5)]
        assert filter_detections(records, PipelineConfig()) == records
