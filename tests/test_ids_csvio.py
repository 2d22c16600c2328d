"""Tests for stable file ids and the CSV helpers."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.csvio import (
    LINE_END,
    coerce_cell,
    csv_field,
    read_rows,
    read_typed_rows,
    write_lines,
    write_rows,
)
from repro.util.ids import file_record_id, short_id


class TestFileRecordId:
    def test_stable(self):
        assert file_record_id("/lustre/a") == file_record_id("/lustre/a")

    def test_distinct_paths_distinct_ids(self):
        assert file_record_id("/lustre/a") != file_record_id("/lustre/b")

    def test_positive_63_bit(self):
        value = file_record_id("/any/path")
        assert 0 <= value < 2**63

    @given(st.text(min_size=1, max_size=100))
    def test_always_in_range_property(self, path):
        assert 0 <= file_record_id(path) < 2**63

    def test_short_id_width(self):
        assert len(short_id(255)) == 16
        assert short_id(255) == "00000000000000ff"


class TestCsvIo:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "data.csv"
        rows = [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]
        count = write_rows(path, ["a", "b"], rows)
        assert count == 2
        back = read_rows(path)
        assert back == [{"a": "1", "b": "x"}, {"a": "2", "b": "y"}]

    def test_missing_keys_become_empty(self, tmp_path):
        path = tmp_path / "data.csv"
        write_rows(path, ["a", "b"], [{"a": 1}])
        assert read_rows(path) == [{"a": "1", "b": ""}]

    def test_extra_keys_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        with pytest.raises(ValueError):
            write_rows(path, ["a"], [{"a": 1, "oops": 2}])

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "data.csv"
        write_rows(path, ["a"], [{"a": 1}])
        assert path.exists()

    def test_typed_rows(self, tmp_path):
        path = tmp_path / "data.csv"
        write_rows(path, ["i", "f", "s"], [{"i": 3, "f": 2.5, "s": "abc"}])
        row = read_typed_rows(path)[0]
        assert row == {"i": 3, "f": 2.5, "s": "abc"}
        assert isinstance(row["i"], int)
        assert isinstance(row["f"], float)

    @given(cells=st.lists(st.text(max_size=8), min_size=2, max_size=4))
    def test_write_lines_matches_write_rows(self, tmp_path_factory, cells):
        out = tmp_path_factory.mktemp("lines")
        names = [f"c{i}" for i in range(len(cells))]
        write_rows(out / "rows.csv", names, [dict(zip(names, cells))] * 3)
        line = ",".join(csv_field(cell) for cell in cells) + LINE_END
        assert write_lines(out / "lines.csv", names, iter([line] * 3)) == 3
        assert (out / "lines.csv").read_bytes() == (out / "rows.csv").read_bytes()

    @pytest.mark.parametrize(
        ("cell", "quoted"),
        [("plain", "plain"), ("a,b", '"a,b"'), ('x"y', '"x""y"'), ("", "")],
    )
    def test_csv_field(self, cell, quoted):
        assert csv_field(cell) == quoted

    @pytest.mark.parametrize(
        ("cell", "expected"),
        [("", ""), ("42", 42), ("4.5", 4.5), ("x1", "x1"), ("-7", -7)],
    )
    def test_coerce_cell(self, cell, expected):
        assert coerce_cell(cell) == expected


class TestConsoleHelpers:
    def test_suppress_broken_pipe_passthrough(self):
        from repro.util.console import suppress_broken_pipe

        @suppress_broken_pipe
        def entry() -> int:
            return 7

        assert entry() == 7

    def test_suppress_broken_pipe_swallows(self, capsys):
        import sys
        from repro.util.console import suppress_broken_pipe

        @suppress_broken_pipe
        def entry() -> int:
            raise BrokenPipeError

        saved = sys.stdout
        try:
            assert entry() == 0
        finally:
            sys.stdout = saved
