"""Tests for Darshan record models and counter registries."""

from __future__ import annotations

import pytest

from repro.darshan.counters import (
    LUSTRE_MODULE,
    MPIIO_MODULE,
    POSIX_MODULE,
    STDIO_MODULE,
    counters_for,
    fcounters_for,
    known_modules,
)
from repro.darshan.records import DxtSegment, DxtTable, JobRecord, ModuleRecord
from repro.util.errors import DarshanValidationError
from repro.util.ids import file_record_id


class TestCounterRegistry:
    def test_known_modules(self):
        assert known_modules() == (
            POSIX_MODULE, MPIIO_MODULE, STDIO_MODULE, LUSTRE_MODULE,
        )

    def test_posix_has_size_histograms(self):
        names = counters_for(POSIX_MODULE)
        assert "POSIX_SIZE_READ_0_100" in names
        assert "POSIX_SIZE_WRITE_1G_PLUS" in names

    def test_posix_fcounters(self):
        assert "POSIX_F_READ_TIME" in fcounters_for(POSIX_MODULE)

    def test_lustre_has_no_fcounters(self):
        assert fcounters_for(LUSTRE_MODULE) == ()

    def test_unknown_module_rejected(self):
        with pytest.raises(KeyError):
            counters_for("BOGUS")
        with pytest.raises(KeyError):
            fcounters_for("BOGUS")

    def test_counter_names_unique_per_module(self):
        for module in known_modules():
            names = counters_for(module)
            assert len(names) == len(set(names))


class TestJobRecord:
    def test_run_time(self):
        job = JobRecord(job_id=1, uid=2, nprocs=4, start_time=1.0, end_time=3.5)
        assert job.run_time == 2.5

    def test_run_time_never_negative(self):
        job = JobRecord(job_id=1, uid=2, nprocs=4, start_time=5.0, end_time=1.0)
        assert job.run_time == 0.0


class TestModuleRecord:
    def test_counters_normalized_to_full_set(self):
        record = ModuleRecord(
            module=POSIX_MODULE,
            record_id=file_record_id("/a"),
            rank=0,
            counters={"POSIX_READS": 5},
        )
        assert record.counters["POSIX_READS"] == 5
        assert record.counters["POSIX_WRITES"] == 0
        assert record.fcounters["POSIX_F_READ_TIME"] == 0.0

    def test_unknown_counter_rejected(self):
        with pytest.raises(KeyError):
            ModuleRecord(
                module=POSIX_MODULE,
                record_id=1,
                rank=0,
                counters={"NOT_A_COUNTER": 1},
            )

    def test_unknown_fcounter_rejected(self):
        with pytest.raises(KeyError):
            ModuleRecord(
                module=POSIX_MODULE,
                record_id=1,
                rank=0,
                fcounters={"POSIX_READS": 1.0},  # int counter, not float
            )

    def test_get_spans_both_kinds(self):
        record = ModuleRecord(
            module=POSIX_MODULE,
            record_id=1,
            rank=0,
            counters={"POSIX_READS": 3},
            fcounters={"POSIX_F_READ_TIME": 1.25},
        )
        assert record.get("POSIX_READS") == 3
        assert record.get("POSIX_F_READ_TIME") == 1.25
        with pytest.raises(KeyError):
            record.get("MISSING")


class TestDxtSegment:
    def _segment(self, **overrides):
        params = dict(
            module="X_POSIX",
            record_id=1,
            rank=0,
            operation="write",
            offset=0,
            length=100,
            start_time=0.0,
            end_time=1.0,
        )
        params.update(overrides)
        return DxtSegment(**params)

    def test_duration(self):
        assert self._segment().duration == 1.0

    def test_bad_operation_rejected(self):
        with pytest.raises(ValueError):
            self._segment(operation="stat")

    def test_bad_module_rejected(self):
        with pytest.raises(ValueError):
            self._segment(module="X_NFS")

    def test_negative_offset_rejected(self):
        with pytest.raises(ValueError):
            self._segment(offset=-1)

    def test_time_travel_rejected(self):
        with pytest.raises(ValueError):
            self._segment(start_time=2.0, end_time=1.0)


class TestDxtTable:
    ROW = dict(
        module="X_POSIX", record_id=1, rank=0, operation="write",
        offset=0, length=100, start=0.0, end=1.0,
    )

    def _table(self, **overrides):
        table = DxtTable()
        table.append(**{**self.ROW, **overrides})
        return table

    def test_rows_view_as_segments(self):
        table = self._table(hostname="n3")
        table.append(**{**self.ROW, "module": "X_MPIIO", "operation": "read"})
        assert len(table) == 2
        assert table[0] == DxtSegment("X_POSIX", 1, 0, "write", 0, 100, 0.0, 1.0, "n3")
        assert [s.module for s in table] == ["X_POSIX", "X_MPIIO"]
        assert table.hostnames == ["n3", "node0"]
        assert list(table.host) == [0, 1]

    @pytest.mark.parametrize(
        "overrides",
        [
            {"operation": "stat"},
            {"module": "X_NFS"},
            {"offset": -1},
            {"length": -1},
            {"start": 2.0, "end": 1.0},
        ],
    )
    def test_append_checks_like_segment(self, overrides):
        with pytest.raises(ValueError):
            self._table(**overrides)

    @pytest.mark.parametrize(
        "column, value, message",
        [
            ("module", 2, "module/op code"),
            ("op", 7, "module/op code"),
            ("offset", -5, "non-negative"),
            ("length", -5, "non-negative"),
            ("end", -1.0, "ends before it starts"),
            ("host", 4, "hostname index"),
        ],
    )
    def test_check_runs_over_columns(self, column, value, message):
        table = self._table()
        getattr(table, column)[0] = value
        with pytest.raises(ValueError, match=message):
            table.check({1})

    def test_check_rejects_unknown_record_id(self):
        with pytest.raises(DarshanValidationError, match="unknown record id 0x1"):
            self._table().check({2})

    def test_check_rejects_ragged_columns(self):
        table = self._table()
        table.rank.append(3)
        with pytest.raises(ValueError, match="differ in length"):
            table.check({1})

    def test_equality_compares_contents(self):
        assert self._table() == self._table()
        assert self._table() != self._table(length=5)
        assert self._table() != self._table(hostname="other")
