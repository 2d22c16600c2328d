"""Tests for the Darshan instrumentation runtime (counters vs op stream)."""

from __future__ import annotations

import pytest

from repro.darshan.validate import validate_log
from repro.iosim.job import SimulatedJob
from repro.util.units import MIB


class TestDxtConsistency:
    def test_dxt_matches_counters_exactly(self):
        job = SimulatedJob(nprocs=2)
        for rank in range(2):
            posix = job.posix(rank)
            fd = posix.open("/lustre/f")
            for index in range(5):
                posix.pwrite(fd, 1000 + rank, (index * 2 + rank) * 5000)
            posix.pread(fd, 500, rank * 5000)
            posix.close(fd)
        log = job.finalize()
        validate_log(log)  # includes DXT <-> counter cross checks
        per_rank_segments = {
            rank: [s for s in log.dxt_segments if s.rank == rank]
            for rank in (0, 1)
        }
        assert len(per_rank_segments[0]) == 6
        assert len(per_rank_segments[1]) == 6

    def test_dxt_timestamps_ordered_per_rank(self):
        job = SimulatedJob(nprocs=1)
        posix = job.posix(0)
        fd = posix.open("/lustre/f")
        for index in range(10):
            posix.pwrite(fd, 100, index * 100)
        posix.close(fd)
        log = job.finalize()
        times = [s.start_time for s in log.dxt_segments]
        assert times == sorted(times)
        for segment in log.dxt_segments:
            assert segment.end_time >= segment.start_time

    def test_mpiio_dxt_records_logical_ops(self):
        from repro.iosim.mpiio import Contribution

        job = SimulatedJob(nprocs=2)
        mpi = job.mpiio()
        handle = mpi.open("/lustre/c")
        mpi.write_at_all(
            handle, [Contribution(0, 0, MIB), Contribution(1, MIB, MIB)]
        )
        mpi.close(handle)
        log = job.finalize()
        mpiio_segments = [s for s in log.dxt_segments if s.module == "X_MPIIO"]
        assert len(mpiio_segments) == 2
        assert {s.rank for s in mpiio_segments} == {0, 1}


class TestJobRecord:
    def test_end_time_is_latest_clock(self):
        job = SimulatedJob(nprocs=2)
        posix = job.posix(1)
        fd = posix.open("/lustre/f")
        posix.pwrite(fd, 4 * MIB, 0)
        posix.close(fd)
        expected_end = job.now(1)
        log = job.finalize()
        assert log.job.end_time == pytest.approx(expected_end)
        assert log.job.start_time == 0.0

    def test_metadata_carried_through(self):
        job = SimulatedJob(nprocs=1, executable="my_app", metadata={"k": "v"})
        posix = job.posix(0)
        fd = posix.open("/lustre/f")
        posix.close(fd)
        log = job.finalize()
        assert log.job.executable == "my_app"
        assert log.job.metadata == {"k": "v"}

    def test_lustre_records_describe_layouts(self):
        job = SimulatedJob(nprocs=1)
        posix = job.posix(0)
        fd = posix.open("/lustre/f", stripe_size=2 * MIB, stripe_count=3)
        posix.close(fd)
        log = job.finalize()
        lustre = log.records_for("LUSTRE")[0]
        assert lustre.counters["LUSTRE_STRIPE_SIZE"] == 2 * MIB
        assert lustre.counters["LUSTRE_STRIPE_WIDTH"] == 3
        ost_ids = {
            lustre.counters[f"LUSTRE_OST_ID_{slot}"] for slot in range(3)
        }
        assert len(ost_ids) == 3

    def test_timestamps_populate(self):
        job = SimulatedJob(nprocs=1)
        posix = job.posix(0)
        fd = posix.open("/lustre/f")
        posix.pwrite(fd, 100, 0)
        posix.pread(fd, 50, 0)
        posix.close(fd)
        record = job.finalize().records_for("POSIX")[0]
        f = record.fcounters
        assert f["POSIX_F_OPEN_START_TIMESTAMP"] <= f["POSIX_F_WRITE_START_TIMESTAMP"]
        assert f["POSIX_F_WRITE_START_TIMESTAMP"] <= f["POSIX_F_WRITE_END_TIMESTAMP"]
        assert f["POSIX_F_CLOSE_END_TIMESTAMP"] >= f["POSIX_F_READ_END_TIMESTAMP"]


def _layer(job, module):
    """Rank 0's layer of ``module`` with its open and close calls."""
    if module == "POSIX":
        layer = job.posix(0)
        return layer, layer.open, layer.close
    if module == "STDIO":
        layer = job.stdio(0)
        return layer, layer.fopen, layer.fclose
    layer = job.mpiio()
    return layer, layer.open, layer.close


def _timed(job, call) -> float:
    """Run ``call``; how far it moved rank 0's clock."""
    start = job.now(0)
    call()
    return job.now(0) - start


MODULES = ["POSIX", "MPI-IO", "STDIO"]


class TestEventHooks:
    @pytest.mark.parametrize("module", MODULES)
    def test_first_open_and_first_close_timestamps_stick(self, module):
        job = SimulatedJob(nprocs=1)
        _, open_, close = _layer(job, module)
        handle = open_("/lustre/f")
        first_close = job.now(0)
        close(handle)
        job.compute(0, 1.0)
        close(open_("/lustre/f"))
        record = job.finalize().records_for(module)[0]
        prefix = module.replace("-", "")
        assert first_close > 0.0
        assert record.fcounters[f"{prefix}_F_OPEN_START_TIMESTAMP"] == 0.0
        assert record.fcounters[f"{prefix}_F_CLOSE_START_TIMESTAMP"] == first_close

    @pytest.mark.parametrize(
        "module, counter, call",
        [
            ("POSIX", "POSIX_SEEKS", lambda layer, fd: layer.lseek(fd, 10)),
            ("POSIX", "POSIX_STATS", lambda layer, fd: layer.stat("/lustre/f")),
            ("POSIX", "POSIX_FSYNCS", lambda layer, fd: layer.fsync(fd)),
            ("STDIO", "STDIO_SEEKS", lambda layer, h: layer.fseek(h, 10)),
            (
                "STDIO", "STDIO_FLUSHES",
                lambda layer, h: (layer.fwrite(h, 100), layer.fflush(h)),
            ),
            ("MPI-IO", "MPIIO_SYNCS", lambda layer, h: layer.sync(h)),
        ],
        ids=["seek", "stat", "fsync", "fseek", "fflush", "sync"],
    )
    def test_meta_event_counts_and_charges_meta_time(self, module, counter, call):
        job = SimulatedJob(nprocs=1)
        layer, open_, close = _layer(job, module)
        handle = open_("/lustre/f")
        durations = [job.now(0)]  # the open started at t=0
        for _ in range(2):
            durations.append(_timed(job, lambda: call(layer, handle)))
        durations.append(_timed(job, lambda: close(handle)))
        record = job.finalize().records_for(module)[0]
        prefix = module.replace("-", "")
        assert all(duration > 0.0 for duration in durations)
        assert record.counters[counter] == 2
        assert record.fcounters[f"{prefix}_F_META_TIME"] == pytest.approx(
            sum(durations)
        )

    def test_mpiio_counts_collective_and_independent_opens_apart(self):
        job = SimulatedJob(nprocs=2)
        mpi = job.mpiio()
        for collective in (True, False, False):
            mpi.close(mpi.open("/lustre/f", collective=collective))
        records = job.finalize().records_for("MPI-IO")
        assert len(records) == 2
        for record in records:
            assert record.counters["MPIIO_COLL_OPENS"] == 1
            assert record.counters["MPIIO_INDEP_OPENS"] == 2
