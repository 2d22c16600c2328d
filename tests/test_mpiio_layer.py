"""Tests for the MPI-IO layer: independent path and two-phase collectives.

``MpiIoLayer.independent_run``/``collective_run`` execute a phase of
calls as one data-path run; ``write_at``/``write_at_all`` and their
read twins are runs of one.  The property test pins that both give
byte-identical logs, and the check tests pin that every check of the
per-call path still fires in a run.
"""

from __future__ import annotations

from itertools import cycle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.darshan.binformat import write_log
from repro.darshan.validate import validate_log
from repro.iosim.job import SimulatedJob
from repro.iosim.mpiio import Contribution
from repro.lustre.filesystem import LustreConfig, LustreFilesystem
from repro.lustre.ost import ServerCosts
from repro.util.errors import FilesystemError, SimulationError
from repro.util.units import GIB, KIB, MIB


def make_job(nprocs=4):
    return SimulatedJob(nprocs=nprocs)


class TestOpenClose:
    def test_collective_open_creates_posix_records_per_rank(self):
        job = make_job()
        mpi = job.mpiio()
        handle = mpi.open("/lustre/c")
        mpi.close(handle)
        log = job.finalize()
        posix_ranks = {r.rank for r in log.records_for("POSIX")}
        mpiio_ranks = {r.rank for r in log.records_for("MPI-IO")}
        assert posix_ranks == mpiio_ranks == {0, 1, 2, 3}
        for record in log.records_for("MPI-IO"):
            assert record.counters["MPIIO_COLL_OPENS"] == 1

    def test_independent_open_subset(self):
        job = make_job()
        mpi = job.mpiio()
        handle = mpi.open("/lustre/c", ranks=[1, 2], collective=False)
        mpi.close(handle)
        log = job.finalize()
        assert {r.rank for r in log.records_for("MPI-IO")} == {1, 2}
        assert log.records_for("MPI-IO")[0].counters["MPIIO_INDEP_OPENS"] == 1

    def test_empty_rank_list_rejected(self):
        job = make_job()
        with pytest.raises(SimulationError):
            job.mpiio().open("/lustre/c", ranks=[])

    def test_bad_handle_rejected(self):
        job = make_job()
        mpi = job.mpiio()
        with pytest.raises(SimulationError):
            mpi.close(42)


class TestIndependentOps:
    def test_mirrored_in_posix(self):
        job = make_job()
        mpi = job.mpiio()
        handle = mpi.open("/lustre/c")
        mpi.write_at(handle, 2, 0, 4 * KIB)
        mpi.read_at(handle, 2, 0, 4 * KIB)
        mpi.close(handle)
        log = job.finalize()
        mpiio = next(r for r in log.records_for("MPI-IO") if r.rank == 2)
        posix = next(r for r in log.records_for("POSIX") if r.rank == 2)
        assert mpiio.counters["MPIIO_INDEP_WRITES"] == 1
        assert mpiio.counters["MPIIO_INDEP_READS"] == 1
        assert posix.counters["POSIX_WRITES"] == 1
        assert posix.counters["POSIX_READS"] == 1
        validate_log(log)

    def test_nonblocking_counted_separately(self):
        job = make_job()
        mpi = job.mpiio()
        handle = mpi.open("/lustre/c")
        mpi.write_at(handle, 0, 0, KIB, nonblocking=True)
        mpi.close(handle)
        record = next(
            r for r in job.finalize().records_for("MPI-IO") if r.rank == 0
        )
        assert record.counters["MPIIO_NB_WRITES"] == 1
        assert record.counters["MPIIO_INDEP_WRITES"] == 0

    def test_rank_must_have_opened(self):
        job = make_job()
        mpi = job.mpiio()
        handle = mpi.open("/lustre/c", ranks=[0, 1])
        with pytest.raises(SimulationError):
            mpi.write_at(handle, 3, 0, KIB)

    def test_sync_counts(self):
        job = make_job()
        mpi = job.mpiio()
        handle = mpi.open("/lustre/c")
        mpi.write_at(handle, 0, 0, KIB)
        mpi.sync(handle)
        mpi.close(handle)
        record = next(
            r for r in job.finalize().records_for("MPI-IO") if r.rank == 0
        )
        assert record.counters["MPIIO_SYNCS"] == 1


class TestCollectiveOps:
    def test_every_rank_records_collective_op(self):
        job = make_job()
        mpi = job.mpiio()
        handle = mpi.open("/lustre/c", stripe_size=MIB, stripe_count=4)
        contributions = [
            Contribution(rank, rank * 256 * KIB, 256 * KIB) for rank in range(4)
        ]
        mpi.write_at_all(handle, contributions)
        mpi.close(handle)
        log = job.finalize()
        for record in log.records_for("MPI-IO"):
            assert record.counters["MPIIO_COLL_WRITES"] == 1
        validate_log(log)

    def test_aggregators_do_the_posix_writes(self):
        job = make_job()
        mpi = job.mpiio(cb_nodes=1)
        handle = mpi.open("/lustre/c", stripe_size=MIB, stripe_count=4)
        contributions = [
            Contribution(rank, rank * 256 * KIB, 256 * KIB) for rank in range(4)
        ]
        mpi.write_at_all(handle, contributions)
        mpi.close(handle)
        log = job.finalize()
        writers = {
            r.rank: r.counters["POSIX_WRITES"]
            for r in log.records_for("POSIX")
            if r.counters["POSIX_WRITES"]
        }
        assert set(writers) == {0}

    def test_contiguous_contributions_coalesce(self):
        """Four contiguous 256 KiB pieces become one 1 MiB aligned write."""
        job = make_job()
        mpi = job.mpiio()
        handle = mpi.open("/lustre/c", stripe_size=MIB, stripe_count=4)
        contributions = [
            Contribution(rank, rank * 256 * KIB, 256 * KIB) for rank in range(4)
        ]
        mpi.write_at_all(handle, contributions)
        mpi.close(handle)
        log = job.finalize()
        posix_writes = [
            seg for seg in log.dxt_segments if seg.module == "X_POSIX"
            and seg.operation == "write"
        ]
        assert len(posix_writes) == 1
        assert posix_writes[0].offset == 0
        assert posix_writes[0].length == MIB

    def test_unaligned_run_keeps_base_offset(self):
        """File domains split relative to the run start (odd header)."""
        job = make_job()
        mpi = job.mpiio()
        handle = mpi.open("/lustre/c", stripe_size=MIB, stripe_count=4)
        header = 2867
        contributions = [
            Contribution(rank, header + rank * MIB, MIB) for rank in range(4)
        ]
        mpi.write_at_all(handle, contributions)
        mpi.close(handle)
        log = job.finalize()
        writes = [
            seg for seg in log.dxt_segments if seg.module == "X_POSIX"
            and seg.operation == "write"
        ]
        assert all(seg.offset % MIB == header for seg in writes)

    def test_collective_read_back(self):
        job = make_job()
        mpi = job.mpiio()
        handle = mpi.open("/lustre/c", stripe_size=MIB, stripe_count=4)
        contributions = [
            Contribution(rank, rank * 256 * KIB, 256 * KIB) for rank in range(4)
        ]
        mpi.write_at_all(handle, contributions)
        mpi.read_at_all(handle, contributions)
        mpi.close(handle)
        log = job.finalize()
        record = next(r for r in log.records_for("MPI-IO") if r.rank == 1)
        assert record.counters["MPIIO_COLL_READS"] == 1
        validate_log(log)

    def test_ranks_without_contribution_record_zero_length(self):
        job = make_job()
        mpi = job.mpiio()
        handle = mpi.open("/lustre/c")
        mpi.write_at_all(handle, [Contribution(0, 0, MIB)])
        mpi.close(handle)
        log = job.finalize()
        record = next(r for r in log.records_for("MPI-IO") if r.rank == 3)
        assert record.counters["MPIIO_COLL_WRITES"] == 1
        assert record.counters["MPIIO_BYTES_WRITTEN"] == 0

    def test_collective_synchronizes_clocks(self):
        job = make_job()
        mpi = job.mpiio()
        handle = mpi.open("/lustre/c")
        mpi.write_at_all(
            handle, [Contribution(rank, rank * MIB, MIB) for rank in range(4)]
        )
        clocks = [job.now(rank) for rank in range(4)]
        assert max(clocks) == pytest.approx(min(clocks))

    def test_contribution_from_non_member_rejected(self):
        job = make_job()
        mpi = job.mpiio()
        handle = mpi.open("/lustre/c", ranks=[0, 1])
        with pytest.raises(SimulationError):
            mpi.write_at_all(handle, [Contribution(3, 0, MIB)])

    def test_default_aggregator_count_is_stripe_count(self):
        job = SimulatedJob(nprocs=8)
        mpi = job.mpiio()
        handle = mpi.open("/lustre/c", stripe_size=MIB, stripe_count=2)
        contributions = [
            Contribution(rank, rank * MIB, MIB) for rank in range(8)
        ]
        mpi.write_at_all(handle, contributions)
        mpi.close(handle)
        log = job.finalize()
        writers = {
            r.rank for r in log.records_for("POSIX") if r.counters["POSIX_WRITES"]
        }
        assert writers == {0, 1}


# -- MPI-IO runs equal the same calls one at a time -----------------------

NPROCS = 4
STRIPE = 4 * KIB
#: Each file starts this long, so reads below it never pass EOF.
PREFIX = 8 * STRIPE
#: (path, members) of the handles a stream uses: one on every rank and
#: one on a subset, so members, aggregators and fds differ.
HANDLES = (("/lustre/run/all", (0, 1, 2, 3)), ("/lustre/run/sub", (1, 3)))


def _small_stripe_job(costs: ServerCosts | None = None) -> SimulatedJob:
    config = LustreConfig(
        ost_count=4, default_stripe_size=STRIPE, default_stripe_count=3,
        costs=costs or ServerCosts(),
    )
    return SimulatedJob(nprocs=NPROCS, fs=LustreFilesystem(config))


def _mpiio_trace(stream, layer_args, mode: str, tmp_path) -> bytes:
    """The log of ``stream`` executed as runs, as calls or by the model."""
    job = _small_stripe_job()
    mpi = job.mpiio(**layer_args)
    handles = []
    for path, members in HANDLES:
        handle = mpi.open(path, ranks=list(members))
        mpi.write_at(handle, members[0], 0, PREFIX)
        handles.append(handle)
    for kind, operation, which, calls, mem_aligned, nonblocking in stream:
        members = HANDLES[which][1]
        handle = handles[which]
        # Rank draws index the handle's members.
        if kind == "indep":
            calls = [(members[r % len(members)], o, n) for r, o, n in calls]
            if mode == "runs":
                mpi.independent_run(
                    handle, operation, calls, mem_aligned, nonblocking
                )
            elif mode == "calls":
                call = mpi.write_at if operation == "write" else mpi.read_at
                for rank, offset, length in calls:
                    call(handle, rank, offset, length, mem_aligned, nonblocking)
            else:
                for call in calls:
                    _model_independent(
                        job, mpi, handle, operation, call, mem_aligned,
                        nonblocking,
                    )
            continue
        steps = [
            [(members[r % len(members)], o, n) for r, o, n in step]
            for step in calls
        ]
        if mode == "runs":
            mpi.collective_run(handle, operation, steps)
        elif mode == "calls":
            call = mpi.write_at_all if operation == "write" else mpi.read_at_all
            for step in steps:
                call(handle, [Contribution(*extent) for extent in step])
        else:
            for step in steps:
                _model_collective(job, mpi, handle, operation, step, **layer_args)
    for handle in handles:
        mpi.close(handle)
    path = write_log(job.finalize(), tmp_path / f"mpiio-{mode}.darshan")
    return path.read_bytes()


# A reference model of the per-call MPI-IO algorithm, written with the
# job's POSIX and clock primitives and the runtime's records only.


def _model_fold(job, inode, flavor, operation, extents, start, end) -> None:
    for rank, offset, length in extents:
        record = job.runtime.record("MPI-IO", inode, rank)
        getattr(record, flavor)[operation] += 1
        if record.last_op and record.last_op != operation:
            record.rw_switches += 1
        record.last_op = operation
        record.accesses.add(length)
        phase = record.read if operation == "read" else record.write
        phase.add(offset, length, start, end)
        job.runtime.dxt.append(
            "X_MPIIO", inode.file_id, rank, operation, offset, length,
            start, end,
        )


def _model_independent(
    job, mpi, handle, operation, call, mem_aligned, nonblocking
) -> None:
    h = mpi._handles[handle]
    rank, offset, length = call
    start = job.now(rank)
    posix = job.posix(rank)
    io = posix.pwrite if operation == "write" else posix.pread
    io(h.fds[rank], length, offset, mem_aligned=mem_aligned)
    flavor = "nb" if nonblocking else "indep"
    _model_fold(job, h.inode, flavor, operation, [call], start, job.now(rank))


def _model_collective(
    job, mpi, handle, operation, step, cb_nodes=None, cb_buffer_size=None,
    net_latency=5e-6, net_bandwidth=12.0 * GIB,
) -> None:
    h = mpi._handles[handle]
    by_rank: dict[int, tuple[int, int]] = {}
    for rank, offset, length in step:
        low, total = by_rank.get(rank, (offset, 0))
        by_rank[rank] = (min(low, offset), total + length)
    members = list(h.ranks)
    entry = job.barrier(members)
    count = cb_nodes or min(len(members), h.inode.layout.stripe_count)
    aggregators = members[: max(1, min(count, len(members)))]
    cb_size = cb_buffer_size or h.inode.layout.stripe_size
    merged: list[list[int]] = []
    for offset, length in sorted((o, n) for _, o, n in step if n > 0):
        if merged and offset <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], offset + length)
        else:
            merged.append([offset, offset + length])
    chunks = []
    for position, run_end in merged:
        while position < run_end:
            chunk_end = min(run_end, position + cb_size)
            chunks.append((position, chunk_end - position))
            position = chunk_end
    for rank, _, length in step:
        job.advance(rank, job.now(rank) + (net_latency + length / net_bandwidth))
    job.posix_run(operation, [
        (rank, h.fds[rank], offset, length)
        for rank, (offset, length) in zip(cycle(aggregators), chunks)
    ])
    exit_time = job.barrier(members)
    extents = [(rank, *by_rank.get(rank, (0, 0))) for rank in members]
    _model_fold(job, h.inode, "coll", operation, extents, entry, exit_time)


# Offsets are unaligned, lengths cross stripe and collective-buffer
# boundaries, and every extent stays inside the prefix.
_call = st.tuples(
    st.integers(0, NPROCS - 1),
    st.integers(0, PREFIX - 3 * STRIPE),
    st.one_of(st.just(0), st.integers(1, 3 * STRIPE)),
)
_independent = st.tuples(
    st.just("indep"),
    st.sampled_from(["write", "read"]),
    st.integers(0, len(HANDLES) - 1),
    st.lists(_call, max_size=8),
    st.booleans(),
    st.booleans(),
)
# A step may hold several extents per rank, overlapping or not, and
# may leave members out.
_collective = st.tuples(
    st.just("coll"),
    st.sampled_from(["write", "read"]),
    st.integers(0, len(HANDLES) - 1),
    st.lists(st.lists(_call, max_size=6), max_size=4),
    st.just(True),
    st.just(False),
)
_stream = st.lists(st.one_of(_independent, _collective), max_size=8)
_layer_args = st.fixed_dictionaries({
    "cb_nodes": st.sampled_from([None, 1, 2, 3]),
    "cb_buffer_size": st.sampled_from([None, 1000, STRIPE, 10000]),
})


def _check_runs_equal_calls(stream, layer_args, tmp_path) -> None:
    runs = _mpiio_trace(stream, layer_args, "runs", tmp_path)
    assert runs == _mpiio_trace(stream, layer_args, "calls", tmp_path)
    assert runs == _mpiio_trace(stream, layer_args, "model", tmp_path)


class TestRunsEqualCalls:
    @settings(max_examples=60, deadline=None)
    @given(stream=_stream, layer_args=_layer_args)
    def test_runs_or_calls_one_at_a_time_give_identical_logs(
        self, stream, layer_args, tmp_path_factory
    ):
        _check_runs_equal_calls(
            stream, layer_args, tmp_path_factory.mktemp("mpiio")
        )

    @pytest.mark.slow
    @settings(max_examples=600, deadline=None)
    @given(stream=_stream, layer_args=_layer_args)
    def test_runs_equal_calls_many_examples(
        self, stream, layer_args, tmp_path_factory
    ):
        _check_runs_equal_calls(
            stream, layer_args, tmp_path_factory.mktemp("mpiio")
        )

    def test_an_ior_shaped_collective_phase_then_read_back(self, tmp_path):
        steps = [
            [(rank, rank * 4 * 3000 + step * 3000, 3000) for rank in range(4)]
            for step in range(4)
        ]
        stream = [
            ("coll", operation, 0, steps, True, False)
            for operation in ("write", "read")
        ]
        _check_runs_equal_calls(stream, {}, tmp_path)


class TestRunChecks:
    """Each check of the per-call path, raised from inside a run."""

    def _opened(self, costs=None, **layer_args):
        job = _small_stripe_job(costs)
        mpi = job.mpiio(**layer_args)
        return job, mpi, mpi.open("/lustre/c", ranks=[0, 1])

    def test_bad_handle(self):
        _, mpi, _ = self._opened()
        with pytest.raises(SimulationError, match="bad MPI-IO handle 42"):
            mpi.independent_run(42, "write", [(0, 0, 10)])
        with pytest.raises(SimulationError, match="bad MPI-IO handle 42"):
            mpi.collective_run(42, "write", [[(0, 0, 10)]])

    def test_independent_rank_that_did_not_open(self):
        _, mpi, handle = self._opened()
        with pytest.raises(SimulationError, match="rank 3 did not open"):
            mpi.independent_run(handle, "write", [(0, 0, 10), (3, 0, 10)])

    def test_collective_rank_that_did_not_open(self):
        _, mpi, handle = self._opened()
        with pytest.raises(SimulationError, match="rank 2 did not open"):
            mpi.collective_run(handle, "write", [[(0, 0, 10), (2, 10, 10)]])

    def test_bad_operation(self):
        _, mpi, handle = self._opened()
        with pytest.raises(FilesystemError, match="bad operation"):
            mpi.independent_run(handle, "append", [(0, 0, 10)])
        with pytest.raises(FilesystemError, match="bad operation"):
            mpi.collective_run(handle, "append", [[(0, 0, 10)]])

    def test_negative_length(self):
        _, mpi, handle = self._opened()
        with pytest.raises(FilesystemError, match="non-negative"):
            mpi.independent_run(handle, "write", [(0, 0, -1)])

    def test_negative_offset(self):
        _, mpi, handle = self._opened()
        with pytest.raises(ValueError, match="non-negative"):
            mpi.independent_run(handle, "write", [(0, -1, 10)])
        with pytest.raises(ValueError, match="non-negative"):
            mpi.collective_run(handle, "write", [[(0, -1, 10)]])

    def test_collective_row_with_negative_offset(self):
        # Zero length moves no data, so only the X_MPIIO row can object.
        _, mpi, handle = self._opened()
        with pytest.raises(ValueError, match="DXT offset/length"):
            mpi.collective_run(handle, "write", [[(0, -1, 0)]])

    def test_read_past_eof(self):
        _, mpi, handle = self._opened()
        with pytest.raises(FilesystemError, match="EOF"):
            mpi.independent_run(handle, "read", [(0, 0, 1)])
        with pytest.raises(FilesystemError, match="EOF"):
            mpi.collective_run(handle, "read", [[(0, 0, 1)]])

    def test_clock_moving_backward(self):
        _, mpi, handle = self._opened(ServerCosts(client_op_overhead=-1.0))
        with pytest.raises(SimulationError, match="backward"):
            mpi.independent_run(handle, "write", [(0, 0, 0)])

    def test_shuffle_moving_a_clock_backward(self):
        _, mpi, handle = self._opened(net_latency=-1.0)
        with pytest.raises(SimulationError, match="backward"):
            mpi.collective_run(handle, "write", [[(0, 0, 10)]])

    def test_dxt_row_ending_before_it_starts(self):
        # Too small a step back for the clock check, not for DXT's.
        _, mpi, handle = self._opened(ServerCosts(client_op_overhead=-1e-13))
        with pytest.raises(ValueError, match="ends before it starts"):
            mpi.independent_run(handle, "write", [(0, 0, 0)])

    def test_a_failed_independent_run_leaves_equal_length_columns(self):
        job, mpi, handle = self._opened()
        with pytest.raises(SimulationError, match="did not open"):
            mpi.independent_run(
                handle, "write", [(0, 0, 100), (1, 100, 100), (3, 0, 1)]
            )
        table = job.runtime.dxt
        assert {len(column) for column in table.columns()} == {4}
        assert [(s.module, s.rank) for s in table] == [
            ("X_POSIX", 0), ("X_MPIIO", 0), ("X_POSIX", 1), ("X_MPIIO", 1),
        ]

    def test_a_failed_collective_run_leaves_equal_length_columns(self):
        job, mpi, handle = self._opened(cb_nodes=1)
        steps = [[(0, 0, 100), (1, 100, 100)], [(0, 200, 100), (2, 0, 1)]]
        with pytest.raises(SimulationError, match="did not open"):
            mpi.collective_run(handle, "write", steps)
        table = job.runtime.dxt
        assert {len(column) for column in table.columns()} == {3}
        assert [(s.module, s.rank, s.length) for s in table] == [
            ("X_POSIX", 0, 200), ("X_MPIIO", 0, 100), ("X_MPIIO", 1, 100),
        ]
