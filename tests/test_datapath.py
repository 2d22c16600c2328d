"""The data path: a run equals the same ops issued one by one.

``SimulatedJob.posix_run`` executes a run of POSIX reads or writes in
one frame; ``PosixLayer.pread``/``pwrite`` execute runs of one.  The
property tests pin that both give byte-identical logs, and that both
equal a reference model of the per-op algorithm written here from the
job's primitives; the check tests pin that every check of the per-op
path still fires in a run.
"""

from __future__ import annotations

from itertools import groupby

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.darshan.binformat import write_log
from repro.iosim.job import SimulatedJob
from repro.lustre.filesystem import LustreConfig, LustreFilesystem
from repro.lustre.locks import StripeLock
from repro.lustre.ost import ServerCosts
from repro.util.errors import FilesystemError, SimulationError
from repro.util.units import KIB, MIB

NPROCS = 3
STRIPE = 4 * KIB
#: Each file starts this long, so reads below it never pass EOF.
PREFIX = 8 * STRIPE
PATHS = ("/lustre/run/shared-a", "/lustre/run/shared-b", "/lustre/run/other")


def _job(
    costs: ServerCosts | None = None, layouts=(), rpc_size: int = 4 * MIB
) -> tuple[SimulatedJob, list[dict]]:
    """A job whose every rank opened every file (small 4 KiB stripes).

    ``layouts`` gives files their own ``(stripe_size, stripe_count)``.
    """
    config = LustreConfig(
        ost_count=4, default_stripe_size=STRIPE, default_stripe_count=3,
        rpc_size=rpc_size, costs=costs or ServerCosts(),
    )
    job = SimulatedJob(nprocs=NPROCS, fs=LustreFilesystem(config))
    fds = []
    for rank in range(NPROCS):
        fds.append({})
        for index, path in enumerate(PATHS):
            size, count = layouts[index] if index < len(layouts) else (None, None)
            fds[rank][index] = job.posix(rank).open(
                path, stripe_size=size, stripe_count=count
            )
    return job, fds


def _issue(job, fds, stream, mode: str) -> None:
    """Execute ``stream`` as runs, op by op, or by the reference model."""
    if mode == "runs":
        key = lambda op: (op[0], op[5])  # noqa: E731 - (operation, mem_aligned)
        for (operation, mem_aligned), ops in groupby(stream, key=key):
            job.posix_run(
                operation,
                ((rank, fds[rank][file], offset, length)
                 for _, rank, file, offset, length, _ in ops),
                mem_aligned=mem_aligned,
            )
        return
    for operation, rank, file, offset, length, mem_aligned in stream:
        if mode == "model":
            _model_op(job, operation, rank, fds[rank][file], offset, length, mem_aligned)
            continue
        posix = job.posix(rank)
        call = posix.pwrite if operation == "write" else posix.pread
        call(fds[rank][file], length, offset, mem_aligned=mem_aligned)


def _trace(stream, mode: str, tmp_path, layouts=(), rpc_size: int = 4 * MIB) -> bytes:
    """The log bytes of ``stream`` after every file got its prefix."""
    job, fds = _job(layouts=layouts, rpc_size=rpc_size)
    prefixes = [("write", 0, index, 0, PREFIX, True) for index in range(len(PATHS))]
    _issue(job, fds, prefixes + list(stream), mode)
    for rank in range(NPROCS):
        for fd in fds[rank].values():
            job.posix(rank).close(fd)
    path = write_log(job.finalize(), tmp_path / f"{mode}.darshan")
    return path.read_bytes()


# A reference model of the per-op POSIX algorithm, written with the
# job's fd tables and clocks, the layouts, the OST FIFOs
# (``Server.serve``), the stripe lock tables and the runtime's records
# and DXT table only.  It shares no arithmetic with ``execute_run``.


def _model_op(job, operation, rank, fd, offset, length, mem_aligned) -> None:
    fs = job.fs
    costs = fs.config.costs
    inode = job.fd_tables[rank][fd].inode
    layout = inode.layout
    arrival = job.now(rank)
    start = arrival + costs.client_op_overhead
    if not mem_aligned:
        start += costs.mem_copy_penalty
    completion = start
    end = offset + length
    # Stripes proceed in parallel across OSTs; the op completes when
    # its slowest chunk does.
    for stripe in layout.stripes_touched(offset, length):
        low = max(offset, stripe * layout.stripe_size)
        high = min(end, (stripe + 1) * layout.stripe_size)
        server = fs.osts.servers[layout.ost_for(low)]
        revoked = _model_lock(fs, inode.file_id, stripe, rank, operation)
        ready = start
        if revoked:
            ready = server.serve(start, revoked * costs.lock_revocation)
        rpcs = (high - low + fs.config.rpc_size - 1) // fs.config.rpc_size
        service = rpcs * costs.rpc_latency + (high - low) / costs.ost_bandwidth
        if server.last_end_offset.get(inode.file_id) != low:
            service += costs.seek_penalty
        server.last_end_offset[inode.file_id] = high
        completion = max(completion, server.serve(ready, service))
    if operation == "write":
        inode.size = max(inode.size, end)
    job.advance(rank, completion)
    _model_record(
        job, inode, rank, operation, offset, length, mem_aligned, arrival,
        completion,
    )


def _model_lock(fs, file_id, stripe, rank, operation) -> int:
    """Take one stripe's lock for ``rank``; return the holders displaced.

    Reads share and writes are exclusive: a write displaces another
    writer and every other reader, a read displaces another writer.
    """
    lock = fs.locks.table(file_id).setdefault(stripe, StripeLock())
    revoked = int(lock.writer not in (None, rank))
    if operation == "write":
        revoked += len(lock.readers - {rank})
        lock.readers.clear()
        lock.writer = rank
    else:
        if revoked:
            lock.writer = None
        lock.readers.add(rank)
    return revoked


def _model_record(
    job, inode, rank, operation, offset, length, mem_aligned, start, end
) -> None:
    """Fold the op into its Darshan POSIX record and append its DXT row."""
    record = job.runtime.record("POSIX", inode, rank)
    if record.last_op and record.last_op != operation:
        record.rw_switches += 1
    record.last_op = operation
    phase = record.write if operation == "write" else record.read
    # "Consecutive" starts where the previous access ended, "sequential"
    # at no lower an offset than the previous access started.
    if record.next_offset >= 0:
        phase.consec += offset == record.next_offset
        phase.seq += offset >= record.last_offset
    record.last_offset = offset
    record.next_offset = offset + length
    record.file_not_aligned += offset % job.fs.config.file_alignment != 0
    record.mem_not_aligned += not mem_aligned
    record.accesses.add(length)
    phase.add(offset, length, start, end)
    job.runtime.dxt.append(
        "X_POSIX", inode.file_id, rank, operation, offset, length, start, end
    )


_op = st.tuples(
    st.sampled_from(["write", "read"]),
    st.integers(0, NPROCS - 1),
    st.integers(0, len(PATHS) - 1),
    # Offsets are unaligned and lengths cross stripe boundaries; reads
    # stay inside the prefix every file starts with.
    st.integers(0, PREFIX - 3 * STRIPE),
    st.one_of(st.just(0), st.integers(1, 3 * STRIPE)),
    st.booleans(),
)


class TestRunEqualsOps:
    @settings(max_examples=60, deadline=None)
    @given(stream=st.lists(_op, max_size=40))
    def test_one_run_or_op_by_op_give_identical_logs(self, stream, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("runs")
        assert _trace(stream, "runs", tmp_path) == _trace(stream, "ops", tmp_path)

    def test_a_phase_interleaving_ranks_on_one_file(self, tmp_path):
        stream = [
            (operation, rank, 0, (step * NPROCS + rank) * 3000, 3000, True)
            for operation in ("write", "read")
            for step in range(4)
            for rank in range(NPROCS)
        ]
        runs = _trace(stream, "runs", tmp_path)
        assert runs == _trace(stream, "ops", tmp_path)
        assert runs == _trace(stream, "model", tmp_path)


# Overlapping writers are the common case: offsets cluster on a few
# stripe boundaries and just past them.
_clustered_op = st.tuples(
    st.sampled_from(["write", "read"]),
    st.integers(0, NPROCS - 1),
    st.integers(0, len(PATHS) - 1),
    st.one_of(
        st.integers(0, PREFIX - 3 * STRIPE),
        st.sampled_from([0, 100, STRIPE, STRIPE + 100, 2 * STRIPE]),
    ),
    st.one_of(st.just(0), st.integers(1, 3 * STRIPE)),
    st.booleans(),
)
#: Per-file (stripe size, stripe count): stripes smaller, equal and
#: larger than the default, over one to all four OSTs.
_layouts = st.lists(
    st.tuples(st.sampled_from([1000, STRIPE, 3 * STRIPE]), st.integers(1, 4)),
    min_size=len(PATHS), max_size=len(PATHS),
)
#: RPCs smaller than a stripe split each chunk into several.
_rpc_sizes = st.sampled_from([1500, STRIPE, 4 * MIB])


def _check_runs_match_the_model(stream, layouts, rpc_size, tmp_path) -> None:
    runs = _trace(stream, "runs", tmp_path, layouts, rpc_size)
    assert runs == _trace(stream, "model", tmp_path, layouts, rpc_size)


class TestRunsMatchTheModel:
    @settings(max_examples=40, deadline=None)
    @given(
        stream=st.lists(st.one_of(_op, _clustered_op), max_size=30),
        layouts=_layouts,
        rpc_size=_rpc_sizes,
    )
    def test_runs_match_the_reference_model(
        self, stream, layouts, rpc_size, tmp_path_factory
    ):
        _check_runs_match_the_model(
            stream, layouts, rpc_size, tmp_path_factory.mktemp("model")
        )

    @pytest.mark.slow
    @settings(max_examples=600, deadline=None)
    @given(
        stream=st.lists(st.one_of(_op, _clustered_op), max_size=60),
        layouts=_layouts,
        rpc_size=_rpc_sizes,
    )
    def test_runs_match_the_model_many_examples(
        self, stream, layouts, rpc_size, tmp_path_factory
    ):
        _check_runs_match_the_model(
            stream, layouts, rpc_size, tmp_path_factory.mktemp("model")
        )

    def test_read_modify_write_across_ranks(self, tmp_path):
        """Each rank reads a stripe, rewrites it, re-reads a neighbour's
        and appends to another file: shared and displaced locks,
        repeated offsets, contiguous and unaligned accesses, unaligned
        buffers."""
        stream = []
        for step in range(3):
            for rank in range(NPROCS):
                base = rank * STRIPE
                stream += [
                    ("read", rank, 0, base, STRIPE, True),
                    ("write", rank, 0, base, STRIPE, step % 2 == 0),
                    ("write", rank, 0, base + STRIPE // 2, STRIPE, True),
                    ("read", rank, 0, (base + STRIPE) % PREFIX, 100, False),
                    ("read", rank, 0, (base + STRIPE) % PREFIX, 100, False),
                    ("write", rank, 1, base, 100, True),
                    ("write", rank, 1, base + 100, 100, True),
                ]
        _check_runs_match_the_model(stream, [(STRIPE, 2)] * len(PATHS), 1500, tmp_path)


class TestRunChecks:
    """Each check of the per-op path, raised from inside a run."""

    def test_negative_length(self):
        job, fds = _job()
        with pytest.raises(FilesystemError, match="non-negative"):
            job.posix_run("write", [(0, fds[0][0], 0, -1)])

    def test_negative_offset(self):
        job, fds = _job()
        with pytest.raises(ValueError, match="non-negative"):
            job.posix_run("write", [(0, fds[0][0], -1, 10)])

    def test_bad_fd(self):
        job, _ = _job()
        with pytest.raises(FilesystemError, match="bad file descriptor 99"):
            job.posix_run("write", [(1, 99, 0, 10)])

    def test_bad_operation(self):
        job, fds = _job()
        with pytest.raises(FilesystemError, match="bad operation"):
            job.posix_run("append", [(0, fds[0][0], 0, 10)])

    def test_read_past_eof(self):
        job, fds = _job()
        with pytest.raises(FilesystemError, match="EOF"):
            job.posix_run("read", [(0, fds[0][0], 0, 1)])

    def test_clock_moving_backward(self):
        job, fds = _job(ServerCosts(client_op_overhead=-1.0))
        with pytest.raises(SimulationError, match="backward"):
            job.posix_run("write", [(0, fds[0][0], 0, 0)])

    def test_dxt_row_ending_before_it_starts(self):
        # Too small a step back for the clock check, not for DXT's.
        job, fds = _job(ServerCosts(client_op_overhead=-1e-13))
        with pytest.raises(ValueError, match="ends before it starts"):
            job.posix_run("write", [(0, fds[0][0], 0, 0)])

    def test_a_failed_run_keeps_the_ops_before_the_failure(self):
        job, fds = _job()
        ops = [(0, fds[0][0], 0, 100), (1, fds[1][0], 100, 100), (2, 99, 0, 1)]
        with pytest.raises(FilesystemError, match="bad file descriptor"):
            job.posix_run("write", ops)
        table = job.runtime.dxt
        assert {len(column) for column in table.columns()} == {2}
        assert [segment.rank for segment in table] == [0, 1]
        assert job.fs.lookup(PATHS[0]).size == 200
