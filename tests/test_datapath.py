"""The data path: a run equals the same ops issued one by one.

``SimulatedJob.posix_run`` executes a run of POSIX reads or writes in
one frame; ``PosixLayer.pread``/``pwrite`` execute runs of one.  The
property test pins that both give byte-identical logs, and the check
tests pin that every check of the per-op path still fires in a run.
"""

from __future__ import annotations

from itertools import groupby

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.darshan.binformat import write_log
from repro.iosim.job import SimulatedJob
from repro.lustre.filesystem import LustreConfig, LustreFilesystem
from repro.lustre.ost import ServerCosts
from repro.util.errors import FilesystemError, SimulationError
from repro.util.units import KIB

NPROCS = 3
STRIPE = 4 * KIB
#: Each file starts this long, so reads below it never pass EOF.
PREFIX = 8 * STRIPE
PATHS = ("/lustre/run/shared-a", "/lustre/run/shared-b", "/lustre/run/other")


def _job(costs: ServerCosts | None = None) -> tuple[SimulatedJob, list[dict]]:
    """A job whose every rank opened every file (small 4 KiB stripes)."""
    config = LustreConfig(
        ost_count=4, default_stripe_size=STRIPE, default_stripe_count=3,
        costs=costs or ServerCosts(),
    )
    job = SimulatedJob(nprocs=NPROCS, fs=LustreFilesystem(config))
    fds = [
        {index: job.posix(rank).open(path) for index, path in enumerate(PATHS)}
        for rank in range(NPROCS)
    ]
    return job, fds


def _trace(stream, as_runs: bool, tmp_path) -> bytes:
    job, fds = _job()
    for index in range(len(PATHS)):
        job.posix(0).pwrite(fds[0][index], PREFIX, 0)
    if as_runs:
        key = lambda op: (op[0], op[5])  # noqa: E731 - (operation, mem_aligned)
        for (operation, mem_aligned), ops in groupby(stream, key=key):
            job.posix_run(
                operation,
                ((rank, fds[rank][file], offset, length)
                 for _, rank, file, offset, length, _ in ops),
                mem_aligned=mem_aligned,
            )
    else:
        for operation, rank, file, offset, length, mem_aligned in stream:
            posix = job.posix(rank)
            call = posix.pwrite if operation == "write" else posix.pread
            call(fds[rank][file], length, offset, mem_aligned=mem_aligned)
    for rank in range(NPROCS):
        for fd in fds[rank].values():
            job.posix(rank).close(fd)
    path = write_log(job.finalize(), tmp_path / f"runs-{as_runs}.darshan")
    return path.read_bytes()


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
        assert _trace(stream, True, tmp_path) == _trace(stream, False, tmp_path)

    def test_a_phase_interleaving_ranks_on_one_file(self, tmp_path):
        stream = [
            (operation, rank, 0, (step * NPROCS + rank) * 3000, 3000, True)
            for operation in ("write", "read")
            for step in range(4)
            for rank in range(NPROCS)
        ]
        assert _trace(stream, True, tmp_path) == _trace(stream, False, tmp_path)


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
