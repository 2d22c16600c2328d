"""PERF2 — I/O simulator throughput.

Measures simulated operations per second for the three layer types the
workloads exercise, for the same POSIX stream submitted as one
data-path run, and for an openPMD-shaped phase of independent MPI-IO
calls submitted as one run, so the per-call and the run-level costs
both stay visible (the collective rounds use the per-call API).  These are sanity benchmarks for the substrate: a regression
here makes paper-scale regeneration impractical.
"""

from __future__ import annotations

from repro.iosim.job import SimulatedJob
from repro.iosim.mpiio import Contribution
from repro.util.units import KIB, MIB

OPS = 2000


def run_posix_stream():
    job = SimulatedJob(nprocs=4)
    fds = {}
    for rank in range(4):
        fds[rank] = job.posix(rank).open("/lustre/bench")
    for step in range(OPS // 4):
        for rank in range(4):
            job.posix(rank).pwrite(
                fds[rank], 4 * KIB, (step * 4 + rank) * 4 * KIB
            )
    for rank in range(4):
        job.posix(rank).close(fds[rank])
    return job.finalize()


def run_posix_run():
    """The stream of :func:`run_posix_stream` as one data-path run."""
    job = SimulatedJob(nprocs=4)
    fds = {}
    for rank in range(4):
        fds[rank] = job.posix(rank).open("/lustre/bench")
    job.posix_run(
        "write",
        (
            (rank, fds[rank], (step * 4 + rank) * 4 * KIB, 4 * KIB)
            for step in range(OPS // 4)
            for rank in range(4)
        ),
    )
    for rank in range(4):
        job.posix(rank).close(fds[rank])
    return job.finalize()


def run_independent_mpiio(as_run: bool = True):
    """openPMD's shape: small unaligned ``write_at`` calls across ranks.

    Each rank streams 6553-byte pieces past an odd header into its own
    region; the phase is one independent run, or one call at a time.
    """
    job = SimulatedJob(nprocs=8)
    mpi = job.mpiio()
    handle = mpi.open("/lustre/indep", stripe_count=8)
    piece, header = 6553, 3073
    span = OPS // 8 * piece
    calls = [
        (rank, header + rank * span + step * piece, piece)
        for step in range(OPS // 8)
        for rank in range(8)
    ]
    if as_run:
        mpi.independent_run(handle, "write", calls, mem_aligned=False)
    else:
        for rank, offset, length in calls:
            mpi.write_at(handle, rank, offset, length, mem_aligned=False)
    mpi.close(handle)
    return job.finalize()


def run_collective_rounds():
    job = SimulatedJob(nprocs=16)
    mpi = job.mpiio()
    handle = mpi.open("/lustre/coll", stripe_count=4)
    for round_index in range(OPS // 16):
        base = round_index * 16 * 256 * KIB
        mpi.write_at_all(
            handle,
            [Contribution(rank, base + rank * 256 * KIB, 256 * KIB)
             for rank in range(16)],
        )
    mpi.close(handle)
    return job.finalize()


def run_metadata_churn():
    job = SimulatedJob(nprocs=2)
    for iteration in range(OPS // 8):
        for rank in range(2):
            posix = job.posix(rank)
            path = f"/lustre/meta/rank{rank}/obj{iteration % 16}"
            fd = posix.open(path)
            posix.pwrite(fd, 4000, 0)
            posix.close(fd)
    return job.finalize()


def test_posix_ops_per_second(benchmark):
    log = benchmark(run_posix_stream)
    assert len(log.dxt_segments) == OPS


def test_posix_run_ops_per_second(benchmark):
    log = benchmark(run_posix_run)
    assert len(log.dxt_segments) == OPS
    assert log.dxt == run_posix_stream().dxt


def test_independent_mpiio_ops_per_second(benchmark):
    log = benchmark(run_independent_mpiio)
    assert len(log.dxt_segments) == 2 * OPS
    assert log.dxt == run_independent_mpiio(as_run=False).dxt


def test_collective_rounds_per_second(benchmark):
    log = benchmark(run_collective_rounds)
    assert log.records_for("MPI-IO")


def test_metadata_ops_per_second(benchmark):
    log = benchmark(run_metadata_churn)
    assert log.records_for("POSIX")
