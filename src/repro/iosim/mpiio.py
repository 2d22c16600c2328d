"""Communicator-wide MPI-IO layer with ROMIO-style collective buffering.

Independent operations map one-to-one onto the caller's POSIX layer
(so, as with real Darshan, the same transfer appears in both the MPI-IO
and POSIX modules).  Collective operations implement two-phase I/O:

1. every rank enters (barrier),
2. contributions are coalesced into contiguous runs and carved into
   collective-buffer-sized, stripe-aligned chunks,
3. the chunks are dealt round-robin to ``cb_nodes`` aggregator ranks,
   which perform the actual POSIX transfers,
4. data is shuffled between contributors and aggregators over the
   interconnect model, and everyone leaves together (barrier).

This is what makes "the fix" for the paper's OpenPMD/E2E pathologies
expressible: a collective write of many tiny per-rank pieces reaches
the filesystem as a few large aligned writes issued by a rank subset.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import cycle

from repro.iosim.job import SimulatedJob
from repro.lustre.filesystem import Inode
from repro.util.errors import SimulationError
from repro.util.units import GIB


@dataclass(frozen=True)
class Contribution:
    """One rank's share of a collective operation."""

    rank: int
    offset: int
    length: int


@dataclass
class _Handle:
    inode: Inode
    ranks: tuple[int, ...]
    fds: dict[int, int]  # rank -> posix fd


class MpiIoLayer:
    """MPI-IO semantics for all ranks of a simulated job."""

    def __init__(
        self,
        job: SimulatedJob,
        cb_nodes: int | None = None,
        cb_buffer_size: int | None = None,
        net_latency: float = 5e-6,
        net_bandwidth: float = 12.0 * GIB,
    ) -> None:
        self.job = job
        self._cb_nodes = cb_nodes
        self._cb_buffer_size = cb_buffer_size
        self._net_latency = net_latency
        self._net_bandwidth = net_bandwidth
        self._handles: dict[int, _Handle] = {}
        self._next_handle = 1

    # -- lifecycle ------------------------------------------------------

    def open(
        self,
        path: str,
        ranks: list[int] | None = None,
        collective: bool = True,
        stripe_size: int | None = None,
        stripe_count: int | None = None,
    ) -> int:
        """Open a file on a set of ranks (default: the whole job)."""
        members = tuple(ranks if ranks is not None else range(self.job.nprocs))
        if not members:
            raise SimulationError("MPI-IO open needs at least one rank")
        if collective:
            self.job.barrier(list(members))
        fds: dict[int, int] = {}
        for rank in members:
            posix = self.job.posix(rank)
            start = self.job.now(rank)
            fds[rank] = posix.open(
                path, create=True, stripe_size=stripe_size, stripe_count=stripe_count
            )
            inode = posix.inode(fds[rank])
            self.job.runtime.mpiio_open(
                inode, rank, collective, start, self.job.now(rank)
            )
        if collective:
            self.job.barrier(list(members))
        handle = self._next_handle
        self._next_handle += 1
        self._handles[handle] = _Handle(inode=inode, ranks=members, fds=fds)
        return handle

    def close(self, handle: int) -> None:
        """Collectively close the file on every participating rank."""
        h = self._lookup(handle)
        self.job.barrier(list(h.ranks))
        for rank in h.ranks:
            posix = self.job.posix(rank)
            start = self.job.now(rank)
            inode = posix.inode(h.fds[rank])
            posix.close(h.fds[rank])
            self.job.runtime.mpiio_close(inode, rank, start, self.job.now(rank))
        self.job.barrier(list(h.ranks))
        del self._handles[handle]

    def sync(self, handle: int) -> None:
        """MPI_File_sync on every rank."""
        h = self._lookup(handle)
        for rank in h.ranks:
            posix = self.job.posix(rank)
            start = self.job.now(rank)
            posix.fsync(h.fds[rank])
            inode = posix.inode(h.fds[rank])
            self.job.runtime.mpiio_sync(inode, rank, start, self.job.now(rank))

    # -- independent operations -----------------------------------------

    def write_at(
        self, handle: int, rank: int, offset: int, length: int,
        mem_aligned: bool = True, nonblocking: bool = False,
    ) -> None:
        """MPI_File_write_at (or iwrite when ``nonblocking``)."""
        self._independent(handle, rank, "write", offset, length, mem_aligned, nonblocking)

    def read_at(
        self, handle: int, rank: int, offset: int, length: int,
        mem_aligned: bool = True, nonblocking: bool = False,
    ) -> None:
        """MPI_File_read_at (or iread when ``nonblocking``)."""
        self._independent(handle, rank, "read", offset, length, mem_aligned, nonblocking)

    def _independent(
        self,
        handle: int,
        rank: int,
        operation: str,
        offset: int,
        length: int,
        mem_aligned: bool,
        nonblocking: bool,
    ) -> None:
        h = self._lookup(handle)
        if rank not in h.fds:
            raise SimulationError(f"rank {rank} did not open handle {handle}")
        posix = self.job.posix(rank)
        start = self.job.now(rank)
        if operation == "write":
            posix.pwrite(h.fds[rank], length, offset, mem_aligned=mem_aligned)
        else:
            posix.pread(h.fds[rank], length, offset, mem_aligned=mem_aligned)
        flavor = "nb" if nonblocking else "indep"
        self.job.runtime.mpiio_io(
            h.inode, rank, flavor, operation, offset, length,
            start, self.job.now(rank),
        )

    # -- collective operations --------------------------------------------

    def write_at_all(
        self, handle: int, contributions: list[Contribution]
    ) -> None:
        """MPI_File_write_at_all: two-phase collective write."""
        self._collective(handle, "write", contributions)

    def read_at_all(
        self, handle: int, contributions: list[Contribution]
    ) -> None:
        """MPI_File_read_at_all: two-phase collective read."""
        self._collective(handle, "read", contributions)

    def _collective(
        self, handle: int, operation: str, contributions: list[Contribution]
    ) -> None:
        h = self._lookup(handle)
        # A rank may contribute several extents in one call (a
        # non-contiguous filetype); its single collective operation
        # covers their combined length, anchored at the lowest offset.
        by_rank: dict[int, tuple[int, int]] = {}
        for contribution in contributions:
            if contribution.rank not in h.fds:
                raise SimulationError(
                    f"rank {contribution.rank} did not open handle {handle}"
                )
            offset, length = by_rank.get(
                contribution.rank, (contribution.offset, 0)
            )
            by_rank[contribution.rank] = (
                min(offset, contribution.offset),
                length + contribution.length,
            )
        members = list(h.ranks)
        entry = self.job.barrier(members)

        aggregators = self._aggregators(h)
        chunks = self._plan_chunks(h, contributions)
        # Phase 1: shuffle data between contributors and aggregators.
        for contribution in contributions:
            cost = self._net_latency + contribution.length / self._net_bandwidth
            self.job.advance(
                contribution.rank, self.job.now(contribution.rank) + cost
            )
        # Phase 2: aggregators issue the filesystem transfers, as one run.
        self.job.posix_run(
            operation,
            (
                (rank, h.fds[rank], offset, length)
                for rank, (offset, length) in zip(cycle(aggregators), chunks)
            ),
        )
        exit_time = self.job.barrier(members)
        # Record the logical collective op on every participating rank.
        self.job.runtime.mpiio_fold(
            h.inode, "coll", operation,
            [(rank, *by_rank.get(rank, (0, 0))) for rank in members],
            entry, exit_time,
        )

    def _aggregators(self, h: _Handle) -> list[int]:
        default = min(len(h.ranks), h.inode.layout.stripe_count)
        count = self._cb_nodes or default
        count = max(1, min(count, len(h.ranks)))
        return list(h.ranks[:count])

    def _plan_chunks(
        self, h: _Handle, contributions: list[Contribution]
    ) -> list[tuple[int, int]]:
        """Coalesce contributions, then split on collective-buffer bounds."""
        if not contributions:
            return []
        cb_size = self._cb_buffer_size or max(h.inode.layout.stripe_size, 1)
        extents = sorted(
            (c.offset, c.length) for c in contributions if c.length > 0
        )
        runs: list[list[int]] = []
        for offset, length in extents:
            if runs and offset <= runs[-1][1]:
                runs[-1][1] = max(runs[-1][1], offset + length)
            else:
                runs.append([offset, offset + length])
        chunks: list[tuple[int, int]] = []
        # File domains are carved relative to the start of each merged
        # run (as ROMIO divides [min, max] among aggregators), so a run
        # that begins at an unaligned offset — e.g. past a netCDF
        # header — produces unaligned aggregator transfers.
        for run_start, run_end in runs:
            position = run_start
            while position < run_end:
                chunk_end = min(run_end, position + cb_size)
                chunks.append((position, chunk_end - position))
                position = chunk_end
        return chunks

    def _lookup(self, handle: int) -> _Handle:
        try:
            return self._handles[handle]
        except KeyError:
            raise SimulationError(f"bad MPI-IO handle {handle}") from None
