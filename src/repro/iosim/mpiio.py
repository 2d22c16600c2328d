"""Communicator-wide MPI-IO layer with ROMIO-style collective buffering.

Independent operations map one-to-one onto the caller's POSIX layer
(so, as with real Darshan, the same transfer appears in both the MPI-IO
and POSIX modules).  Collective operations implement two-phase I/O:

1. every rank enters (barrier),
2. data is shuffled between contributors and aggregators over the
   interconnect model,
3. contributions are coalesced into contiguous runs and carved into
   collective-buffer-sized chunks,
4. the chunks are dealt round-robin to ``cb_nodes`` aggregator ranks,
   which perform the actual POSIX transfers, and everyone leaves
   together (barrier).

A workload submits a whole phase of calls as one data-path run
(:mod:`repro.iosim.datapath`): :meth:`MpiIoLayer.independent_run` for
``write_at``/``read_at`` calls, :meth:`MpiIoLayer.collective_run` for
``write_at_all``/``read_at_all`` calls.  The per-call methods are runs
of one call or one step over the same code.

This is what makes "the fix" for the paper's OpenPMD/E2E pathologies
expressible: a collective write of many tiny per-rank pieces reaches
the filesystem as a few large aligned writes issued by a rank subset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from repro.iosim.datapath import MpiioRun, execute_run
from repro.iosim.job import SimulatedJob
from repro.lustre.filesystem import Inode
from repro.util.errors import SimulationError
from repro.util.units import GIB


class Contribution(NamedTuple):
    """One rank's share of a collective operation: ``(rank, offset, length)``."""

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
            self.job.runtime.open(
                "MPI-IO", inode, rank, start, self.job.now(rank),
                counter="coll_opens" if collective else "opens",
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
            start = self.job.now(rank)
            self.job.posix(rank).close(h.fds[rank])
            self.job.runtime.close("MPI-IO", h.inode, rank, start, self.job.now(rank))
        self.job.barrier(list(h.ranks))
        del self._handles[handle]

    def sync(self, handle: int) -> None:
        """MPI_File_sync on every rank."""
        h = self._lookup(handle)
        for rank in h.ranks:
            start = self.job.now(rank)
            self.job.posix(rank).fsync(h.fds[rank])
            self.job.runtime.meta(
                "MPI-IO", h.inode, rank, "syncs", start, self.job.now(rank)
            )

    # -- independent operations -----------------------------------------

    def write_at(
        self, handle: int, rank: int, offset: int, length: int,
        mem_aligned: bool = True, nonblocking: bool = False,
    ) -> None:
        """MPI_File_write_at (or iwrite when ``nonblocking``)."""
        self.independent_run(
            handle, "write", ((rank, offset, length),), mem_aligned, nonblocking
        )

    def read_at(
        self, handle: int, rank: int, offset: int, length: int,
        mem_aligned: bool = True, nonblocking: bool = False,
    ) -> None:
        """MPI_File_read_at (or iread when ``nonblocking``)."""
        self.independent_run(
            handle, "read", ((rank, offset, length),), mem_aligned, nonblocking
        )

    def independent_run(
        self,
        handle: int,
        operation: str,
        calls: Iterable[tuple[int, int, int]],
        mem_aligned: bool = True,
        nonblocking: bool = False,
    ) -> None:
        """A phase of ``write_at``/``read_at`` calls ``(rank, offset, length)``.

        The calls execute in the order given, exactly as the same calls
        one at a time would, but in one data-path run.
        """
        h = self._lookup(handle)
        flavor = "nb" if nonblocking else "indep"
        self._execute(
            operation, calls, MpiioRun(handle, h.inode, h.fds, flavor),
            mem_aligned,
        )

    # -- collective operations --------------------------------------------

    def write_at_all(
        self, handle: int, contributions: Sequence[Contribution]
    ) -> None:
        """MPI_File_write_at_all: two-phase collective write."""
        self.collective_run(handle, "write", (contributions,))

    def read_at_all(
        self, handle: int, contributions: Sequence[Contribution]
    ) -> None:
        """MPI_File_read_at_all: two-phase collective read."""
        self.collective_run(handle, "read", (contributions,))

    def collective_run(
        self,
        handle: int,
        operation: str,
        steps: Iterable[Sequence[tuple[int, int, int]]],
    ) -> None:
        """A phase of ``write_at_all``/``read_at_all`` calls.

        Each step is one call's contributions ``(rank, offset, length)``
        (a :class:`Contribution` is one).  A rank may contribute several
        extents in one call (a non-contiguous filetype); its single
        collective operation covers their combined length, anchored at
        the lowest offset.  Ranks that contribute nothing record a
        zero-length operation.
        """
        h = self._lookup(handle)
        layout = h.inode.layout
        count = self._cb_nodes or min(len(h.ranks), layout.stripe_count)
        count = max(1, min(count, len(h.ranks)))
        self._execute(
            operation, steps,
            MpiioRun(
                handle, h.inode, h.fds, "coll",
                members=h.ranks,
                aggregators=h.ranks[:count],
                cb_size=self._cb_buffer_size or max(layout.stripe_size, 1),
                net_latency=self._net_latency,
                net_bandwidth=self._net_bandwidth,
            ),
        )

    def _execute(
        self, operation: str, ops: Iterable, spec: MpiioRun,
        mem_aligned: bool = True,
    ) -> None:
        job = self.job
        execute_run(
            job.fs, job.runtime, operation, ops, job.fd_tables, job.clocks,
            mem_aligned=mem_aligned, mpiio=spec,
        )

    def _lookup(self, handle: int) -> _Handle:
        try:
            return self._handles[handle]
        except KeyError:
            raise SimulationError(f"bad MPI-IO handle {handle}") from None
