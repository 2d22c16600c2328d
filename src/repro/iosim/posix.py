"""Per-rank POSIX I/O layer over the simulated filesystem.

Mirrors the syscall surface Darshan's POSIX module wraps: ``open``,
``read``/``write`` (cursor-based), ``pread``/``pwrite`` (positioned),
``lseek``, ``stat``, ``fsync``, ``close``.  Every call advances the
rank's clock by the cost the filesystem charges and reports the event
to the Darshan runtime.  A read or write is a run of one over the job's
data path (:mod:`repro.iosim.datapath`); a workload that issues a whole
phase submits it with :meth:`SimulatedJob.posix_run` instead.
"""

from __future__ import annotations

from repro.iosim.datapath import OpenFile, execute_run
from repro.iosim.job import SimulatedJob
from repro.lustre.filesystem import Inode
from repro.util.errors import FilesystemError


class PosixLayer:
    """POSIX syscalls for one rank of a simulated job."""

    def __init__(self, job: SimulatedJob, rank: int) -> None:
        if not 0 <= rank < job.nprocs:
            raise FilesystemError(f"rank {rank} out of range (nprocs={job.nprocs})")
        self.job = job
        self.rank = rank
        #: fd -> open file; the data path resolves fds here.
        self.files: dict[int, OpenFile] = {}
        self._next_fd = 3  # 0..2 are stdio, as on a real system

    # -- lifecycle ------------------------------------------------------

    def open(
        self,
        path: str,
        create: bool = True,
        stripe_size: int | None = None,
        stripe_count: int | None = None,
    ) -> int:
        """Open (optionally creating) a file; returns the fd."""
        start = self.job.now(self.rank)
        inode, completion = self.job.fs.open(
            path,
            start,
            create=create,
            stripe_size=stripe_size,
            stripe_count=stripe_count,
        )
        self.job.advance(self.rank, completion)
        self.job.runtime.open("POSIX", inode, self.rank, start, completion)
        fd = self._next_fd
        self._next_fd += 1
        self.files[fd] = OpenFile(inode=inode)
        return fd

    def close(self, fd: int) -> None:
        """Close an fd."""
        open_file = self._lookup(fd)
        start = self.job.now(self.rank)
        completion = self.job.fs.close(open_file.inode, start)
        self.job.advance(self.rank, completion)
        self.job.runtime.close("POSIX", open_file.inode, self.rank, start, completion)
        del self.files[fd]

    # -- data -----------------------------------------------------------

    def pwrite(self, fd: int, length: int, offset: int, mem_aligned: bool = True) -> int:
        """Positioned write; returns bytes written."""
        return self._io(fd, "write", offset, length, mem_aligned, advance_cursor=False)

    def pread(self, fd: int, length: int, offset: int, mem_aligned: bool = True) -> int:
        """Positioned read; returns bytes read."""
        return self._io(fd, "read", offset, length, mem_aligned, advance_cursor=False)

    def write(self, fd: int, length: int, mem_aligned: bool = True) -> int:
        """Cursor write at the current file position."""
        open_file = self._lookup(fd)
        return self._io(
            fd, "write", open_file.position, length, mem_aligned, advance_cursor=True
        )

    def read(self, fd: int, length: int, mem_aligned: bool = True) -> int:
        """Cursor read at the current file position."""
        open_file = self._lookup(fd)
        return self._io(
            fd, "read", open_file.position, length, mem_aligned, advance_cursor=True
        )

    # -- metadata ---------------------------------------------------------

    def lseek(self, fd: int, offset: int) -> int:
        """Reposition the cursor (counted as a seek by Darshan)."""
        open_file = self._lookup(fd)
        if offset < 0:
            raise FilesystemError(f"cannot seek to negative offset {offset}")
        start = self.job.now(self.rank)
        completion = start + self.job.fs.config.costs.client_op_overhead
        self.job.advance(self.rank, completion)
        self.job.runtime.meta(
            "POSIX", open_file.inode, self.rank, "seeks", start, completion
        )
        open_file.position = offset
        return offset

    def stat(self, path: str) -> None:
        """Stat a path (MDS round trip)."""
        start = self.job.now(self.rank)
        completion = self.job.fs.stat(path, start)
        self.job.advance(self.rank, completion)
        inode = self.job.fs.lookup(path)
        self.job.runtime.meta("POSIX", inode, self.rank, "stats", start, completion)

    def fsync(self, fd: int) -> None:
        """Flush a file (charged as one metadata round trip per OST)."""
        open_file = self._lookup(fd)
        start = self.job.now(self.rank)
        costs = self.job.fs.config.costs
        completion = start + costs.rpc_latency * open_file.inode.layout.stripe_count
        self.job.advance(self.rank, completion)
        self.job.runtime.meta(
            "POSIX", open_file.inode, self.rank, "fsyncs", start, completion
        )

    def tell(self, fd: int) -> int:
        """Current cursor position."""
        return self._lookup(fd).position

    def inode(self, fd: int) -> Inode:
        """The inode behind an fd (used by the MPI-IO layer)."""
        return self._lookup(fd).inode

    # -- internals --------------------------------------------------------

    def _lookup(self, fd: int) -> OpenFile:
        try:
            return self.files[fd]
        except KeyError:
            raise FilesystemError(f"bad file descriptor {fd} on rank {self.rank}") from None

    def _io(
        self,
        fd: int,
        operation: str,
        offset: int,
        length: int,
        mem_aligned: bool,
        advance_cursor: bool,
    ) -> int:
        execute_run(
            self.job.fs,
            self.job.runtime,
            operation,
            ((self.rank, fd, offset, length),),
            {self.rank: self.files},
            self.job.clocks,
            mem_aligned=mem_aligned,
            cursor=advance_cursor,
        )
        return length
