"""The simulated MPI job: rank clocks, barriers, and layer factories.

A :class:`SimulatedJob` owns one Lustre filesystem, one Darshan
runtime, and a wall clock per rank.  Workloads obtain
per-rank POSIX or STDIO layers (or the communicator-wide MPI-IO layer)
from it, drive them in SPMD style — or submit a whole phase of POSIX
reads or writes across ranks with :meth:`posix_run` — and call
:meth:`finalize` to obtain the trace.
"""

from __future__ import annotations

from typing import Iterable

from repro.iosim.datapath import execute_run
from repro.iosim.runtime import DarshanRuntime
from repro.lustre.filesystem import LustreConfig, LustreFilesystem
from repro.util.errors import SimulationError


class SimulatedJob:
    """One parallel application run against the simulated I/O stack."""

    def __init__(
        self,
        nprocs: int,
        fs: LustreFilesystem | None = None,
        executable: str = "simulated_app",
        enable_dxt: bool = True,
        metadata: dict[str, str] | None = None,
    ) -> None:
        if nprocs <= 0:
            raise SimulationError(f"nprocs must be positive, got {nprocs}")
        self.nprocs = nprocs
        self.fs = fs or LustreFilesystem(LustreConfig())
        self.runtime = DarshanRuntime(
            fs=self.fs,
            nprocs=nprocs,
            executable=executable,
            enable_dxt=enable_dxt,
            metadata=metadata,
        )
        self.clocks = [0.0] * nprocs
        self._finalized = False
        # Layers are created lazily and cached so MPI-IO can reuse the
        # same POSIX layer (and its fd table) as direct POSIX callers.
        self._posix_layers: dict[int, object] = {}
        #: rank -> its POSIX fd table; the data path resolves fds here.
        self.fd_tables: dict[int, dict] = {}
        self._stdio_layers: dict[int, object] = {}

    # -- clock management ----------------------------------------------

    def now(self, rank: int) -> float:
        """Current wall-clock time of one rank."""
        return self.clocks[rank]

    def advance(self, rank: int, until: float) -> None:
        """Move one rank's clock forward (never backward)."""
        if until < self.clocks[rank] - 1e-12:
            raise SimulationError(
                f"clock for rank {rank} would move backward "
                f"({self.clocks[rank]} -> {until})"
            )
        self.clocks[rank] = max(self.clocks[rank], until)

    def compute(self, rank: int, seconds: float) -> None:
        """Model non-I/O computation on one rank."""
        if seconds < 0:
            raise SimulationError("compute time must be non-negative")
        self.clocks[rank] += seconds

    def barrier(self, ranks: list[int] | None = None) -> float:
        """Synchronize ranks to the latest clock among them."""
        members = ranks if ranks is not None else range(self.nprocs)
        latest = max(self.clocks[rank] for rank in members)
        for rank in members:
            self.clocks[rank] = latest
        return latest

    # -- layer factories -------------------------------------------------

    def posix(self, rank: int):
        """Per-rank POSIX layer (cached)."""
        layer = self._posix_layers.get(rank)
        if layer is None:
            from repro.iosim.posix import PosixLayer

            layer = self._posix_layers[rank] = PosixLayer(self, rank)
            self.fd_tables[rank] = layer.files
        return layer

    def stdio(self, rank: int):
        """Per-rank STDIO layer (cached)."""
        layer = self._stdio_layers.get(rank)
        if layer is None:
            from repro.iosim.stdio import StdioLayer

            layer = self._stdio_layers[rank] = StdioLayer(self, rank)
        return layer

    def posix_run(
        self,
        operation: str,
        ops: Iterable[tuple[int, int, int, int]],
        mem_aligned: bool = True,
    ) -> None:
        """Positioned POSIX reads or writes ``(rank, fd, offset, length)``.

        The ops execute in the order given, exactly as the same calls to
        ``posix(rank).pread``/``pwrite`` would, but in one data-path run.
        Each fd must be open in ``posix(rank)``.
        """
        execute_run(
            self.fs, self.runtime, operation, ops, self.fd_tables, self.clocks,
            mem_aligned=mem_aligned,
        )

    def mpiio(self, **kwargs):
        """Communicator-wide MPI-IO layer (a new one per call)."""
        from repro.iosim.mpiio import MpiIoLayer

        return MpiIoLayer(self, **kwargs)

    # -- trace emission ---------------------------------------------------

    def finalize(self):
        """Close out the job and emit its DarshanLog (idempotent guard)."""
        if self._finalized:
            raise SimulationError("job already finalized")
        self._finalized = True
        end_time = max(self.clocks) if self.clocks else 0.0
        return self.runtime.finalize(start_time=0.0, end_time=end_time)
