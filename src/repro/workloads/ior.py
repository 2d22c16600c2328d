"""IOR-style benchmark workloads (the IO500 building block).

Three access modes cover the paper's Figure 2 configurations:

- ``easy``: each rank owns a contiguous region (segmented layout) and
  streams through it consecutively — either in a single shared file or
  file-per-process.  Issues injected: small transfers (when configured),
  misalignment (when the transfer size does not divide the stripe), and
  POSIX-only multi-rank I/O.
- ``hard``: all ranks interleave odd-sized transfers into one shared
  file with a rank-strided layout (IOR's 47008-byte default) — small,
  misaligned, non-aggregatable, lock-contended.
- ``random``: a deterministic pseudo-random permutation of fixed-size
  slots in a shared file — small, misaligned, random.

Every run performs a write phase then a read-back phase, like IOR.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Sequence

from repro.ion.issues import IssueType, MitigationNote
from repro.iosim.job import SimulatedJob
from repro.lustre.filesystem import LustreConfig, LustreFilesystem
from repro.util.errors import WorkloadConfigError
from repro.util.units import MIB, parse_size
from repro.workloads.base import GroundTruth, TraceBundle, scaled

#: IOR's default "hard" transfer size: deliberately odd (47008 bytes).
IOR_HARD_TRANSFER = 47008


@dataclass
class IorConfig:
    """Parameters mirroring the IOR command line options we exercise."""

    mode: str = "easy"  # easy | hard | random
    api: str = "POSIX"  # POSIX | MPIIO
    nprocs: int = 4
    transfer_size: int | str = MIB
    #: When set, every ``minor_every``-th operation uses this size
    #: instead (models applications mixing bulk data with small
    #: bookkeeping records); produces fractional small-I/O ratios.
    minor_transfer_size: int | str | None = None
    minor_every: int = 4
    segments: int = 1024  # ops per rank per phase
    file_per_process: bool = False
    collective: bool = False
    read_back: bool = True
    mem_aligned: bool = True
    stripe_size: int = MIB
    stripe_count: int = 4
    file_name: str = "/lustre/ior_file"
    seed: int = 20240708

    def __post_init__(self) -> None:
        self.transfer_size = parse_size(self.transfer_size)
        if self.minor_transfer_size is not None:
            self.minor_transfer_size = parse_size(self.minor_transfer_size)
            if self.minor_every < 2:
                raise WorkloadConfigError("minor_every must be at least 2")
            if self.mode != "easy":
                raise WorkloadConfigError(
                    "mixed transfer sizes are an easy-mode feature"
                )
        if self.mode not in ("easy", "hard", "random"):
            raise WorkloadConfigError(f"unknown IOR mode {self.mode!r}")
        if self.api not in ("POSIX", "MPIIO"):
            raise WorkloadConfigError(f"unknown IOR api {self.api!r}")
        if self.mode != "easy" and self.file_per_process:
            raise WorkloadConfigError(f"{self.mode} mode requires a shared file")
        if self.collective and self.api != "MPIIO":
            raise WorkloadConfigError("collective I/O requires the MPIIO api")
        if self.nprocs <= 0 or self.segments <= 0 or self.transfer_size <= 0:
            raise WorkloadConfigError("nprocs, segments, transfer_size must be > 0")


@dataclass
class IorWorkload:
    """One IOR run; see :class:`IorConfig` for the knobs."""

    config: IorConfig
    name: str = "ior"
    truth: GroundTruth | None = None
    fs_config: LustreConfig = field(default_factory=LustreConfig)

    def run(self, scale: float = 1.0) -> TraceBundle:
        """Execute the configured IOR pattern and return its trace."""
        cfg = self.config
        segments = scaled(cfg.segments, scale, minimum=8)
        fs = LustreFilesystem(self.fs_config)
        job = SimulatedJob(
            nprocs=cfg.nprocs,
            fs=fs,
            executable=f"ior-{cfg.mode}",
            metadata={"workload": self.name, "api": cfg.api, "mode": cfg.mode},
        )
        offsets, sizes = self._plan(segments)
        if cfg.api == "POSIX":
            self._run_posix(job, offsets, sizes)
        else:
            self._run_mpiio(job, offsets, sizes)
        log = job.finalize()
        truth = self.truth or self._default_truth()
        return TraceBundle(
            name=self.name,
            log=log,
            truth=truth,
            parameters={
                "mode": cfg.mode,
                "api": cfg.api,
                "nprocs": cfg.nprocs,
                "transfer_size": cfg.transfer_size,
                "segments": segments,
                "file_per_process": cfg.file_per_process,
                "collective": cfg.collective,
            },
        )

    # -- access plans ----------------------------------------------------

    def _segment_sizes(self, segments: int) -> list[int]:
        """Per-segment transfer sizes (uniform unless mixed-mode)."""
        cfg = self.config
        if cfg.minor_transfer_size is None:
            return [cfg.transfer_size] * segments
        return [
            cfg.minor_transfer_size
            if (index + 1) % cfg.minor_every == 0
            else cfg.transfer_size
            for index in range(segments)
        ]

    def _plan(self, segments: int) -> tuple[list[Sequence[int]], list[int]]:
        """Per-rank offsets, one per segment, and the segment sizes.

        Every rank moves the same sizes in the same order.  The hard
        layout's offsets are ``range`` objects, so even its full-scale
        plan costs no memory per operation.
        """
        cfg = self.config
        ts = cfg.transfer_size
        sizes = self._segment_sizes(segments)
        if cfg.mode == "easy":
            starts = list(accumulate(sizes, initial=0))
            block = starts.pop()
            if cfg.file_per_process:
                return [starts] * cfg.nprocs, sizes
            return [
                [rank * block + start for start in starts]
                for rank in range(cfg.nprocs)
            ], sizes
        if cfg.mode == "hard":
            stride = cfg.nprocs * ts
            return [
                range(rank * ts, rank * ts + segments * stride, stride)
                for rank in range(cfg.nprocs)
            ], sizes
        # random: one shared pool of slots, dealt to ranks, then shuffled
        # per rank with a deterministic seed.
        rng = random.Random(cfg.seed)
        total_slots = segments * cfg.nprocs
        slots = list(range(total_slots))
        rng.shuffle(slots)
        return [
            [slot * ts for slot in slots[rank * segments : (rank + 1) * segments]]
            for rank in range(cfg.nprocs)
        ], sizes

    # -- execution ---------------------------------------------------------

    def _paths(self) -> list[str]:
        cfg = self.config
        if cfg.file_per_process:
            return [f"{cfg.file_name}.{rank:08d}" for rank in range(cfg.nprocs)]
        return [cfg.file_name] * cfg.nprocs

    def _run_posix(
        self, job: SimulatedJob, offsets: list[Sequence[int]], sizes: list[int]
    ) -> None:
        cfg = self.config
        paths = self._paths()
        fds = {}
        for rank in range(cfg.nprocs):
            fds[rank] = job.posix(rank).open(
                paths[rank],
                stripe_size=cfg.stripe_size,
                stripe_count=cfg.stripe_count,
            )

        # Each phase is one data-path run, issued step-major like IOR.
        def phase():
            for step, size in enumerate(sizes):
                for rank in range(cfg.nprocs):
                    yield rank, fds[rank], offsets[rank][step], size

        job.posix_run("write", phase(), mem_aligned=cfg.mem_aligned)
        job.barrier()
        if cfg.read_back:
            job.posix_run("read", phase(), mem_aligned=cfg.mem_aligned)
        for rank in range(cfg.nprocs):
            job.posix(rank).close(fds[rank])

    def _run_mpiio(
        self, job: SimulatedJob, offsets: list[Sequence[int]], sizes: list[int]
    ) -> None:
        cfg = self.config
        ranks = range(cfg.nprocs)
        mpi = job.mpiio()
        if cfg.file_per_process:
            raise WorkloadConfigError("MPIIO IOR runs use a shared file here")
        handle = mpi.open(
            cfg.file_name,
            stripe_size=cfg.stripe_size,
            stripe_count=cfg.stripe_count,
        )
        # Each phase is one data-path run: one collective call per step,
        # or every rank's independent call per step.
        for operation in ("write", "read") if cfg.read_back else ("write",):
            if cfg.collective:
                mpi.collective_run(handle, operation, (
                    [(rank, offsets[rank][step], size) for rank in ranks]
                    for step, size in enumerate(sizes)
                ))
            else:
                mpi.independent_run(handle, operation, (
                    (rank, offsets[rank][step], size)
                    for step, size in enumerate(sizes)
                    for rank in ranks
                ), mem_aligned=cfg.mem_aligned)
        mpi.close(handle)

    # -- labels -------------------------------------------------------------

    def _default_truth(self) -> GroundTruth:
        """Derive ground-truth labels from the configuration itself."""
        cfg = self.config
        issues: set[IssueType] = set()
        mitigations: set[MitigationNote] = set()
        sizes = [cfg.transfer_size]
        if cfg.minor_transfer_size is not None:
            sizes.append(cfg.minor_transfer_size)
        small = any(size < self.fs_config.rpc_size for size in sizes)
        if small:
            issues.add(IssueType.SMALL_IO)
        if any(size % cfg.stripe_size != 0 for size in sizes):
            issues.add(IssueType.MISALIGNED_IO)
        if cfg.api == "POSIX" and cfg.nprocs > 1:
            issues.add(IssueType.NO_MPIIO)
        if cfg.api == "MPIIO" and not cfg.collective:
            issues.add(IssueType.NO_COLLECTIVE)
        if cfg.mode == "easy" and small:
            mitigations.add(MitigationNote.AGGREGATABLE)
        if cfg.mode == "easy" and not cfg.file_per_process:
            mitigations.add(MitigationNote.NON_OVERLAPPING)
        if cfg.mode == "hard":
            issues.add(IssueType.SHARED_FILE_CONTENTION)
        if cfg.mode == "random":
            issues.add(IssueType.RANDOM_ACCESS)
            if not cfg.file_per_process:
                # Random slots interleave every rank within the same
                # stripes of the shared file.
                issues.add(IssueType.SHARED_FILE_CONTENTION)
        return GroundTruth.of(issues, mitigations, description=f"IOR {cfg.mode}")
