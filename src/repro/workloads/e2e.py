"""E2E domain-decomposition I/O kernel replays (second real-app pair).

The end-to-end (E2E) kernel writes a decomposed 3-D domain into one
netCDF-4 file (``3d_32_32_16_32_32_32.nc4``) on 1024 ranks:

- **Baseline** — netCDF wrote *fill values* for every dataset before it
  was overwritten, and that pre-fill is performed by rank 0 alone, so
  rank 0 moves ~1000x the bytes of any other rank (the paper reports a
  99.9% load imbalance and a 10x speedup from disabling it).  All
  extents sit past an odd-sized file header, so ~99.8% of operations
  are misaligned, and the domain writes also use unaligned memory
  buffers.
- **Optimized** — fill disabled; writes flow through two-phase
  collective buffering with 64 aggregator ranks, which therefore issue
  ~98.2% of the POSIX write operations (an *intentional*, algorithmic
  skew, not a bug); misalignment persists because the header offset
  does.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ion.issues import IssueType, MitigationNote
from repro.iosim.job import SimulatedJob
from repro.lustre.filesystem import LustreConfig, LustreFilesystem
from repro.util.units import KIB, MIB
from repro.workloads.base import GroundTruth, TraceBundle, scaled

E2E_FILE = "/lustre/e2e/3d_32_32_16_32_32_32.nc4"

#: netCDF-4 header size; odd on purpose so data extents never align.
NC4_HEADER = 2867


@dataclass
class E2eConfig:
    """Shape parameters for the E2E replays."""

    nprocs: int = 1024
    block_per_rank: int = MIB  # each rank's domain slab, per variable
    variables: int = 4  # decomposed variables written to the file
    writes_per_rank: int = 8  # baseline: each slab written in 8 pieces
    fill_chunk: int = MIB  # baseline: rank 0 pre-fill granularity
    aggregators: int = 64  # optimized: cb_nodes
    header_writes: int = 73  # rank-0 metadata writes
    header_write_size: int = 499


def _baseline_truth() -> GroundTruth:
    return GroundTruth.of(
        {
            IssueType.MISALIGNED_IO,
            IssueType.LOAD_IMBALANCE,
            IssueType.RANK_ZERO_BOTTLENECK,
            IssueType.NO_COLLECTIVE,
        },
        description=(
            "Fill values for subsequently-overwritten datasets are written "
            "entirely by rank 0, overwhelming it; all extents misaligned."
        ),
    )


def _optimized_truth() -> GroundTruth:
    return GroundTruth.of(
        {IssueType.MISALIGNED_IO},
        {MitigationNote.ALGORITHMIC_SKEW},
        description=(
            "Fill disabled; 64 aggregator ranks intentionally perform nearly "
            "all POSIX writes; misalignment persists."
        ),
    )


@dataclass
class E2eBaseline:
    """The fill-value (rank-0-bottlenecked) variant."""

    config: E2eConfig = field(default_factory=E2eConfig)
    name: str = "e2e-baseline"
    fs_config: LustreConfig = field(default_factory=LustreConfig)

    def run(self, scale: float = 1.0) -> TraceBundle:
        """Replay the pre-fill pathology."""
        cfg = self.config
        nprocs = scaled(cfg.nprocs, scale, minimum=8)
        writes_per_rank = max(2, cfg.writes_per_rank)
        fs = LustreFilesystem(self.fs_config)
        job = SimulatedJob(
            nprocs=nprocs, fs=fs, executable="e2e-io-kernel",
            metadata={"workload": self.name},
        )
        mpi = job.mpiio()
        handle = mpi.open(E2E_FILE, stripe_count=8)
        variable_span = nprocs * cfg.block_per_rank
        # Rank 0 writes fill values over every variable, alone — the
        # netCDF pre-fill pathology the paper's users disabled for a
        # 10x speedup.
        end = NC4_HEADER + cfg.variables * variable_span
        mpi.independent_run(handle, "write", (
            (0, position, min(cfg.fill_chunk, end - position))
            for position in range(NC4_HEADER, end, cfg.fill_chunk)
        ))
        # The enddef/sync barrier separates the pre-fill from the domain
        # writes, as netCDF's define/data mode switch does.
        job.barrier()
        # Every rank then overwrites its slab of each variable in small
        # unaligned pieces.
        piece = cfg.block_per_rank // writes_per_rank
        mpi.independent_run(handle, "write", (
            (rank,
             NC4_HEADER + variable * variable_span + rank * cfg.block_per_rank
             + step * piece,
             piece)
            for variable in range(cfg.variables)
            for step in range(writes_per_rank)
            for rank in range(nprocs)
        ), mem_aligned=False)
        mpi.close(handle)
        log = job.finalize()
        return TraceBundle(
            name=self.name,
            log=log,
            truth=_baseline_truth(),
            parameters={"nprocs": nprocs, "writes_per_rank": writes_per_rank,
                        "block_per_rank": cfg.block_per_rank,
                        "variables": cfg.variables},
        )


@dataclass
class E2eOptimized:
    """The fill-disabled, collectively-buffered variant."""

    config: E2eConfig = field(default_factory=E2eConfig)
    name: str = "e2e-optimized"
    fs_config: LustreConfig = field(default_factory=LustreConfig)

    def run(self, scale: float = 1.0) -> TraceBundle:
        """Replay the optimized pattern (aggregator-skewed by design)."""
        cfg = self.config
        nprocs = scaled(cfg.nprocs, scale, minimum=8)
        aggregators = min(nprocs, scaled(cfg.aggregators, scale, minimum=2))
        header_writes = scaled(cfg.header_writes, scale, minimum=4)
        fs = LustreFilesystem(self.fs_config)
        job = SimulatedJob(
            nprocs=nprocs, fs=fs, executable="e2e-io-kernel",
            metadata={"workload": self.name},
        )
        mpi = job.mpiio(cb_nodes=aggregators)
        handle = mpi.open(E2E_FILE, stripe_count=8)
        # Rank 0 writes the header/metadata in small odd pieces.
        mpi.independent_run(handle, "write", (
            (0, 37 + index * cfg.header_write_size, cfg.header_write_size)
            for index in range(header_writes)
        ))
        # The same domain as the baseline — one collective write per
        # variable, no pre-fill — lands on disk through the aggregators.
        slab = cfg.block_per_rank
        mpi.collective_run(handle, "write", (
            [
                (rank, NC4_HEADER + variable * nprocs * slab + rank * slab, slab)
                for rank in range(nprocs)
            ]
            for variable in range(cfg.variables)
        ))
        mpi.close(handle)
        log = job.finalize()
        return TraceBundle(
            name=self.name,
            log=log,
            truth=_optimized_truth(),
            parameters={"nprocs": nprocs, "aggregators": aggregators,
                        "variables": cfg.variables},
        )
