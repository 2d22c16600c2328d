"""OpenPMD trace replays (the paper's first real-application pair).

The paper analyzed Darshan traces of an openPMD-api writer on 384
ranks, in two versions:

- **Baseline** — an HDF5 bug made nominally-collective dataset writes
  execute as *individual*, small, misaligned MPI-IO operations on the
  shared ``8a_parallel_3Db_0000001.h5`` (≈98.8% of operations small,
  ~100% misaligned, ~64% of small writes to the main file, and mostly
  consecutive per rank — hence aggregatable in principle).
- **Optimized** — the HDF5 fix restores two-phase collective writes
  (large, aligned, aggregated), leaving only a modest population of
  small *random* reads whose per-rank count and data volume are low.

We regenerate both patterns with the documented proportions; absolute
counts scale with the ``scale`` parameter.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.ion.issues import IssueType, MitigationNote
from repro.iosim.job import SimulatedJob
from repro.lustre.filesystem import LustreConfig, LustreFilesystem
from repro.util.units import KIB, MIB
from repro.workloads.base import GroundTruth, TraceBundle, scaled

MAIN_FILE = "/lustre/run0/8a_parallel_3Db_0000001.h5"
AUX_FILE = "/lustre/run0/8a_parallel_3Db_0000001.h5.meta"

#: Odd base offset modelling the HDF5 superblock + object headers that
#: push dataset extents off stripe boundaries.
HEADER_OFFSET = 2144 + 929  # 3073 bytes, deliberately odd


@dataclass
class OpenPmdConfig:
    """Shape parameters for the OpenPMD replays."""

    nprocs: int = 384
    # Baseline per-rank op counts (chosen to land near the paper's
    # 275,840 reads / 427,386 writes and 64.38% main-file write share).
    writes_main_per_rank: int = 716
    writes_aux_per_rank: int = 397
    reads_per_rank: int = 718
    large_op_every: int = 82  # 1 in 82 ops is large -> ~98.8% small
    small_size: int = 6553  # odd small dataset piece
    large_size: int = 8 * MIB
    # Optimized-phase parameters.
    collective_rounds: int = 130
    collective_chunk: int = MIB
    random_reads_total: int = 565
    sequential_reads_total: int = 1038
    random_read_size: int = 4 * KIB
    random_reader_ranks: int = 64
    seed: int = 1167843


def _baseline_truth() -> GroundTruth:
    return GroundTruth.of(
        {IssueType.SMALL_IO, IssueType.MISALIGNED_IO, IssueType.NO_COLLECTIVE},
        {MitigationNote.AGGREGATABLE, MitigationNote.NON_OVERLAPPING},
        description=(
            "HDF5 bug turns collective writes into individual small, "
            "misaligned, independent operations on a shared file; per-rank "
            "regions stay disjoint and per-rank streams are consecutive."
        ),
    )


def _optimized_truth() -> GroundTruth:
    return GroundTruth.of(
        {IssueType.RANDOM_ACCESS},
        {MitigationNote.LOW_VOLUME},
        description=(
            "Collective writes restored; residual small random reads with "
            "low per-rank count and volume."
        ),
    )


@dataclass
class OpenPmdBaseline:
    """The buggy-HDF5 variant."""

    config: OpenPmdConfig = field(default_factory=OpenPmdConfig)
    name: str = "openpmd-baseline"
    fs_config: LustreConfig = field(default_factory=LustreConfig)

    def run(self, scale: float = 1.0) -> TraceBundle:
        """Replay the shattered-collective pattern."""
        cfg = self.config
        # Only the rank count scales; per-rank op counts are intrinsic to
        # the replayed pattern (shrinking them would collapse each rank's
        # region below a stripe and change the sharing geometry).
        nprocs = scaled(cfg.nprocs, scale, minimum=8)
        writes_main = cfg.writes_main_per_rank
        writes_aux = cfg.writes_aux_per_rank
        reads = cfg.reads_per_rank
        fs = LustreFilesystem(self.fs_config)
        job = SimulatedJob(
            nprocs=nprocs, fs=fs, executable="openpmd-write-benchmark",
            metadata={"workload": self.name},
        )
        mpi = job.mpiio()
        main = mpi.open(MAIN_FILE, stripe_count=8)
        aux = mpi.open(AUX_FILE, stripe_count=4)

        def op_size(index: int) -> int:
            return cfg.large_size if index % cfg.large_op_every == cfg.large_op_every - 1 else cfg.small_size

        # Per-rank contiguous regions past the odd header: every rank
        # streams small pieces consecutively, each one misaligned.
        rank_span_main = sum(op_size(i) for i in range(writes_main))
        rank_span_aux = cfg.small_size * writes_aux
        sizes_main = [op_size(i) for i in range(writes_main)]
        starts_main = [0] * writes_main
        acc = 0
        for i, size in enumerate(sizes_main):
            starts_main[i] = acc
            acc += size
        # Each loop below is one phase of independent calls, one run.
        mpi.independent_run(main, "write", (
            (rank, HEADER_OFFSET + rank * rank_span_main + starts_main[step],
             sizes_main[step])
            for step in range(writes_main)
            for rank in range(nprocs)
        ), mem_aligned=False)
        mpi.independent_run(aux, "write", (
            (rank, HEADER_OFFSET + rank * rank_span_aux + step * cfg.small_size,
             cfg.small_size)
            for step in range(writes_aux)
            for rank in range(nprocs)
        ), mem_aligned=False)
        job.barrier()
        # Read-back of the main file (verification pass the trace showed).
        mpi.independent_run(main, "read", (
            (rank,
             HEADER_OFFSET + rank * rank_span_main + starts_main[step % writes_main],
             sizes_main[step % writes_main])
            for step in range(reads)
            for rank in range(nprocs)
        ), mem_aligned=False)
        mpi.close(main)
        mpi.close(aux)
        log = job.finalize()
        return TraceBundle(
            name=self.name,
            log=log,
            truth=_baseline_truth(),
            parameters={"nprocs": nprocs, "writes_main": writes_main,
                        "writes_aux": writes_aux, "reads": reads},
        )


@dataclass
class OpenPmdOptimized:
    """The fixed-HDF5 variant."""

    config: OpenPmdConfig = field(default_factory=OpenPmdConfig)
    name: str = "openpmd-optimized"
    fs_config: LustreConfig = field(default_factory=LustreConfig)

    def run(self, scale: float = 1.0) -> TraceBundle:
        """Replay the restored-collective pattern."""
        cfg = self.config
        nprocs = scaled(cfg.nprocs, scale, minimum=8)
        # Rounds stay fixed: the write population already scales with
        # nprocs, so scaling rounds too would skew the small-op ratio.
        rounds = cfg.collective_rounds
        random_reads = scaled(cfg.random_reads_total, scale, minimum=16)
        seq_reads = scaled(cfg.sequential_reads_total, scale, minimum=16)
        reader_ranks = min(nprocs, scaled(cfg.random_reader_ranks, scale, minimum=4))
        fs = LustreFilesystem(self.fs_config)
        job = SimulatedJob(
            nprocs=nprocs, fs=fs, executable="openpmd-write-benchmark",
            metadata={"workload": self.name},
        )
        mpi = job.mpiio(cb_buffer_size=cfg.collective_chunk)
        main = mpi.open(MAIN_FILE, stripe_count=8)
        # Large aligned collective writes: each rank contributes one
        # chunk per round; the merged extent starts on a stripe
        # boundary because the fixed HDF5 aligns dataset allocations.
        chunk = cfg.collective_chunk
        mpi.collective_run(main, "write", (
            [
                (rank, round_index * nprocs * chunk + rank * chunk, chunk)
                for rank in range(nprocs)
            ]
            for round_index in range(rounds)
        ))
        job.barrier()
        # Residual small reads: a minority population, mostly random.
        rng = random.Random(cfg.seed)
        file_span = rounds * nprocs * chunk
        slots = max(1, file_span // cfg.random_read_size)
        size = cfg.random_read_size
        mpi.independent_run(main, "read", (
            (index % reader_ranks,
             min(rng.randrange(slots) * size + 1024, file_span - size),
             size)
            for index in range(random_reads)
        ))
        mpi.independent_run(main, "read", (
            (index % reader_ranks,
             (index // reader_ranks) * size + (index % reader_ranks) * 64 * size,
             size)
            for index in range(seq_reads)
        ))
        mpi.close(main)
        log = job.finalize()
        return TraceBundle(
            name=self.name,
            log=log,
            truth=_optimized_truth(),
            parameters={"nprocs": nprocs, "rounds": rounds,
                        "random_reads": random_reads, "seq_reads": seq_reads},
        )
