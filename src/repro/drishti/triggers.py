"""The Drishti trigger set: ~30 heuristic checks over Darshan counters.

Faithful to the structure of Drishti (Bez et al., PDSW'22): each
trigger compares counter aggregates against a fixed threshold from
:mod:`repro.drishti.thresholds` and yields a severity-tagged insight
with a canned recommendation.  Triggers never look at DXT data and
never weigh mitigating context — both deliberate fidelity points the
ION comparison depends on.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple

from repro.darshan.log import DarshanLog
from repro.darshan.records import SHARED_RANK
from repro.drishti.insights import Insight, Level
from repro.drishti.thresholds import Thresholds
from repro.ion.issues import IssueType
from repro.util.stats import SIZE_BIN_EDGES, SIZE_BIN_LABELS
from repro.util.units import format_count, format_percent, format_size


@dataclass
class _FileStats:
    path: str = ""
    small_reads: int = 0
    small_writes: int = 0
    #: Every rank with a record of the file, with the bytes it moved.
    bytes_by_rank: dict[int, int] = field(default_factory=dict)


@dataclass
class JobView:
    """One-pass aggregation of a log for the trigger functions."""

    nprocs: int = 0
    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    max_byte_read: int = 0
    max_byte_written: int = 0
    small_reads: int = 0
    small_writes: int = 0
    seq_reads: int = 0
    seq_writes: int = 0
    rw_switches: int = 0
    mem_not_aligned: int = 0
    file_not_aligned: int = 0
    opens: int = 0
    stats: int = 0
    meta_time_by_rank: dict[int, float] = field(default_factory=dict)
    bytes_by_rank: dict[int, int] = field(default_factory=dict)
    time_by_rank: dict[int, float] = field(default_factory=dict)
    files: dict[int, _FileStats] = field(default_factory=dict)
    common_accesses: dict[int, int] = field(default_factory=dict)
    stdio_bytes: int = 0
    mpiio_indep: int = 0
    mpiio_coll: int = 0
    mpiio_nb: int = 0
    mpiio_shared_files: int = 0
    stripe_widths: list[int] = field(default_factory=list)
    stripe_sizes: list[int] = field(default_factory=list)
    file_rank_records: int = 0

    @property
    def total_ops(self) -> int:
        return self.reads + self.writes

    @property
    def total_bytes(self) -> int:
        return self.bytes_read + self.bytes_written

    @property
    def shared_files(self) -> list[_FileStats]:
        return [f for f in self.files.values() if len(f.bytes_by_rank) > 1]

    @property
    def uses_mpiio(self) -> bool:
        return (self.mpiio_indep + self.mpiio_coll + self.mpiio_nb) > 0


def _small_ops(record, direction: str, small_size: int) -> int:
    count = 0
    for label, edge in zip(SIZE_BIN_LABELS, SIZE_BIN_EDGES):
        if edge > small_size:
            break
        count += record.counters[f"POSIX_SIZE_{direction}_{label}"]
    return count


def _add(totals: dict, key: int, value: int | float) -> None:
    totals[key] = totals.get(key, 0) + value


def build_view(log: DarshanLog, thresholds: Thresholds) -> JobView:
    """Aggregate a log into the counters the triggers consume."""
    view = JobView(nprocs=log.job.nprocs)
    for record in log.records.get("POSIX", []):
        if record.rank == SHARED_RANK:
            continue
        c = record.counters
        f = record.fcounters
        view.reads += c["POSIX_READS"]
        view.writes += c["POSIX_WRITES"]
        view.bytes_read += c["POSIX_BYTES_READ"]
        view.bytes_written += c["POSIX_BYTES_WRITTEN"]
        view.max_byte_read = max(view.max_byte_read, c["POSIX_MAX_BYTE_READ"])
        view.max_byte_written = max(
            view.max_byte_written, c["POSIX_MAX_BYTE_WRITTEN"]
        )
        small_r = _small_ops(record, "READ", thresholds.small_request_size)
        small_w = _small_ops(record, "WRITE", thresholds.small_request_size)
        view.small_reads += small_r
        view.small_writes += small_w
        view.seq_reads += c["POSIX_SEQ_READS"]
        view.seq_writes += c["POSIX_SEQ_WRITES"]
        view.rw_switches += c["POSIX_RW_SWITCHES"]
        view.mem_not_aligned += c["POSIX_MEM_NOT_ALIGNED"]
        view.file_not_aligned += c["POSIX_FILE_NOT_ALIGNED"]
        view.opens += c["POSIX_OPENS"]
        view.file_rank_records += 1
        view.stats += c["POSIX_STATS"]
        rank_bytes = c["POSIX_BYTES_READ"] + c["POSIX_BYTES_WRITTEN"]
        rank_time = f["POSIX_F_READ_TIME"] + f["POSIX_F_WRITE_TIME"] + f[
            "POSIX_F_META_TIME"
        ]
        _add(view.bytes_by_rank, record.rank, rank_bytes)
        _add(view.time_by_rank, record.rank, rank_time)
        _add(view.meta_time_by_rank, record.rank, f["POSIX_F_META_TIME"])
        stats = view.files.setdefault(record.record_id, _FileStats())
        stats.path = log.path_for(record.record_id)
        stats.small_reads += small_r
        stats.small_writes += small_w
        _add(stats.bytes_by_rank, record.rank, rank_bytes)
        for slot in range(1, 5):
            count = c[f"POSIX_ACCESS{slot}_COUNT"]
            if count:
                _add(view.common_accesses, c[f"POSIX_ACCESS{slot}_ACCESS"], count)
    for record in log.records.get("STDIO", []):
        c = record.counters
        view.stdio_bytes += c["STDIO_BYTES_READ"] + c["STDIO_BYTES_WRITTEN"]
    mpiio_ranks: dict[int, set[int]] = defaultdict(set)
    for record in log.records.get("MPI-IO", []):
        c = record.counters
        view.mpiio_indep += c["MPIIO_INDEP_READS"] + c["MPIIO_INDEP_WRITES"]
        view.mpiio_coll += c["MPIIO_COLL_READS"] + c["MPIIO_COLL_WRITES"]
        view.mpiio_nb += c["MPIIO_NB_READS"] + c["MPIIO_NB_WRITES"]
        if record.rank != SHARED_RANK:
            mpiio_ranks[record.record_id].add(record.rank)
    view.mpiio_shared_files = sum(
        1 for ranks in mpiio_ranks.values() if len(ranks) > 1
    )
    for record in log.records.get("LUSTRE", []):
        view.stripe_widths.append(record.counters["LUSTRE_STRIPE_WIDTH"])
        view.stripe_sizes.append(record.counters["LUSTRE_STRIPE_SIZE"])
    return view


Trigger = Callable[[JobView, Thresholds], Iterable[Insight]]
_TRIGGERS: list[Trigger] = []


def _trigger(func: Trigger) -> Trigger:
    _TRIGGERS.append(func)
    return func


def all_triggers() -> list[Trigger]:
    """Every registered trigger, in report order."""
    return list(_TRIGGERS)


def _ratio(part: int | float, whole: int | float) -> float:
    return part / whole if whole else 0.0


class _Direction(NamedTuple):
    """One row of the table the read/write trigger pairs share.

    ``ops`` to ``max_byte`` name JobView fields: the op count, the small
    and the sequential ops, the bytes moved and the highest byte
    touched.  ``codes`` are the small, redundant, random and sequential
    insight codes.
    """

    word: str
    ops: str
    small: str
    seq: str
    moved: str
    max_byte: str
    past: str  # the redundant-traffic message's verb
    codes: tuple[str, str, str, str]
    reorder: str  # the tail of the random-access recommendation
    redundant_remedy: str


_READ = _Direction(
    "read", "reads", "small_reads", "seq_reads", "bytes_read", "max_byte_read",
    "read", ("POSIX-01", "POSIX-07", "POSIX-09", "POSIX-10"),
    "reads or using collective I/O to convert random accesses into "
    "sequential ones",
    "Cache re-read data in memory where possible",
)
_WRITE = _Direction(
    "write", "writes", "small_writes", "seq_writes", "bytes_written",
    "max_byte_written", "wrote", ("POSIX-02", "POSIX-08", "POSIX-11", "POSIX-12"),
    "writes or using collective buffering",
    "Avoid rewriting the same extents repeatedly",
)


def _paired(check, direction: _Direction, name: str) -> Trigger:
    """Register one direction of a read/write pair as trigger ``name``."""

    def trigger(view: JobView, t: Thresholds) -> Iterable[Insight]:
        return check(direction, view, t)

    trigger.__name__ = trigger.__qualname__ = name
    return _trigger(trigger)


# -- operation count and size triggers (POSIX-01..08) -----------------------


def _small_requests(d: _Direction, view: JobView, t: Thresholds) -> Iterable[Insight]:
    ops, small = getattr(view, d.ops), getattr(view, d.small)
    ratio = _ratio(small, ops)
    if ops and ratio > t.small_requests_ratio:
        yield Insight(
            code=d.codes[0],
            level=Level.HIGH,
            issue=IssueType.SMALL_IO,
            message=(
                f"Application issues a high number "
                f"({format_count(small)}) of small {d.word} requests "
                f"(i.e., < {format_size(t.small_request_size)}) "
                f"({format_percent(ratio)} of all {d.ops})"
            ),
            recommendation=(
                f"Consider buffering {d.word} requests into larger, contiguous "
                f"operations or using MPI-IO collective {d.ops}"
            ),
        )
    elif ops:
        yield Insight(
            code=d.codes[0],
            level=Level.OK,
            message=(
                f"Small {d.word} requests are within bounds "
                f"({format_percent(ratio)} of {d.ops})"
            ),
        )


small_reads = _paired(_small_requests, _READ, "small_reads")
small_writes = _paired(_small_requests, _WRITE, "small_writes")


@_trigger
def small_requests_to_shared(view: JobView, t: Thresholds) -> Iterable[Insight]:
    for stats in view.shared_files:
        total_small = view.small_reads + view.small_writes
        file_small = stats.small_reads + stats.small_writes
        share = _ratio(file_small, total_small)
        if total_small and share > 0.5 and file_small:
            yield Insight(
                code="POSIX-03",
                level=Level.INFO,
                issue=IssueType.SMALL_IO,
                message=(
                    f"({format_percent(share)}) small requests are to "
                    f"\"{stats.path}\""
                ),
            )


@_trigger
def common_small_accesses(view: JobView, t: Thresholds) -> Iterable[Insight]:
    ranked = sorted(view.common_accesses.items(), key=lambda kv: -kv[1])[:4]
    small = [
        (size, count) for size, count in ranked if size < t.small_request_size
    ]
    if small and _ratio(
        sum(count for _, count in small), view.total_ops
    ) > t.small_requests_ratio:
        details = tuple(
            f"access size {format_size(size)} used {format_count(count)} times"
            for size, count in small
        )
        yield Insight(
            code="POSIX-04",
            level=Level.INFO,
            issue=IssueType.SMALL_IO,
            message="The most common access sizes are small",
            details=details,
        )


@_trigger
def misaligned_file(view: JobView, t: Thresholds) -> Iterable[Insight]:
    ratio = _ratio(view.file_not_aligned, view.total_ops)
    if view.total_ops and ratio > t.misaligned_ratio:
        yield Insight(
            code="POSIX-05",
            level=Level.HIGH,
            issue=IssueType.MISALIGNED_IO,
            message=(
                f"Application issues a high number ({format_percent(ratio)}) "
                "of misaligned file requests"
            ),
            recommendation=(
                "Align requests with the file system stripe boundaries "
                "(e.g. via H5Pset_alignment or stripe-aligned data layouts)"
            ),
        )
    elif view.total_ops:
        yield Insight(
            code="POSIX-05",
            level=Level.OK,
            message=(
                f"File requests are aligned ({format_percent(ratio)} "
                "misaligned)"
            ),
        )


@_trigger
def misaligned_memory(view: JobView, t: Thresholds) -> Iterable[Insight]:
    ratio = _ratio(view.mem_not_aligned, view.total_ops)
    if view.total_ops and ratio > t.misaligned_ratio:
        yield Insight(
            code="POSIX-06",
            level=Level.WARN,
            issue=IssueType.MISALIGNED_IO,
            message=(
                f"Application issues a high number ({format_percent(ratio)}) "
                "of misaligned memory requests"
            ),
            recommendation="Allocate I/O buffers on page boundaries",
        )


def _redundant_traffic(
    d: _Direction, view: JobView, t: Thresholds
) -> Iterable[Insight]:
    moved, span = getattr(view, d.moved), getattr(view, d.max_byte) + 1
    if moved and span and moved / span > t.redundant_ratio:
        yield Insight(
            code=d.codes[1],
            level=Level.WARN,
            message=(
                f"Application might have redundant {d.word} traffic ({d.past} "
                f"{format_size(moved)} against a file span of "
                f"{format_size(span)})"
            ),
            recommendation=d.redundant_remedy,
        )


redundant_reads = _paired(_redundant_traffic, _READ, "redundant_reads")
redundant_writes = _paired(_redundant_traffic, _WRITE, "redundant_writes")


# -- access pattern triggers (POSIX-09..12) -----------------------------------


def _random_access(d: _Direction, view: JobView, t: Thresholds) -> Iterable[Insight]:
    ops, seq = getattr(view, d.ops), getattr(view, d.seq)
    random_ops = max(0, ops - seq)
    ratio = _ratio(random_ops, ops)
    if ops and ratio > t.random_ratio:
        yield Insight(
            code=d.codes[2],
            level=Level.HIGH,
            issue=IssueType.RANDOM_ACCESS,
            message=(
                f"Application is issuing a high number "
                f"({format_count(random_ops)}) of random {d.word} operations "
                f"({format_percent(ratio)})"
            ),
            recommendation=f"Consider reordering {d.reorder}",
        )
    elif ops and _ratio(seq, ops) >= t.sequential_ratio:
        yield Insight(
            code=d.codes[3],
            level=Level.OK,
            message=(
                f"Application mostly uses sequential {d.word} requests "
                f"({format_percent(_ratio(seq, ops))})"
            ),
        )


random_reads = _paired(_random_access, _READ, "random_reads")
random_writes = _paired(_random_access, _WRITE, "random_writes")


@_trigger
def rw_interleaving(view: JobView, t: Thresholds) -> Iterable[Insight]:
    ratio = _ratio(view.rw_switches, view.total_ops)
    if view.total_ops and ratio > t.rw_switches_ratio:
        yield Insight(
            code="POSIX-13",
            level=Level.WARN,
            message=(
                f"Application alternates between read and write operations "
                f"({format_percent(ratio)} of accesses switch direction)"
            ),
            recommendation="Separate read and write phases where possible",
        )


# -- imbalance triggers (POSIX-14..17) -------------------------------------------


@_trigger
def shared_file_imbalance(view: JobView, t: Thresholds) -> Iterable[Insight]:
    for stats in view.shared_files:
        values = list(stats.bytes_by_rank.values())
        peak = max(values)
        if not peak:
            continue
        imbalance = (peak - min(values)) / peak
        if imbalance > t.shared_imbalance_ratio:
            yield Insight(
                code="POSIX-14",
                level=Level.HIGH,
                issue=IssueType.LOAD_IMBALANCE,
                message=(
                    f"Load imbalance of {format_percent(imbalance)} detected "
                    f"while accessing \"{stats.path}\""
                ),
                recommendation=(
                    "Rebalance the data distribution or use collective "
                    "aggregation so ranks move comparable volumes"
                ),
            )


def _imbalance(by_rank: dict[int, int] | dict[int, float]) -> float:
    """(peak - mean) / peak over ranks; 0 with under two ranks or no peak."""
    values = list(by_rank.values())
    peak = max(values, default=0)
    if len(values) < 2 or not peak:
        return 0.0
    return (peak - sum(values) / len(values)) / peak


@_trigger
def data_imbalance(view: JobView, t: Thresholds) -> Iterable[Insight]:
    imbalance = _imbalance(view.bytes_by_rank)
    if imbalance > t.data_imbalance_ratio:
        yield Insight(
            code="POSIX-15",
            level=Level.WARN,
            issue=IssueType.LOAD_IMBALANCE,
            message=(
                f"Data transfer imbalance of {format_percent(imbalance)} "
                "across ranks"
            ),
            recommendation="Distribute I/O volume evenly across ranks",
        )


@_trigger
def straggler_time(view: JobView, t: Thresholds) -> Iterable[Insight]:
    imbalance = _imbalance(view.time_by_rank)
    if imbalance > max(t.time_imbalance_ratio, t.data_imbalance_ratio):
        yield Insight(
            code="POSIX-16",
            level=Level.WARN,
            issue=IssueType.LOAD_IMBALANCE,
            message=(
                f"I/O time imbalance of {format_percent(imbalance)} across "
                "ranks (stragglers detected)"
            ),
            recommendation="Investigate slow ranks for serialization",
        )


@_trigger
def metadata_time(view: JobView, t: Thresholds) -> Iterable[Insight]:
    slow = {
        rank: seconds
        for rank, seconds in view.meta_time_by_rank.items()
        if seconds > t.metadata_time_rank
    }
    if slow:
        worst = max(slow.values())
        yield Insight(
            code="POSIX-17",
            level=Level.HIGH,
            issue=IssueType.METADATA_LOAD,
            message=(
                f"{len(slow)} rank(s) spend more than "
                f"{t.metadata_time_rank:.0f}s in metadata operations "
                f"(worst: {worst:.1f}s)"
            ),
            recommendation="Reduce open/close and stat frequency",
        )


@_trigger
def metadata_churn(view: JobView, t: Thresholds) -> Iterable[Insight]:
    if not view.file_rank_records:
        return
    # Churn per (file, rank) record: a shared file legitimately sees one
    # open per rank, which is not churn.
    churn = view.opens / view.file_rank_records
    if churn > t.opens_per_file:
        yield Insight(
            code="POSIX-18",
            level=Level.WARN,
            issue=IssueType.METADATA_LOAD,
            message=(
                f"Files are reopened frequently ({churn:.1f} opens per file "
                f"per rank across {format_count(len(view.files))} files, "
                f"{format_count(view.stats)} stat calls)"
            ),
            recommendation=(
                "Keep files open across iterations and avoid per-iteration "
                "stat calls"
            ),
        )


# -- interface-level triggers (MPIIO-01..05, STDIO-01) -----------------------------


@_trigger
def posix_only(view: JobView, t: Thresholds) -> Iterable[Insight]:
    multi_rank = len(view.bytes_by_rank) > 1
    if view.total_ops and multi_rank and not view.uses_mpiio:
        yield Insight(
            code="MPIIO-01",
            level=Level.WARN,
            issue=IssueType.NO_MPIIO,
            message=(
                "Application uses low-level POSIX calls from "
                f"{len(view.bytes_by_rank)} ranks without MPI-IO"
            ),
            recommendation=(
                "Port the I/O to MPI-IO or a high-level library (HDF5, "
                "PnetCDF) to enable collective optimizations"
            ),
        )


@_trigger
def no_collective_operations(view: JobView, t: Thresholds) -> Iterable[Insight]:
    independent = view.mpiio_indep + view.mpiio_nb
    if not view.uses_mpiio:
        return
    if view.mpiio_coll == 0 and independent and view.mpiio_shared_files:
        ratio = _ratio(independent, independent + view.mpiio_coll)
        if ratio > t.collective_ratio:
            yield Insight(
                code="MPIIO-02",
                level=Level.HIGH,
                issue=IssueType.NO_COLLECTIVE,
                message=(
                    f"Application uses MPI-IO but issues "
                    f"{format_count(independent)} independent operations and "
                    "no collective operations on shared files"
                ),
                recommendation=(
                    "Use collective I/O calls (e.g. MPI_File_write_at_all) "
                    "to enable two-phase aggregation"
                ),
            )
    elif view.mpiio_coll:
        yield Insight(
            code="MPIIO-02",
            level=Level.OK,
            message=(
                f"Application uses collective MPI-IO operations "
                f"({format_count(view.mpiio_coll)} collective calls)"
            ),
        )


@_trigger
def no_nonblocking(view: JobView, t: Thresholds) -> Iterable[Insight]:
    if view.uses_mpiio and view.mpiio_nb == 0:
        yield Insight(
            code="MPIIO-03",
            level=Level.INFO,
            message=(
                "Application does not use non-blocking (asynchronous) "
                "MPI-IO operations"
            ),
            recommendation=(
                "Consider MPI_File_iwrite/iread variants to overlap I/O "
                "with computation"
            ),
        )


@_trigger
def stdio_usage(view: JobView, t: Thresholds) -> Iterable[Insight]:
    total = view.total_bytes + view.stdio_bytes
    ratio = _ratio(view.stdio_bytes, total)
    if total and ratio > t.stdio_ratio:
        yield Insight(
            code="STDIO-01",
            level=Level.WARN,
            message=(
                f"Application moves {format_percent(ratio)} of its data "
                "through buffered STDIO streams"
            ),
            recommendation=(
                "Use POSIX or MPI-IO for bulk data to avoid double "
                "buffering"
            ),
        )


# -- Lustre triggers (LUSTRE-01..02) ----------------------------------------------


@_trigger
def narrow_striping(view: JobView, t: Thresholds) -> Iterable[Insight]:
    if not view.stripe_widths or not view.shared_files:
        return
    width = max(view.stripe_widths)
    active_ranks = len(view.bytes_by_rank)
    if width < min(4, active_ranks) and view.total_bytes > 64 * 1024 * 1024:
        yield Insight(
            code="LUSTRE-01",
            level=Level.INFO,
            message=(
                f"Shared files are striped over only {width} OST(s) while "
                f"{active_ranks} ranks perform I/O"
            ),
            recommendation="Increase the stripe count (lfs setstripe -c)",
        )


@_trigger
def stripe_size_mismatch(view: JobView, t: Thresholds) -> Iterable[Insight]:
    if not view.stripe_sizes or not view.common_accesses:
        return
    stripe = max(view.stripe_sizes)
    top_size, top_count = max(
        view.common_accesses.items(), key=lambda kv: kv[1]
    )
    if top_size > 0 and stripe % top_size != 0 and top_size % stripe != 0:
        yield Insight(
            code="LUSTRE-02",
            level=Level.INFO,
            message=(
                f"The dominant access size ({format_size(top_size)}) does "
                f"not divide the stripe size ({format_size(stripe)})"
            ),
            recommendation=(
                "Match transfer sizes to the stripe size or adjust the "
                "stripe size to the application's block size"
            ),
        )
