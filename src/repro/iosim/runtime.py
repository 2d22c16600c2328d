"""Darshan instrumentation runtime for the simulator.

The I/O layers (:mod:`repro.iosim.posix`, ``mpiio``, ``stdio``) report
every operation here; the runtime folds the stream into per-(module,
file, rank) counter accumulators and optional DXT segments, exactly the
way the real Darshan runtime wraps libc/MPI calls.  One table maps each
module to its ``{(file_id, rank): accumulator}`` records; the data path
folds reads and writes into :meth:`DarshanRuntime.record`, and the
``open``, ``close`` and ``meta`` hooks take the module and the counter
they bump.  At job end, :meth:`DarshanRuntime.finalize` emits a
complete :class:`DarshanLog`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from repro.darshan.counters import LUSTRE_MAX_OSTS
from repro.darshan.log import DarshanLog
from repro.darshan.records import DxtTable, JobRecord, ModuleRecord, NameRecord
from repro.lustre.filesystem import Inode, LustreConfig, LustreFilesystem
from repro.util.stats import SIZE_BIN_LABELS, CommonValueTracker, size_bin_index


@dataclass
class _IoPhase:
    """Shared accumulation for one direction (read or write)."""

    ops: int = 0
    bytes_moved: int = 0
    max_byte: int = -1
    consec: int = 0
    seq: int = 0
    total_time: float = 0.0
    max_time: float = 0.0
    start_ts: float = 0.0
    end_ts: float = 0.0
    bins: list[int] = field(default_factory=lambda: [0] * len(SIZE_BIN_LABELS))

    def add(self, offset: int, length: int, start: float, end: float) -> None:
        """Fold one operation in (the data path calls this per op)."""
        if self.ops == 0:
            self.start_ts = start
        if end > self.end_ts:
            self.end_ts = end
        self.ops += 1
        self.bytes_moved += length
        if length and offset + length - 1 > self.max_byte:
            self.max_byte = offset + length - 1
        duration = end - start
        self.total_time += duration
        if duration > self.max_time:
            self.max_time = duration
        self.bins[size_bin_index(length)] += 1


@dataclass
class _Accumulator:
    """What every (module, file, rank) record in flight keeps.

    Each module's subclass returns its own counters from ``counters``.
    """

    read: _IoPhase = field(default_factory=_IoPhase)
    write: _IoPhase = field(default_factory=_IoPhase)
    opens: int = 0
    meta_time: float = 0.0
    open_start_ts: float = 0.0
    open_end_ts: float = 0.0
    close_start_ts: float = 0.0
    close_end_ts: float = 0.0


@dataclass
class _PosixAccumulator(_Accumulator):
    """Counters for one (POSIX, file, rank) record in flight.

    The data path (:mod:`repro.iosim.datapath`) folds reads and writes
    in: Darshan's sequencing, alignment and access-size counters.
    """

    seeks: int = 0
    stats: int = 0
    fsyncs: int = 0
    mem_not_aligned: int = 0
    file_not_aligned: int = 0
    rw_switches: int = 0
    last_op: str = ""
    next_offset: int = -1  # offset right after the previous access
    last_offset: int = -1  # start offset of the previous access
    accesses: CommonValueTracker = field(default_factory=CommonValueTracker)

    def counters(self, config: LustreConfig) -> dict[str, int]:
        return {
            "POSIX_OPENS": self.opens,
            "POSIX_SEEKS": self.seeks,
            "POSIX_STATS": self.stats,
            "POSIX_FSYNCS": self.fsyncs,
            "POSIX_MODE": 0o644,
            "POSIX_CONSEC_READS": self.read.consec,
            "POSIX_CONSEC_WRITES": self.write.consec,
            "POSIX_SEQ_READS": self.read.seq,
            "POSIX_SEQ_WRITES": self.write.seq,
            "POSIX_RW_SWITCHES": self.rw_switches,
            "POSIX_MEM_ALIGNMENT": config.mem_alignment,
            "POSIX_FILE_ALIGNMENT": config.file_alignment,
            "POSIX_MEM_NOT_ALIGNED": self.mem_not_aligned,
            "POSIX_FILE_NOT_ALIGNED": self.file_not_aligned,
        }


@dataclass
class _MpiioAccumulator(_Accumulator):
    """Counters for one (MPI-IO, file, rank) record in flight.

    The data path (:mod:`repro.iosim.datapath`) folds independent calls
    and collective steps in: the flavor bucket, the read/write switch,
    the access sizes and the phase.
    """

    coll_opens: int = 0
    indep: dict[str, int] = field(default_factory=lambda: {"read": 0, "write": 0})
    coll: dict[str, int] = field(default_factory=lambda: {"read": 0, "write": 0})
    split: dict[str, int] = field(default_factory=lambda: {"read": 0, "write": 0})
    nb: dict[str, int] = field(default_factory=lambda: {"read": 0, "write": 0})
    syncs: int = 0
    rw_switches: int = 0
    last_op: str = ""
    accesses: CommonValueTracker = field(default_factory=CommonValueTracker)

    def counters(self, config: LustreConfig) -> dict[str, int]:
        counters = {
            "MPIIO_INDEP_OPENS": self.opens - self.coll_opens,
            "MPIIO_COLL_OPENS": self.coll_opens,
            "MPIIO_SYNCS": self.syncs,
            "MPIIO_MODE": 0,
            "MPIIO_RW_SWITCHES": self.rw_switches,
        }
        for flavor in ("indep", "coll", "split", "nb"):
            bucket = getattr(self, flavor)
            counters[f"MPIIO_{flavor.upper()}_READS"] = bucket["read"]
            counters[f"MPIIO_{flavor.upper()}_WRITES"] = bucket["write"]
        return counters


@dataclass
class _StdioAccumulator(_Accumulator):
    """Counters for one (STDIO, file, rank) record in flight."""

    seeks: int = 0
    flushes: int = 0

    def counters(self, config: LustreConfig) -> dict[str, int]:
        return {
            "STDIO_OPENS": self.opens,
            "STDIO_SEEKS": self.seeks,
            "STDIO_FLUSHES": self.flushes,
        }


#: The accumulator class of each instrumented I/O module, in the order
#: :meth:`DarshanRuntime.finalize` emits their records.
_ACCUMULATORS: dict[str, type] = {
    "POSIX": _PosixAccumulator,
    "MPI-IO": _MpiioAccumulator,
    "STDIO": _StdioAccumulator,
}


class DarshanRuntime:
    """Accumulates instrumentation events and emits a DarshanLog."""

    def __init__(
        self,
        fs: LustreFilesystem,
        nprocs: int,
        executable: str = "simulated_app",
        enable_dxt: bool = True,
        metadata: dict[str, str] | None = None,
    ) -> None:
        self._fs = fs
        self._nprocs = nprocs
        self._executable = executable
        self.enable_dxt = enable_dxt
        self._metadata = dict(metadata or {})
        #: module -> {(file_id, rank): accumulator}
        self._records: dict[str, dict[tuple[int, int], _Accumulator]] = {
            module: {} for module in _ACCUMULATORS
        }
        self._lustre_files: dict[int, Inode] = {}
        #: DXT rows, appended per op when ``enable_dxt``.
        self.dxt = DxtTable()

    # -- hooks called by the I/O layers -----------------------------------

    def record(self, module: str, inode: Inode, rank: int):
        """The (module, file, rank) record in flight, created on first use."""
        self._lustre_files[inode.file_id] = inode
        records = self._records[module]
        key = (inode.file_id, rank)
        acc = records.get(key)
        if acc is None:
            acc = records[key] = _ACCUMULATORS[module]()
        return acc

    def open(
        self, module: str, inode: Inode, rank: int, start: float, end: float,
        counter: str = "opens",
    ) -> None:
        """An open: the first start and the last end count.

        MPI-IO counts a collective open in ``coll_opens`` too.
        """
        acc = self.record(module, inode, rank)
        # Test the count, not the timestamp: first opens start at t=0.
        if acc.opens == 0:
            acc.open_start_ts = start
        acc.opens += 1
        if counter != "opens":
            setattr(acc, counter, getattr(acc, counter) + 1)
        acc.open_end_ts = max(acc.open_end_ts, end)
        acc.meta_time += end - start

    def close(
        self, module: str, inode: Inode, rank: int, start: float, end: float
    ) -> None:
        """A close: the first start and the last end count."""
        acc = self.record(module, inode, rank)
        if acc.close_start_ts == 0.0:
            acc.close_start_ts = start
        acc.close_end_ts = max(acc.close_end_ts, end)
        acc.meta_time += end - start

    def meta(
        self, module: str, inode: Inode, rank: int, counter: str,
        start: float, end: float,
    ) -> None:
        """A seek, stat, fsync, flush or sync, counted in ``counter``."""
        acc = self.record(module, inode, rank)
        setattr(acc, counter, getattr(acc, counter) + 1)
        acc.meta_time += end - start

    def stdio_io(
        self,
        inode: Inode,
        rank: int,
        operation: str,
        offset: int,
        length: int,
        start: float,
        end: float,
    ) -> None:
        acc = self.record("STDIO", inode, rank)
        phase = acc.read if operation == "read" else acc.write
        phase.add(offset, length, start, end)

    # -- finalization ---------------------------------------------------

    def finalize(self, start_time: float, end_time: float) -> DarshanLog:
        """Emit the finished DarshanLog for the job interval given."""
        job = JobRecord(
            job_id=4000001,
            uid=1001,
            nprocs=self._nprocs,
            start_time=start_time,
            end_time=end_time,
            executable=self._executable,
            metadata=self._metadata,
        )
        log = DarshanLog(job=job)
        files = sorted(self._lustre_files.items())
        for file_id, inode in files:
            log.add_name(NameRecord(record_id=file_id, path=inode.path))
        for module, records in self._records.items():
            for (file_id, rank), acc in sorted(records.items()):
                counters = acc.counters(self._fs.config)
                log.add_record(_io_record(module, file_id, rank, acc, counters))
        for file_id, inode in files:
            log.add_record(self._finalize_lustre(file_id, inode))
        log.set_dxt(self.dxt)
        return log

    def _finalize_lustre(self, file_id: int, inode: Inode) -> ModuleRecord:
        layout = inode.layout
        counters: dict[str, int] = {
            "LUSTRE_OSTS": self._fs.osts.count,
            "LUSTRE_MDTS": 1,
            "LUSTRE_STRIPE_OFFSET": layout.ost_ids[0],
            "LUSTRE_STRIPE_SIZE": layout.stripe_size,
            "LUSTRE_STRIPE_WIDTH": layout.stripe_count,
        }
        for slot in range(LUSTRE_MAX_OSTS):
            if slot < layout.stripe_count:
                counters[f"LUSTRE_OST_ID_{slot}"] = layout.ost_ids[slot]
        return ModuleRecord(
            module="LUSTRE", record_id=file_id, rank=0, counters=counters
        )


#: The size-bin infix of each module that keeps access shapes.
_SIZE_BINS = {"POSIX": "", "MPI-IO": "_AGG"}


def _io_record(
    module: str,
    file_id: int,
    rank: int,
    acc: _Accumulator,
    counters: dict[str, int],
) -> ModuleRecord:
    """Finish a POSIX, MPI-IO or STDIO record from its accumulator.

    ``counters`` holds the module's own counters.  This adds the ones
    the three modules derive alike, named by the module's counter
    prefix: the bytes moved, the fastest/slowest rank and its bytes and
    time, and the open/close timestamps and the read/write/meta times.
    POSIX and STDIO also count ops and the highest byte per direction.
    A module that keeps access shapes (one with a size-bin infix in
    ``_SIZE_BINS``) also gets the size bins, the four most common access
    sizes, the per-direction timestamps and the slowest op per direction.
    """
    prefix = module.replace("-", "")
    size_bins = _SIZE_BINS.get(module)
    read, write = acc.read, acc.write
    moved = read.bytes_moved + write.bytes_moved
    rank_time = read.total_time + write.total_time + acc.meta_time
    counters.update({
        f"{prefix}_BYTES_READ": read.bytes_moved,
        f"{prefix}_BYTES_WRITTEN": write.bytes_moved,
        f"{prefix}_FASTEST_RANK": rank,
        f"{prefix}_SLOWEST_RANK": rank,
        f"{prefix}_FASTEST_RANK_BYTES": moved,
        f"{prefix}_SLOWEST_RANK_BYTES": moved,
    })
    fcounters = {
        f"{prefix}_F_OPEN_START_TIMESTAMP": acc.open_start_ts,
        f"{prefix}_F_CLOSE_START_TIMESTAMP": acc.close_start_ts,
        f"{prefix}_F_READ_TIME": read.total_time,
        f"{prefix}_F_WRITE_TIME": write.total_time,
        f"{prefix}_F_META_TIME": acc.meta_time,
        f"{prefix}_F_FASTEST_RANK_TIME": rank_time,
        f"{prefix}_F_SLOWEST_RANK_TIME": rank_time,
    }
    if module != "MPI-IO":
        counters.update({
            f"{prefix}_READS": read.ops,
            f"{prefix}_WRITES": write.ops,
            f"{prefix}_MAX_BYTE_READ": max(read.max_byte, 0),
            f"{prefix}_MAX_BYTE_WRITTEN": max(write.max_byte, 0),
        })
    if size_bins is not None:
        for label, reads, writes in zip(SIZE_BIN_LABELS, read.bins, write.bins):
            counters[f"{prefix}_SIZE_READ{size_bins}_{label}"] = reads
            counters[f"{prefix}_SIZE_WRITE{size_bins}_{label}"] = writes
        for slot, (value, count) in enumerate(acc.accesses.top(4), start=1):
            counters[f"{prefix}_ACCESS{slot}_ACCESS"] = value
            counters[f"{prefix}_ACCESS{slot}_COUNT"] = count
        fcounters.update({
            f"{prefix}_F_OPEN_END_TIMESTAMP": acc.open_end_ts,
            f"{prefix}_F_CLOSE_END_TIMESTAMP": acc.close_end_ts,
            f"{prefix}_F_READ_START_TIMESTAMP": read.start_ts,
            f"{prefix}_F_READ_END_TIMESTAMP": read.end_ts,
            f"{prefix}_F_WRITE_START_TIMESTAMP": write.start_ts,
            f"{prefix}_F_WRITE_END_TIMESTAMP": write.end_ts,
            f"{prefix}_F_MAX_READ_TIME": read.max_time,
            f"{prefix}_F_MAX_WRITE_TIME": write.max_time,
        })
    return ModuleRecord(
        module=module,
        record_id=file_id,
        rank=rank,
        counters=counters,
        fcounters=fcounters,
    )
