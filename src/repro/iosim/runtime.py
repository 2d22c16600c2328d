"""Darshan instrumentation runtime for the simulator.

The I/O layers (:mod:`repro.iosim.posix`, ``mpiio``, ``stdio``) report
every operation here; the runtime folds the stream into per-(module,
file, rank) counter accumulators and optional DXT segments, exactly the
way the real Darshan runtime wraps libc/MPI calls.  At job end,
:meth:`DarshanRuntime.finalize` emits a complete :class:`DarshanLog`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from repro.darshan.counters import LUSTRE_MAX_OSTS
from repro.darshan.log import DarshanLog
from repro.darshan.records import DxtTable, JobRecord, ModuleRecord, NameRecord
from repro.lustre.filesystem import Inode, LustreFilesystem
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
class _PosixAccumulator:
    """Counters for one (POSIX, file, rank) record in flight.

    The data path (:mod:`repro.iosim.datapath`) folds reads and writes
    in: Darshan's sequencing, alignment and access-size counters.
    """

    opens: int = 0
    seeks: int = 0
    stats: int = 0
    fsyncs: int = 0
    mem_not_aligned: int = 0
    file_not_aligned: int = 0
    rw_switches: int = 0
    read: _IoPhase = field(default_factory=_IoPhase)
    write: _IoPhase = field(default_factory=_IoPhase)
    meta_time: float = 0.0
    open_start_ts: float = 0.0
    open_end_ts: float = 0.0
    close_start_ts: float = 0.0
    close_end_ts: float = 0.0
    last_op: str = ""
    next_offset: int = -1  # offset right after the previous access
    last_offset: int = -1  # start offset of the previous access
    accesses: CommonValueTracker = field(default_factory=CommonValueTracker)


@dataclass
class _MpiioAccumulator:
    """Counters for one (MPI-IO, file, rank) record in flight.

    The data path (:mod:`repro.iosim.datapath`) folds independent calls
    and collective steps in: the flavor bucket, the read/write switch,
    the access sizes and the phase.
    """

    indep_opens: int = 0
    coll_opens: int = 0
    indep: dict[str, int] = field(default_factory=lambda: {"read": 0, "write": 0})
    coll: dict[str, int] = field(default_factory=lambda: {"read": 0, "write": 0})
    split: dict[str, int] = field(default_factory=lambda: {"read": 0, "write": 0})
    nb: dict[str, int] = field(default_factory=lambda: {"read": 0, "write": 0})
    syncs: int = 0
    rw_switches: int = 0
    last_op: str = ""
    read: _IoPhase = field(default_factory=_IoPhase)
    write: _IoPhase = field(default_factory=_IoPhase)
    meta_time: float = 0.0
    open_start_ts: float = 0.0
    open_end_ts: float = 0.0
    close_start_ts: float = 0.0
    close_end_ts: float = 0.0
    accesses: CommonValueTracker = field(default_factory=CommonValueTracker)


@dataclass
class _StdioAccumulator:
    """Counters for one (STDIO, file, rank) record in flight."""

    opens: int = 0
    seeks: int = 0
    flushes: int = 0
    read: _IoPhase = field(default_factory=_IoPhase)
    write: _IoPhase = field(default_factory=_IoPhase)
    meta_time: float = 0.0
    open_start_ts: float = 0.0
    close_start_ts: float = 0.0


class DarshanRuntime:
    """Accumulates instrumentation events and emits a DarshanLog."""

    def __init__(
        self,
        fs: LustreFilesystem,
        nprocs: int,
        job_id: int = 4000001,
        uid: int = 1001,
        executable: str = "simulated_app",
        enable_dxt: bool = True,
        metadata: dict[str, str] | None = None,
    ) -> None:
        self._fs = fs
        self._nprocs = nprocs
        self._job_id = job_id
        self._uid = uid
        self._executable = executable
        self.enable_dxt = enable_dxt
        self._metadata = dict(metadata or {})
        self._posix: dict[tuple[int, int], _PosixAccumulator] = {}
        self._mpiio: dict[tuple[int, int], _MpiioAccumulator] = {}
        self._stdio: dict[tuple[int, int], _StdioAccumulator] = {}
        self._names: dict[int, str] = {}
        self._lustre_files: dict[int, Inode] = {}
        #: DXT rows, appended per op when ``enable_dxt``.
        self.dxt = DxtTable()

    # -- registration hooks called by the I/O layers -------------------

    def _register(self, inode: Inode) -> None:
        self._names[inode.file_id] = inode.path
        self._lustre_files[inode.file_id] = inode

    def _record(self, records: dict, factory, inode: Inode, rank: int):
        self._register(inode)
        key = (inode.file_id, rank)
        acc = records.get(key)
        if acc is None:
            acc = records[key] = factory()
        return acc

    def posix_record(self, inode: Inode, rank: int) -> _PosixAccumulator:
        """The (POSIX, file, rank) record in flight, created on first use."""
        return self._record(self._posix, _PosixAccumulator, inode, rank)

    def mpiio_record(self, inode: Inode, rank: int) -> _MpiioAccumulator:
        """The (MPI-IO, file, rank) record in flight, created on first use."""
        return self._record(self._mpiio, _MpiioAccumulator, inode, rank)

    def _stdio_acc(self, inode: Inode, rank: int) -> _StdioAccumulator:
        return self._record(self._stdio, _StdioAccumulator, inode, rank)

    def posix_open(self, inode: Inode, rank: int, start: float, end: float) -> None:
        acc = self.posix_record(inode, rank)
        if acc.opens == 0:
            acc.open_start_ts = start
        acc.opens += 1
        acc.open_end_ts = max(acc.open_end_ts, end)
        acc.meta_time += end - start

    def posix_close(self, inode: Inode, rank: int, start: float, end: float) -> None:
        acc = self.posix_record(inode, rank)
        if acc.close_start_ts == 0.0:
            acc.close_start_ts = start
        acc.close_end_ts = max(acc.close_end_ts, end)
        acc.meta_time += end - start

    def posix_meta(
        self, inode: Inode, rank: int, kind: str, start: float, end: float
    ) -> None:
        acc = self.posix_record(inode, rank)
        if kind == "seek":
            acc.seeks += 1
        elif kind == "stat":
            acc.stats += 1
        elif kind == "fsync":
            acc.fsyncs += 1
        else:
            raise ValueError(f"unknown POSIX meta kind {kind!r}")
        acc.meta_time += end - start

    def mpiio_open(
        self, inode: Inode, rank: int, collective: bool, start: float, end: float
    ) -> None:
        acc = self.mpiio_record(inode, rank)
        if acc.coll_opens + acc.indep_opens == 0:
            acc.open_start_ts = start
        if collective:
            acc.coll_opens += 1
        else:
            acc.indep_opens += 1
        acc.open_end_ts = max(acc.open_end_ts, end)
        acc.meta_time += end - start

    def mpiio_close(self, inode: Inode, rank: int, start: float, end: float) -> None:
        acc = self.mpiio_record(inode, rank)
        if acc.close_start_ts == 0.0:
            acc.close_start_ts = start
        acc.close_end_ts = max(acc.close_end_ts, end)
        acc.meta_time += end - start

    def mpiio_sync(self, inode: Inode, rank: int, start: float, end: float) -> None:
        acc = self.mpiio_record(inode, rank)
        acc.syncs += 1
        acc.meta_time += end - start

    def stdio_open(self, inode: Inode, rank: int, start: float, end: float) -> None:
        acc = self._stdio_acc(inode, rank)
        if acc.opens == 0:
            acc.open_start_ts = start
        acc.opens += 1
        acc.meta_time += end - start

    def stdio_close(self, inode: Inode, rank: int, start: float, end: float) -> None:
        acc = self._stdio_acc(inode, rank)
        acc.close_start_ts = start
        acc.meta_time += end - start

    def stdio_meta(
        self, inode: Inode, rank: int, kind: str, start: float, end: float
    ) -> None:
        acc = self._stdio_acc(inode, rank)
        if kind == "seek":
            acc.seeks += 1
        elif kind == "flush":
            acc.flushes += 1
        else:
            raise ValueError(f"unknown STDIO meta kind {kind!r}")
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
        acc = self._stdio_acc(inode, rank)
        phase = acc.read if operation == "read" else acc.write
        phase.add(offset, length, start, end)

    # -- finalization ---------------------------------------------------

    def finalize(self, start_time: float, end_time: float) -> DarshanLog:
        """Emit the finished DarshanLog for the job interval given."""
        job = JobRecord(
            job_id=self._job_id,
            uid=self._uid,
            nprocs=self._nprocs,
            start_time=start_time,
            end_time=end_time,
            executable=self._executable,
            metadata=self._metadata,
        )
        log = DarshanLog(job=job)
        for file_id, path in sorted(self._names.items()):
            log.add_name(NameRecord(record_id=file_id, path=path))
        for (file_id, rank), acc in sorted(self._posix.items()):
            log.add_record(self._finalize_posix(file_id, rank, acc))
        for (file_id, rank), acc in sorted(self._mpiio.items()):
            log.add_record(self._finalize_mpiio(file_id, rank, acc))
        for (file_id, rank), acc in sorted(self._stdio.items()):
            log.add_record(self._finalize_stdio(file_id, rank, acc))
        for file_id, inode in sorted(self._lustre_files.items()):
            log.add_record(self._finalize_lustre(file_id, inode))
        log.set_dxt(self.dxt)
        return log

    def _finalize_posix(
        self, file_id: int, rank: int, acc: _PosixAccumulator
    ) -> ModuleRecord:
        counters: dict[str, int] = {
            "POSIX_OPENS": acc.opens,
            "POSIX_READS": acc.read.ops,
            "POSIX_WRITES": acc.write.ops,
            "POSIX_SEEKS": acc.seeks,
            "POSIX_STATS": acc.stats,
            "POSIX_FSYNCS": acc.fsyncs,
            "POSIX_MODE": 0o644,
            "POSIX_BYTES_READ": acc.read.bytes_moved,
            "POSIX_BYTES_WRITTEN": acc.write.bytes_moved,
            "POSIX_MAX_BYTE_READ": max(acc.read.max_byte, 0),
            "POSIX_MAX_BYTE_WRITTEN": max(acc.write.max_byte, 0),
            "POSIX_CONSEC_READS": acc.read.consec,
            "POSIX_CONSEC_WRITES": acc.write.consec,
            "POSIX_SEQ_READS": acc.read.seq,
            "POSIX_SEQ_WRITES": acc.write.seq,
            "POSIX_RW_SWITCHES": acc.rw_switches,
            "POSIX_MEM_ALIGNMENT": self._fs.config.mem_alignment,
            "POSIX_FILE_ALIGNMENT": self._fs.config.file_alignment,
            "POSIX_MEM_NOT_ALIGNED": acc.mem_not_aligned,
            "POSIX_FILE_NOT_ALIGNED": acc.file_not_aligned,
        }
        for label, count in zip(SIZE_BIN_LABELS, acc.read.bins):
            counters[f"POSIX_SIZE_READ_{label}"] = count
        for label, count in zip(SIZE_BIN_LABELS, acc.write.bins):
            counters[f"POSIX_SIZE_WRITE_{label}"] = count
        for slot, (value, count) in enumerate(acc.accesses.top(4), start=1):
            counters[f"POSIX_ACCESS{slot}_ACCESS"] = value
            counters[f"POSIX_ACCESS{slot}_COUNT"] = count
        counters["POSIX_FASTEST_RANK"] = rank
        counters["POSIX_SLOWEST_RANK"] = rank
        moved = acc.read.bytes_moved + acc.write.bytes_moved
        counters["POSIX_FASTEST_RANK_BYTES"] = moved
        counters["POSIX_SLOWEST_RANK_BYTES"] = moved
        rank_time = acc.read.total_time + acc.write.total_time + acc.meta_time
        fcounters: dict[str, float] = {
            "POSIX_F_OPEN_START_TIMESTAMP": acc.open_start_ts,
            "POSIX_F_READ_START_TIMESTAMP": acc.read.start_ts,
            "POSIX_F_WRITE_START_TIMESTAMP": acc.write.start_ts,
            "POSIX_F_CLOSE_START_TIMESTAMP": acc.close_start_ts,
            "POSIX_F_OPEN_END_TIMESTAMP": acc.open_end_ts,
            "POSIX_F_READ_END_TIMESTAMP": acc.read.end_ts,
            "POSIX_F_WRITE_END_TIMESTAMP": acc.write.end_ts,
            "POSIX_F_CLOSE_END_TIMESTAMP": acc.close_end_ts,
            "POSIX_F_READ_TIME": acc.read.total_time,
            "POSIX_F_WRITE_TIME": acc.write.total_time,
            "POSIX_F_META_TIME": acc.meta_time,
            "POSIX_F_MAX_READ_TIME": acc.read.max_time,
            "POSIX_F_MAX_WRITE_TIME": acc.write.max_time,
            "POSIX_F_FASTEST_RANK_TIME": rank_time,
            "POSIX_F_SLOWEST_RANK_TIME": rank_time,
        }
        return ModuleRecord(
            module="POSIX",
            record_id=file_id,
            rank=rank,
            counters=counters,
            fcounters=fcounters,
        )

    def _finalize_mpiio(
        self, file_id: int, rank: int, acc: _MpiioAccumulator
    ) -> ModuleRecord:
        counters: dict[str, int] = {
            "MPIIO_INDEP_OPENS": acc.indep_opens,
            "MPIIO_COLL_OPENS": acc.coll_opens,
            "MPIIO_INDEP_READS": acc.indep["read"],
            "MPIIO_INDEP_WRITES": acc.indep["write"],
            "MPIIO_COLL_READS": acc.coll["read"],
            "MPIIO_COLL_WRITES": acc.coll["write"],
            "MPIIO_SPLIT_READS": acc.split["read"],
            "MPIIO_SPLIT_WRITES": acc.split["write"],
            "MPIIO_NB_READS": acc.nb["read"],
            "MPIIO_NB_WRITES": acc.nb["write"],
            "MPIIO_SYNCS": acc.syncs,
            "MPIIO_MODE": 0,
            "MPIIO_BYTES_READ": acc.read.bytes_moved,
            "MPIIO_BYTES_WRITTEN": acc.write.bytes_moved,
            "MPIIO_RW_SWITCHES": acc.rw_switches,
        }
        for label, count in zip(SIZE_BIN_LABELS, acc.read.bins):
            counters[f"MPIIO_SIZE_READ_AGG_{label}"] = count
        for label, count in zip(SIZE_BIN_LABELS, acc.write.bins):
            counters[f"MPIIO_SIZE_WRITE_AGG_{label}"] = count
        for slot, (value, count) in enumerate(acc.accesses.top(4), start=1):
            counters[f"MPIIO_ACCESS{slot}_ACCESS"] = value
            counters[f"MPIIO_ACCESS{slot}_COUNT"] = count
        counters["MPIIO_FASTEST_RANK"] = rank
        counters["MPIIO_SLOWEST_RANK"] = rank
        moved = acc.read.bytes_moved + acc.write.bytes_moved
        counters["MPIIO_FASTEST_RANK_BYTES"] = moved
        counters["MPIIO_SLOWEST_RANK_BYTES"] = moved
        rank_time = acc.read.total_time + acc.write.total_time + acc.meta_time
        fcounters: dict[str, float] = {
            "MPIIO_F_OPEN_START_TIMESTAMP": acc.open_start_ts,
            "MPIIO_F_READ_START_TIMESTAMP": acc.read.start_ts,
            "MPIIO_F_WRITE_START_TIMESTAMP": acc.write.start_ts,
            "MPIIO_F_CLOSE_START_TIMESTAMP": acc.close_start_ts,
            "MPIIO_F_OPEN_END_TIMESTAMP": acc.open_end_ts,
            "MPIIO_F_READ_END_TIMESTAMP": acc.read.end_ts,
            "MPIIO_F_WRITE_END_TIMESTAMP": acc.write.end_ts,
            "MPIIO_F_CLOSE_END_TIMESTAMP": acc.close_end_ts,
            "MPIIO_F_READ_TIME": acc.read.total_time,
            "MPIIO_F_WRITE_TIME": acc.write.total_time,
            "MPIIO_F_META_TIME": acc.meta_time,
            "MPIIO_F_MAX_READ_TIME": acc.read.max_time,
            "MPIIO_F_MAX_WRITE_TIME": acc.write.max_time,
            "MPIIO_F_FASTEST_RANK_TIME": rank_time,
            "MPIIO_F_SLOWEST_RANK_TIME": rank_time,
        }
        return ModuleRecord(
            module="MPI-IO",
            record_id=file_id,
            rank=rank,
            counters=counters,
            fcounters=fcounters,
        )

    def _finalize_stdio(
        self, file_id: int, rank: int, acc: _StdioAccumulator
    ) -> ModuleRecord:
        moved = acc.read.bytes_moved + acc.write.bytes_moved
        counters: dict[str, int] = {
            "STDIO_OPENS": acc.opens,
            "STDIO_READS": acc.read.ops,
            "STDIO_WRITES": acc.write.ops,
            "STDIO_SEEKS": acc.seeks,
            "STDIO_FLUSHES": acc.flushes,
            "STDIO_BYTES_READ": acc.read.bytes_moved,
            "STDIO_BYTES_WRITTEN": acc.write.bytes_moved,
            "STDIO_MAX_BYTE_READ": max(acc.read.max_byte, 0),
            "STDIO_MAX_BYTE_WRITTEN": max(acc.write.max_byte, 0),
            "STDIO_FASTEST_RANK": rank,
            "STDIO_FASTEST_RANK_BYTES": moved,
            "STDIO_SLOWEST_RANK": rank,
            "STDIO_SLOWEST_RANK_BYTES": moved,
        }
        rank_time = acc.read.total_time + acc.write.total_time + acc.meta_time
        fcounters: dict[str, float] = {
            "STDIO_F_OPEN_START_TIMESTAMP": acc.open_start_ts,
            "STDIO_F_CLOSE_START_TIMESTAMP": acc.close_start_ts,
            "STDIO_F_READ_TIME": acc.read.total_time,
            "STDIO_F_WRITE_TIME": acc.write.total_time,
            "STDIO_F_META_TIME": acc.meta_time,
            "STDIO_F_FASTEST_RANK_TIME": rank_time,
            "STDIO_F_SLOWEST_RANK_TIME": rank_time,
        }
        return ModuleRecord(
            module="STDIO",
            record_id=file_id,
            rank=rank,
            counters=counters,
            fcounters=fcounters,
        )

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
