"""The fused POSIX → Lustre → Darshan data path, with MPI-IO on top.

A *run* is a phase of reads or of writes, in issue order, executed by
:func:`execute_run` in one Python frame with the job's constants
hoisted.  It is one of three kinds:

- POSIX ops ``(rank, fd, offset, length)``;
- independent MPI-IO calls ``(rank, offset, length)`` on one file
  handle, blocking or non-blocking, each also a POSIX op on the rank's
  fd;
- collective MPI-IO steps on one file handle, each step one call's
  contributions ``(rank, offset, length)``, executed two-phase: entry
  barrier, shuffle, chunk plan, aggregator POSIX ops, exit barrier.

Per POSIX op the run splits the op into stripe chunks by arithmetic,
takes the extent locks, queues the chunks on the OST FIFOs, advances
the rank's clock, folds the op into the Darshan POSIX record and
appends its DXT row.  Per MPI-IO call it folds the (MPI-IO, file,
rank) record and appends the X_MPIIO row.  Ranks stay interleaved in
issue order, because the OST queues and the lock table are shared
across ranks.

Every per-call entry point is a run of one over the same code —
``PosixLayer.pread``/``pwrite``/``read``/``write``, MPI-IO
``write_at``/``read_at`` (a one-op independent run), ``write_at_all``/
``read_at_all`` (a one-step collective run) and, without the Darshan
part, ``LustreFilesystem.io`` — so each cost, lock and counter formula
exists once.  DESIGN.md §12 states the exactness contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Iterable, Mapping, NamedTuple

from repro.darshan.records import DXT_MODULES
from repro.lustre.filesystem import Inode, LustreFilesystem
from repro.lustre.locks import StripeLock
from repro.util.errors import FilesystemError, SimulationError

#: Codes of the DXT module column.
_X_POSIX = DXT_MODULES.index("X_POSIX")
_X_MPIIO = DXT_MODULES.index("X_MPIIO")


@dataclass
class OpenFile:
    """One entry of a rank's fd table."""

    inode: Inode
    position: int = 0


class RunTotals(NamedTuple):
    """Integer facts about one run, summed over its POSIX ops."""

    rpcs: int
    revocations: int
    misaligned: int


class MpiioRun(NamedTuple):
    """What a run needs of the MPI-IO file handle it executes on.

    ``fds`` maps every rank that opened the handle to its POSIX fd.
    ``flavor`` is the Darshan counter bucket of the calls: ``"indep"``
    or ``"nb"`` for independent calls, ``"coll"`` for collective steps,
    which also use the members, the aggregator ranks, the
    collective-buffer size and the interconnect's latency and
    bandwidth.
    """

    handle: int
    inode: Inode
    fds: Mapping[int, int]
    flavor: str
    members: tuple[int, ...] = ()
    aggregators: tuple[int, ...] = ()
    cb_size: int = 1
    net_latency: float = 0.0
    net_bandwidth: float = 1.0


def execute_run(
    fs: LustreFilesystem,
    runtime,
    operation: str,
    ops: Iterable,
    files: Mapping[int, Mapping[int, OpenFile]],
    clocks,
    mem_aligned: bool = True,
    cursor: bool = False,
    mpiio: MpiioRun | None = None,
) -> RunTotals:
    """Execute ``ops``, all reads or all writes, in issue order.

    ``files`` maps each rank to its fd table and ``clocks`` maps each
    rank to its clock, which the run advances.  ``runtime`` is the
    job's :class:`~repro.iosim.runtime.DarshanRuntime`; with ``None``
    the run only charges the filesystem and the clocks.  With
    ``cursor`` the run also moves each fd's position past its op.

    Without ``mpiio`` each op is a POSIX op ``(rank, fd, offset,
    length)``.  With it, each op is an independent MPI-IO call
    ``(rank, offset, length)``, or for the ``"coll"`` flavor a step: a
    sequence of contributions ``(rank, offset, length)``; collective
    runs need ``clocks`` to be a list.  An op that fails a check raises
    after every op before it has been applied.
    """
    if operation not in ("read", "write"):
        raise FilesystemError(f"bad operation {operation!r}")
    writing = operation == "write"
    config = fs.config
    costs = config.costs
    dxt = runtime.dxt if runtime is not None and runtime.enable_dxt else None
    if dxt is not None:
        dxt_module = dxt.module.append
        dxt_rank = dxt.rank.append
        dxt_record = dxt.record_id.append
        dxt_offset = dxt.offset.append
        dxt_length = dxt.length.append
        dxt_start = dxt.start.append
        dxt_end = dxt.end.append
    servers = fs.osts.servers
    lock_tables = fs.locks.table
    rpc_size = config.rpc_size
    alignment = config.file_alignment
    overhead = costs.client_op_overhead
    penalize = not mem_aligned
    penalty = costs.mem_copy_penalty
    rpc_latency = costs.rpc_latency
    bandwidth = costs.ost_bandwidth
    seek_penalty = costs.seek_penalty
    revocation_cost = costs.lock_revocation
    collective = independent = False
    if mpiio is not None:
        handle_fds = mpiio.fds
        m_file_id = mpiio.inode.file_id
        m_record = partial(runtime.record, "MPI-IO", mpiio.inode)
        collective = mpiio.flavor == "coll"
        independent = not collective
    if collective:
        members = mpiio.members
        clock_of = clocks.__getitem__
        aggregators = [(rank, handle_fds[rank]) for rank in mpiio.aggregators]
        aggregator_count = len(aggregators)
        cb_size = mpiio.cb_size
        net_latency = mpiio.net_latency
        net_bandwidth = mpiio.net_bandwidth
        # Each rank's combined extent in the current step: the lowest
        # offset and the summed length of its contributions, valid
        # where ``step_of[rank]`` is the step's number.
        step_of = [0] * len(clocks)
        extent_offset = [0] * len(clocks)
        extent_length = [0] * len(clocks)
        step_number = 0
        # (member, record's access counter, phase, flavor bucket),
        # resolved at the first step.
        member_folds = None
    # (rank, fd) -> what the run needs of that file, on first touch.
    touched: dict[tuple[int, int], tuple] = {}
    rpcs = acquisitions = conflicts = revocations = misaligned = 0
    try:
        for step in ops if collective else (ops,):
            if collective:
                # Two-phase collective I/O, as ROMIO: check every
                # contribution, then enter together (barrier).
                step_number += 1
                extents = []
                for rank, offset, length in step:
                    if rank not in handle_fds:
                        raise SimulationError(
                            f"rank {rank} did not open handle {mpiio.handle}"
                        )
                    if step_of[rank] == step_number:
                        if offset < extent_offset[rank]:
                            extent_offset[rank] = offset
                        extent_length[rank] += length
                    else:
                        step_of[rank] = step_number
                        extent_offset[rank] = offset
                        extent_length[rank] = length
                    if length > 0:
                        extents.append((offset, length))
                entry_time = max(map(clock_of, members))
                for member in members:
                    clocks[member] = entry_time
                # Phase 1: shuffle data between contributors and
                # aggregators over the interconnect.
                for rank, offset, length in step:
                    clock = clocks[rank]
                    until = clock + (net_latency + length / net_bandwidth)
                    if until > clock:
                        clocks[rank] = until
                    elif until < clock - 1e-12:
                        raise SimulationError(
                            f"clock for rank {rank} would move backward "
                            f"({clock} -> {until})"
                        )
                # Coalesce the extents into contiguous runs, then carve
                # each into collective-buffer-sized chunks relative to
                # the run's start (as ROMIO divides [min, max] among
                # aggregators, so a run past an odd header gives
                # unaligned transfers), dealt round-robin to the
                # aggregators.
                extents.sort()
                merged: list[list[int]] = []
                for offset, length in extents:
                    if merged and offset <= merged[-1][1]:
                        if offset + length > merged[-1][1]:
                            merged[-1][1] = offset + length
                    else:
                        merged.append([offset, offset + length])
                transfers = []
                for position, merged_end in merged:
                    while position < merged_end:
                        chunk_end = min(merged_end, position + cb_size)
                        rank, fd = aggregators[len(transfers) % aggregator_count]
                        transfers.append((rank, fd, position, chunk_end - position))
                        position = chunk_end
            else:
                transfers = step
            # Phase 2 of a collective step, or the whole run otherwise:
            # POSIX ops through the filesystem.
            for op in transfers:
                if independent:
                    rank, offset, length = op
                    fd = handle_fds.get(rank)
                    if fd is None:
                        raise SimulationError(
                            f"rank {rank} did not open handle {mpiio.handle}"
                        )
                else:
                    rank, fd, offset, length = op
                if length < 0:
                    raise FilesystemError(f"{operation} length must be non-negative")
                entry = touched.get((rank, fd))
                if entry is None:
                    table = files.get(rank)
                    open_file = table.get(fd) if table is not None else None
                    if open_file is None:
                        raise FilesystemError(
                            f"bad file descriptor {fd} on rank {rank}"
                        )
                    inode = open_file.inode
                    layout = inode.layout
                    acc = phase = fold = None
                    if runtime is not None:
                        acc = runtime.record("POSIX", inode, rank)
                        phase = acc.write if writing else acc.read
                        # A run is all reads or all writes, so only its
                        # first op on a record can switch direction.
                        if acc.last_op and acc.last_op != operation:
                            acc.rw_switches += 1
                        acc.last_op = operation
                    if independent:
                        fold = _mpiio_fold(
                            m_record(rank), operation, mpiio.flavor
                        )
                    entry = touched[(rank, fd)] = (
                        open_file, inode, inode.file_id, layout.stripe_size,
                        layout.ost_ids, lock_tables(inode.file_id), acc, phase,
                        fold,
                    )
                (open_file, inode, file_id, stripe_size, ost_ids, locks, acc,
                 phase, fold) = entry
                end_offset = offset + length
                if not writing and end_offset > inode.size:
                    raise FilesystemError(
                        f"read past EOF on {inode.path!r}: "
                        f"offset {offset} + length {length} > size {inode.size}"
                    )
                if offset < 0:
                    raise ValueError("offset and length must be non-negative")
                arrival = clocks[rank]
                start = arrival + overhead
                if penalize:
                    start += penalty
                completion = start
                position = offset
                while position < end_offset:
                    stripe = position // stripe_size
                    stripe_end = (stripe + 1) * stripe_size
                    chunk_length = min(end_offset, stripe_end) - position
                    # The stripe's extent lock: reads share, writes are
                    # exclusive; each displaced holder is one revocation.
                    lock = locks.get(stripe)
                    if lock is None:
                        lock = locks[stripe] = StripeLock()
                    acquisitions += 1
                    revoked = 0
                    holder = lock.writer
                    if writing:
                        readers = lock.readers
                        if holder != rank or readers:
                            if holder is not None and holder != rank:
                                revoked = 1
                            if readers:
                                revoked += len(readers) - (rank in readers)
                                readers.clear()
                            lock.writer = rank
                    else:
                        if holder is not None and holder != rank:
                            revoked = 1
                            lock.writer = None
                        lock.readers.add(rank)
                    server = servers[ost_ids[stripe % len(ost_ids)]]
                    chunk_arrival = start
                    if revoked:
                        conflicts += 1
                        revocations += revoked
                        chunk_arrival = server.serve(start, revoked * revocation_cost)
                    # The transfer: RPCs of at most rpc_size bytes, plus a
                    # seek when not contiguous with the OST's last access.
                    chunk_rpcs = -(-chunk_length // rpc_size)
                    service = chunk_rpcs * rpc_latency + chunk_length / bandwidth
                    last_end = server.last_end_offset
                    if last_end.get(file_id) != position:
                        service += seek_penalty
                    position += chunk_length
                    last_end[file_id] = position
                    chunk_completion = server.serve(chunk_arrival, service)
                    rpcs += chunk_rpcs
                    if chunk_completion > completion:
                        completion = chunk_completion
                if writing and end_offset > inode.size:
                    inode.size = end_offset
                if completion < arrival - 1e-12:
                    raise SimulationError(
                        f"clock for rank {rank} would move backward "
                        f"({arrival} -> {completion})"
                    )
                if completion > arrival:
                    clocks[rank] = completion
                if cursor:
                    open_file.position = end_offset
                aligned = offset % alignment == 0
                if not aligned:
                    misaligned += 1
                if acc is None:
                    continue
                # Darshan sequencing, per file per rank across reads and
                # writes: "consecutive" starts right where the previous
                # access ended, "sequential" at no lower an offset.
                if acc.next_offset >= 0:
                    if offset == acc.next_offset:
                        phase.consec += 1
                    if offset >= acc.last_offset:
                        phase.seq += 1
                acc.last_offset = offset
                acc.next_offset = end_offset
                if not aligned:
                    acc.file_not_aligned += 1
                if penalize:
                    acc.mem_not_aligned += 1
                acc.accesses.add(length)
                phase.add(offset, length, arrival, completion)
                if dxt is not None:
                    if completion < arrival:
                        raise ValueError("DXT segment ends before it starts")
                    dxt_module(_X_POSIX)
                    dxt_rank(rank)
                    dxt_record(file_id)
                    dxt_offset(offset)
                    dxt_length(length)
                    dxt_start(arrival)
                    dxt_end(completion)
                if fold is None:
                    continue
                # The independent call spans the rank's clock over its
                # POSIX op.
                end = clocks[rank]
                count_access, m_phase, bucket = fold
                bucket[operation] += 1
                count_access(length)
                m_phase.add(offset, length, arrival, end)
                if dxt is not None:
                    dxt_module(_X_MPIIO)
                    dxt_rank(rank)
                    dxt_record(m_file_id)
                    dxt_offset(offset)
                    dxt_length(length)
                    dxt_start(arrival)
                    dxt_end(end)
            if collective:
                # Leave together (barrier), then record the logical
                # call on every member, spanning entry to exit.
                exit_time = max(map(clock_of, members))
                for member in members:
                    clocks[member] = exit_time
                if member_folds is None:
                    member_folds = [
                        (member, *_mpiio_fold(
                            m_record(member), operation, "coll"
                        ))
                        for member in members
                    ]
                for member, count_access, m_phase, bucket in member_folds:
                    if step_of[member] == step_number:
                        offset = extent_offset[member]
                        length = extent_length[member]
                    else:
                        offset = length = 0
                    bucket[operation] += 1
                    count_access(length)
                    m_phase.add(offset, length, entry_time, exit_time)
                    if dxt is not None:
                        if offset < 0 or length < 0:
                            raise ValueError("DXT offset/length must be non-negative")
                        dxt_module(_X_MPIIO)
                        dxt_rank(member)
                        dxt_record(m_file_id)
                        dxt_offset(offset)
                        dxt_length(length)
                        dxt_start(entry_time)
                        dxt_end(exit_time)
    finally:
        if dxt is not None:
            dxt.pad(operation)
        stats = fs.locks.stats
        stats.acquisitions += acquisitions
        stats.conflicts += conflicts
        stats.revocations += revocations
    return RunTotals(rpcs, revocations, misaligned)


def _mpiio_fold(record, operation: str, flavor: str) -> tuple:
    """What a run folds each call into: one (MPI-IO, file, rank) record.

    Counts the record's read/write switch, which in a single-kind run
    only its first call can make.
    """
    if record.last_op and record.last_op != operation:
        record.rw_switches += 1
    record.last_op = operation
    phase = record.write if operation == "write" else record.read
    return record.accesses.add, phase, getattr(record, flavor)
