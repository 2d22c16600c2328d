"""The fused POSIX → Lustre → Darshan data path.

A *run* is a sequence of POSIX reads or of POSIX writes, each one
``(rank, fd, offset, length)``, in issue order.  :func:`execute_run`
executes a whole run in one Python frame with the job's constants
hoisted: it splits each op into stripe chunks by arithmetic, takes the
extent locks, queues the chunks on the OST FIFOs, advances the rank's
clock, folds the op into the Darshan POSIX record and appends its DXT
row.  Ranks stay interleaved in issue order, because the OST queues
and the lock table are shared across ranks.

Every per-op entry point is a run of one over the same code —
``PosixLayer.pread``/``pwrite``/``read``/``write`` and, without the
Darshan part, ``LustreFilesystem.io`` — so each cost, lock and counter
formula exists once.  DESIGN.md §12 states the exactness contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple

from repro.lustre.filesystem import Inode, LustreFilesystem
from repro.lustre.locks import StripeLock
from repro.util.errors import FilesystemError, SimulationError


@dataclass
class OpenFile:
    """One entry of a rank's fd table."""

    inode: Inode
    position: int = 0


class RunTotals(NamedTuple):
    """Integer facts about one run, summed over its ops."""

    rpcs: int
    revocations: int
    misaligned: int


def execute_run(
    fs: LustreFilesystem,
    runtime,
    operation: str,
    ops: Iterable[tuple[int, int, int, int]],
    files: Mapping[int, Mapping[int, OpenFile]],
    clocks,
    mem_aligned: bool = True,
    cursor: bool = False,
) -> RunTotals:
    """Execute ``ops``, all reads or all writes, in issue order.

    ``files`` maps each rank to its fd table and ``clocks`` maps each
    rank to its clock, which the run advances.  ``runtime`` is the
    job's :class:`~repro.iosim.runtime.DarshanRuntime`; with ``None``
    the run only charges the filesystem and the clocks.  With
    ``cursor`` the run also moves each fd's position past its op.  An
    op that fails a check raises after every op before it has been
    applied.
    """
    if operation not in ("read", "write"):
        raise FilesystemError(f"bad operation {operation!r}")
    writing = operation == "write"
    config = fs.config
    costs = config.costs
    dxt = runtime.dxt if runtime is not None and runtime.enable_dxt else None
    if dxt is not None:
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
    # (rank, fd) -> what the run needs of that file, on first touch.
    touched: dict[tuple[int, int], tuple] = {}
    rpcs = acquisitions = conflicts = revocations = misaligned = 0
    try:
        for rank, fd, offset, length in ops:
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
                acc = phase = None
                if runtime is not None:
                    acc = runtime.posix_record(inode, rank)
                    phase = acc.write if writing else acc.read
                    # A run is all reads or all writes, so only its first
                    # op on a record can switch direction.
                    if acc.last_op and acc.last_op != operation:
                        acc.rw_switches += 1
                    acc.last_op = operation
                entry = touched[(rank, fd)] = (
                    open_file, inode, inode.file_id, layout.stripe_size,
                    layout.ost_ids, lock_tables(inode.file_id), acc, phase,
                )
            (open_file, inode, file_id, stripe_size, ost_ids, locks, acc,
             phase) = entry
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
                dxt_rank(rank)
                dxt_record(file_id)
                dxt_offset(offset)
                dxt_length(length)
                dxt_start(arrival)
                dxt_end(completion)
    finally:
        if dxt is not None:
            dxt.pad("X_POSIX", operation)
        stats = fs.locks.stats
        stats.acquisitions += acquisitions
        stats.conflicts += conflicts
        stats.revocations += revocations
    return RunTotals(rpcs, revocations, misaligned)
