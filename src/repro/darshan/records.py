"""Record models stored inside a Darshan log.

A log holds one :class:`JobRecord`, a name table mapping 64-bit record
ids to file paths, per-module :class:`ModuleRecord` arrays (one per
(file, rank) pair that touched the module), and — when extended tracing
was enabled — a :class:`DxtTable` of traced operations, one row per
POSIX or MPI-IO read/write, stored as typed columns.  A
:class:`DxtSegment` is one row of that table viewed as an object.
"""

from __future__ import annotations

import operator
from array import array
from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterable, Iterator

from repro.darshan.counters import counters_for, fcounters_for
from repro.util.errors import DarshanValidationError

#: Rank value Darshan uses for records reduced across all ranks of a
#: shared file.  We keep per-rank records by default but the reduction
#: helper in :mod:`repro.darshan.log` produces records with this rank.
SHARED_RANK = -1


@dataclass
class JobRecord:
    """Job-level header stored once per log."""

    job_id: int
    uid: int
    nprocs: int
    start_time: float
    end_time: float
    executable: str = "unknown"
    metadata: dict[str, str] = field(default_factory=dict)

    @property
    def run_time(self) -> float:
        """Wall-clock duration of the job in seconds."""
        return max(0.0, self.end_time - self.start_time)


@dataclass
class NameRecord:
    """Mapping from a 64-bit record id to the file path it names."""

    record_id: int
    path: str
    mount_point: str = "/lustre"
    fs_type: str = "lustre"


@dataclass
class ModuleRecord:
    """One Darshan record: counters for a (module, file, rank) triple."""

    module: str
    record_id: int
    rank: int
    counters: dict[str, int] = field(default_factory=dict)
    fcounters: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        known = counters_for(self.module)
        fknown = fcounters_for(self.module)
        for name in self.counters:
            if name not in known:
                raise KeyError(f"{name!r} is not a {self.module} counter")
        for name in self.fcounters:
            if name not in fknown:
                raise KeyError(f"{name!r} is not a {self.module} fcounter")
        # Normalize to the full counter set so downstream consumers can
        # index any registered counter without .get() chains.
        self.counters = {name: self.counters.get(name, 0) for name in known}
        self.fcounters = {name: self.fcounters.get(name, 0.0) for name in fknown}

    def get(self, counter: str) -> int | float:
        """Look up an integer or float counter by name."""
        if counter in self.counters:
            return self.counters[counter]
        if counter in self.fcounters:
            return self.fcounters[counter]
        raise KeyError(f"{counter!r} is not a {self.module} counter")


@dataclass(frozen=True, slots=True)
class DxtSegment:
    """One traced I/O operation from the DXT module.

    ``module`` is ``"X_POSIX"`` or ``"X_MPIIO"`` (matching darshan-dxt-parser
    naming), ``operation`` is ``"read"`` or ``"write"``.
    """

    module: str
    record_id: int
    rank: int
    operation: str
    offset: int
    length: int
    start_time: float
    end_time: float
    hostname: str = "node0"

    def __post_init__(self) -> None:
        _check_segment(
            self.module, self.operation, self.offset, self.length,
            self.start_time, self.end_time,
        )

    @property
    def duration(self) -> float:
        """Wall time of the operation in seconds."""
        return self.end_time - self.start_time


#: DXT module and operation names, indexed by the codes stored in a
#: :class:`DxtTable` and in the binary log.
DXT_MODULES = ("X_POSIX", "X_MPIIO")
DXT_OPS = ("read", "write")
_MODULE_CODES = {name: code for code, name in enumerate(DXT_MODULES)}
_OP_CODES = {name: code for code, name in enumerate(DXT_OPS)}


def _check_names(module: str, operation: str) -> None:
    if operation not in _OP_CODES:
        raise ValueError(f"bad DXT operation {operation!r}")
    if module not in _MODULE_CODES:
        raise ValueError(f"bad DXT module {module!r}")


def _check_segment(
    module: str, operation: str, offset: int, length: int, start: float, end: float
) -> None:
    _check_names(module, operation)
    if length < 0 or offset < 0:
        raise ValueError("DXT offset/length must be non-negative")
    if end < start:
        raise ValueError("DXT segment ends before it starts")


class DxtTable:
    """Every DXT segment of a log, stored as parallel typed columns.

    Row ``i`` of the table is ``(module[i], op[i], rank[i], ...)``;
    ``module`` and ``op`` hold indexes into :data:`DXT_MODULES` /
    :data:`DXT_OPS`, and ``host`` indexes the ``hostnames`` dictionary.
    Consumers that want objects index or iterate the table, which yields
    :class:`DxtSegment` views; bulk consumers read the columns.
    """

    #: ``(column, array typecode)`` in storage order.
    COLUMNS = (
        ("module", "B"),
        ("op", "B"),
        ("rank", "q"),
        ("record_id", "Q"),
        ("offset", "q"),
        ("length", "q"),
        ("start", "d"),
        ("end", "d"),
        ("host", "I"),
    )

    def __init__(self, hostnames: Iterable[str] = ()) -> None:
        for name, typecode in self.COLUMNS:
            setattr(self, name, array(typecode))
        self.hostnames: list[str] = list(hostnames)
        self._host_codes = {host: code for code, host in enumerate(self.hostnames)}

    def columns(self) -> list[array]:
        """The column arrays in :attr:`COLUMNS` order."""
        return [getattr(self, name) for name, _ in self.COLUMNS]

    def append(
        self,
        module: str,
        record_id: int,
        rank: int,
        operation: str,
        offset: int,
        length: int,
        start: float,
        end: float,
        hostname: str = "node0",
    ) -> None:
        """Append one segment, with the checks :class:`DxtSegment` makes."""
        _check_segment(module, operation, offset, length, start, end)
        module_code, op_code, host = self.row_codes(module, operation, hostname)
        self.module.append(module_code)
        self.op.append(op_code)
        self.rank.append(rank)
        self.record_id.append(record_id)
        self.offset.append(offset)
        self.length.append(length)
        self.start.append(start)
        self.end.append(end)
        self.host.append(host)

    def row_codes(
        self, module: str, operation: str, hostname: str = "node0"
    ) -> tuple[int, int, int]:
        """The (module, op, host) codes of a row; interns ``hostname``.

        Raises :class:`ValueError` for a module or operation name that
        a :class:`DxtSegment` would reject.
        """
        _check_names(module, operation)
        host = self._host_codes.get(hostname)
        if host is None:
            host = self._host_codes[hostname] = len(self.hostnames)
            self.hostnames.append(hostname)
        return _MODULE_CODES[module], _OP_CODES[operation], host

    def pad(self, operation: str, hostname: str = "node0") -> None:
        """Fill the op and host columns up to the row count.

        A writer of a run of rows that share these two values appends
        the other seven columns row by row, then calls this once.
        """
        missing = len(self.module) - len(self.op)
        if missing > 0:
            _, op_code, host = self.row_codes(DXT_MODULES[0], operation, hostname)
            self.op.extend(repeat(op_code, missing))
            self.host.extend(repeat(host, missing))

    def check(self, known_ids: Iterable[int]) -> None:
        """Check every row as :meth:`append` and ``DarshanLog.add_dxt`` do.

        Raises :class:`ValueError` for a malformed row and
        :class:`DarshanValidationError` for a record id not in
        ``known_ids``.
        """
        count = len(self.module)
        if any(len(column) != count for column in self.columns()):
            raise ValueError("DXT columns differ in length")
        if not count:
            return
        if max(self.module) >= len(DXT_MODULES) or max(self.op) >= len(DXT_OPS):
            raise ValueError(
                f"bad DXT module/op code {max(self.module)}/{max(self.op)}"
            )
        if min(self.offset) < 0 or min(self.length) < 0:
            raise ValueError("DXT offset/length must be non-negative")
        if any(map(operator.lt, self.end, self.start)):
            raise ValueError("DXT segment ends before it starts")
        if max(self.host) >= len(self.hostnames):
            raise ValueError(f"bad DXT hostname index {max(self.host)}")
        unknown = set(self.record_id).difference(known_ids)
        if unknown:
            raise DarshanValidationError(
                f"DXT segment references unknown record id {min(unknown):#x}"
            )

    def __len__(self) -> int:
        return len(self.module)

    def __getitem__(self, index: int) -> DxtSegment:
        return DxtSegment(
            module=DXT_MODULES[self.module[index]],
            record_id=self.record_id[index],
            rank=self.rank[index],
            operation=DXT_OPS[self.op[index]],
            offset=self.offset[index],
            length=self.length[index],
            start_time=self.start[index],
            end_time=self.end[index],
            hostname=self.hostnames[self.host[index]],
        )

    def __iter__(self) -> Iterator[DxtSegment]:
        return (self[index] for index in range(len(self)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DxtTable):
            return NotImplemented
        return (
            self.hostnames == other.hostnames
            and self.columns() == other.columns()
        )

    def __repr__(self) -> str:
        return f"DxtTable({len(self)} segments, {len(self.hostnames)} hosts)"
