"""The simulated Lustre filesystem: namespace, layouts, and op costs.

:class:`LustreFilesystem` owns the MDS, the OST array, the extent lock
manager, and a namespace of striped files.  Metadata operations
(create, open, close, stat, unlink) are priced here.  Reads and writes
are executed in *runs* by the fused data path,
:func:`repro.iosim.datapath.execute_run`, which prices stripe chunks,
takes extent locks and queues the OSTs in one frame per run;
:meth:`LustreFilesystem.io` is a run of one over it without Darshan
instrumentation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.lustre.layout import StripeLayout
from repro.lustre.locks import ExtentLockManager
from repro.lustre.ost import MetadataServer, OstArray, ServerCosts
from repro.util.errors import FilesystemError
from repro.util.ids import file_record_id
from repro.util.units import MIB


@dataclass
class LustreConfig:
    """Cluster-wide filesystem settings.

    ``rpc_size`` is the client RPC cap (the paper's systems use 4 MiB);
    ``default_stripe_size``/``count`` apply to files created without an
    explicit layout.  ``file_alignment`` is what Darshan reports as
    POSIX_FILE_ALIGNMENT; on Lustre deployments this is the stripe size.
    """

    ost_count: int = 8
    default_stripe_size: int = MIB
    default_stripe_count: int = 4
    rpc_size: int = 4 * MIB
    mem_alignment: int = 8
    costs: ServerCosts = field(default_factory=ServerCosts)

    def __post_init__(self) -> None:
        if self.default_stripe_count > self.ost_count:
            raise FilesystemError(
                f"stripe count {self.default_stripe_count} exceeds "
                f"OST count {self.ost_count}"
            )
        if self.rpc_size <= 0 or self.default_stripe_size <= 0:
            raise FilesystemError("rpc_size and stripe_size must be positive")

    @property
    def file_alignment(self) -> int:
        return self.default_stripe_size


@dataclass
class Inode:
    """One file in the namespace."""

    path: str
    file_id: int
    layout: StripeLayout
    size: int = 0
    open_count: int = 0


@dataclass(frozen=True)
class IoResult:
    """Completion time plus the facts Darshan instrumentation records."""

    completion: float
    rpcs: int
    stripes: tuple[int, ...]
    revocations: int
    file_aligned: bool
    mem_aligned: bool


class LustreFilesystem:
    """A namespace of striped files over an OST array and one MDS."""

    def __init__(self, config: LustreConfig | None = None) -> None:
        self.config = config or LustreConfig()
        self.osts = OstArray(self.config.ost_count)
        self.mds = MetadataServer(self.config.costs)
        self.locks = ExtentLockManager()
        self._files: dict[str, Inode] = {}
        self._next_ost = itertools.count()

    # -- namespace ----------------------------------------------------

    def _make_layout(
        self, stripe_size: int | None, stripe_count: int | None
    ) -> StripeLayout:
        size = stripe_size or self.config.default_stripe_size
        count = stripe_count or self.config.default_stripe_count
        if count > self.osts.count:
            raise FilesystemError(
                f"stripe count {count} exceeds OST count {self.osts.count}"
            )
        start = next(self._next_ost) % self.osts.count
        ids = tuple((start + i) % self.osts.count for i in range(count))
        return StripeLayout(stripe_size=size, ost_ids=ids)

    def create(
        self,
        path: str,
        arrival: float,
        stripe_size: int | None = None,
        stripe_count: int | None = None,
    ) -> tuple[Inode, float]:
        """Create a file (MDS op); returns (inode, completion time)."""
        if path in self._files:
            raise FilesystemError(f"{path!r} already exists")
        inode = Inode(
            path=path,
            file_id=file_record_id(path),
            layout=self._make_layout(stripe_size, stripe_count),
        )
        self._files[path] = inode
        completion = self.mds.metadata_op(arrival, weight=2.0)
        return inode, completion

    def lookup(self, path: str) -> Inode:
        """Resolve a path; raises FilesystemError when absent."""
        try:
            return self._files[path]
        except KeyError:
            raise FilesystemError(f"no such file: {path!r}") from None

    def exists(self, path: str) -> bool:
        return path in self._files

    def open(
        self,
        path: str,
        arrival: float,
        create: bool = True,
        stripe_size: int | None = None,
        stripe_count: int | None = None,
    ) -> tuple[Inode, float]:
        """Open (and maybe create) a file; returns (inode, completion)."""
        if path in self._files:
            inode = self._files[path]
            completion = self.mds.metadata_op(arrival)
        elif create:
            inode, completion = self.create(path, arrival, stripe_size, stripe_count)
        else:
            raise FilesystemError(f"no such file: {path!r}")
        inode.open_count += 1
        return inode, completion

    def close(self, inode: Inode, arrival: float) -> float:
        """Close one handle; drops the file's locks on the last close."""
        if inode.open_count <= 0:
            raise FilesystemError(f"{inode.path!r} is not open")
        inode.open_count -= 1
        if inode.open_count == 0:
            self.locks.release_all(inode.file_id)
        return arrival + self.config.costs.client_op_overhead

    def stat(self, path: str, arrival: float) -> float:
        """Stat a path; returns completion time."""
        self.lookup(path)
        return self.mds.metadata_op(arrival)

    def unlink(self, path: str, arrival: float) -> float:
        """Remove a file; returns completion time."""
        inode = self.lookup(path)
        self.locks.release_all(inode.file_id)
        del self._files[path]
        return self.mds.metadata_op(arrival, weight=2.0)

    def files(self) -> list[Inode]:
        """Every inode currently in the namespace."""
        return sorted(self._files.values(), key=lambda inode: inode.path)

    # -- data path ----------------------------------------------------

    def io(
        self,
        inode: Inode,
        rank: int,
        operation: str,
        offset: int,
        length: int,
        arrival: float,
        mem_aligned: bool = True,
    ) -> IoResult:
        """Execute one read or write; returns the cost breakdown.

        Per-stripe chunks proceed in parallel across OSTs; the op
        completes when the slowest chunk does.  Lock revocations charge
        the affected OST before the transfer starts.  This is a run of
        one over the data path, with no rank clock and no Darshan
        records.
        """
        from repro.iosim.datapath import OpenFile, execute_run

        clocks = {rank: arrival}
        totals = execute_run(
            self,
            None,
            operation,
            ((rank, 0, offset, length),),
            {rank: {0: OpenFile(inode)}},
            clocks,
            mem_aligned=mem_aligned,
        )
        return IoResult(
            completion=clocks[rank],
            rpcs=totals.rpcs,
            stripes=tuple(inode.layout.stripes_touched(offset, length)),
            revocations=totals.revocations,
            file_aligned=not totals.misaligned,
            mem_aligned=mem_aligned,
        )
