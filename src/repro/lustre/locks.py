"""A simplified LDLM-style extent lock manager.

Lustre serializes conflicting access to a stripe through distributed
extent locks granted by each OST.  When a client touches a stripe whose
lock is held by a different client, the holder's lock must be revoked
(a round trip plus cache flush).  ION never *sees* this component — it
diagnoses contention from the trace alone — but the lock manager makes
shared-file contention *cost time*, so time/variance counters in the
trace reflect the pathology the way a real system's would.

The model: one lock per (file, stripe).  A lock is held by a set of
ranks; reads share, writes are exclusive.  Acquiring a write lock on a
stripe held by other ranks (or a read lock on a write-held stripe)
revokes each displaced holder.  The manager owns the tables and the
counters; the data path (:mod:`repro.iosim.datapath`) takes the locks.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(slots=True)
class StripeLock:
    """The holders of one stripe's lock: shared readers or one writer."""

    readers: set[int] = field(default_factory=set)
    writer: int | None = None


@dataclass
class LockStats:
    """Counters the cost model and tests read back."""

    acquisitions: int = 0
    conflicts: int = 0
    revocations: int = 0


class ExtentLockManager:
    """Per-file stripe lock table with conflict accounting."""

    def __init__(self) -> None:
        self._tables: dict[int, dict[int, StripeLock]] = {}
        self.stats = LockStats()

    def table(self, file_id: int) -> dict[int, StripeLock]:
        """The stripe -> lock table of one file, created on first use.

        The data path (:mod:`repro.iosim.datapath`) takes and revokes
        locks in this table and adds its counts to :attr:`stats`.
        """
        table = self._tables.get(file_id)
        if table is None:
            table = self._tables[file_id] = {}
        return table

    def release_all(self, file_id: int) -> None:
        """Drop every lock on one file (called at last close)."""
        self._tables.pop(file_id, None)

    def holders(self, file_id: int, stripe: int) -> set[int]:
        """Ranks currently holding the stripe (readers plus writer)."""
        table = self._tables.get(file_id, {})
        lock = table.get(stripe)
        if lock is None:
            return set()
        held = set(lock.readers)
        if lock.writer is not None:
            held.add(lock.writer)
        return held
