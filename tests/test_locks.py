"""Tests for the extent lock manager.

Locks are taken by the data path, so these tests take them through
runs of one (``LustreFilesystem.io``): a one-byte read or write at the
start of a stripe takes that stripe's lock.
"""

from __future__ import annotations

from repro.lustre.filesystem import LustreConfig, LustreFilesystem
from repro.lustre.locks import ExtentLockManager
from repro.util.units import MIB


class Stripes:
    """The lock manager of a small filesystem, driven by one-byte ops.

    Files are named by small integers; each is created on first use,
    already 16 MiB long so that reads stay inside it.
    """

    def __init__(self) -> None:
        self.fs = LustreFilesystem(
            LustreConfig(ost_count=2, default_stripe_size=MIB, default_stripe_count=2)
        )
        self._inodes = {}

    @property
    def stats(self):
        return self.fs.locks.stats

    def _inode(self, file: int):
        if file not in self._inodes:
            inode, _ = self.fs.open(f"/lustre/locks/{file}", 0.0)
            inode.size = 16 * MIB
            self._inodes[file] = inode
        return self._inodes[file]

    def acquire(self, file: int, stripe: int, rank: int, write: bool) -> int:
        """Take ``stripe``'s lock for ``rank``; return the revocations."""
        operation = "write" if write else "read"
        result = self.fs.io(self._inode(file), rank, operation, stripe * MIB, 1, 0.0)
        return result.revocations

    def holders(self, file: int, stripe: int) -> set[int]:
        return self.fs.locks.holders(self._inode(file).file_id, stripe)

    def release_all(self, file: int) -> None:
        self.fs.locks.release_all(self._inode(file).file_id)


class TestSharedReads:
    def test_readers_share_without_conflict(self):
        locks = Stripes()
        assert locks.acquire(1, 0, rank=0, write=False) == 0
        assert locks.acquire(1, 0, rank=1, write=False) == 0
        assert locks.stats.conflicts == 0
        assert locks.holders(1, 0) == {0, 1}

    def test_reacquire_same_rank_free(self):
        locks = Stripes()
        locks.acquire(1, 0, rank=0, write=True)
        assert locks.acquire(1, 0, rank=0, write=True) == 0
        assert locks.stats.conflicts == 0


class TestWriteConflicts:
    def test_write_revokes_other_writer(self):
        locks = Stripes()
        locks.acquire(1, 0, rank=0, write=True)
        revoked = locks.acquire(1, 0, rank=1, write=True)
        assert revoked == 1
        assert locks.stats.conflicts == 1
        assert locks.holders(1, 0) == {1}

    def test_write_revokes_all_readers(self):
        locks = Stripes()
        for rank in range(3):
            locks.acquire(1, 0, rank=rank, write=False)
        revoked = locks.acquire(1, 0, rank=9, write=True)
        assert revoked == 3
        assert locks.holders(1, 0) == {9}

    def test_read_revokes_foreign_writer(self):
        locks = Stripes()
        locks.acquire(1, 0, rank=0, write=True)
        revoked = locks.acquire(1, 0, rank=1, write=False)
        assert revoked == 1
        assert locks.holders(1, 0) == {1}

    def test_writer_then_own_read_keeps_lock(self):
        locks = Stripes()
        locks.acquire(1, 0, rank=0, write=True)
        assert locks.acquire(1, 0, rank=0, write=False) == 0

    def test_write_revokes_readers_and_writer_combo(self):
        locks = Stripes()
        locks.acquire(1, 0, rank=0, write=False)
        locks.acquire(1, 0, rank=1, write=False)
        # Writer revokes both readers.
        assert locks.acquire(1, 0, rank=2, write=True) == 2
        # New writer revokes old writer only.
        assert locks.acquire(1, 0, rank=3, write=True) == 1


class TestIsolation:
    def test_different_stripes_do_not_conflict(self):
        locks = Stripes()
        locks.acquire(1, 0, rank=0, write=True)
        assert locks.acquire(1, 1, rank=1, write=True) == 0

    def test_different_files_do_not_conflict(self):
        locks = Stripes()
        locks.acquire(1, 0, rank=0, write=True)
        assert locks.acquire(2, 0, rank=1, write=True) == 0

    def test_release_all_clears_file(self):
        locks = Stripes()
        locks.acquire(1, 0, rank=0, write=True)
        locks.release_all(1)
        assert locks.holders(1, 0) == set()
        assert locks.acquire(1, 0, rank=1, write=True) == 0

    def test_release_unknown_file_is_noop(self):
        ExtentLockManager().release_all(42)

    def test_stats_accumulate(self):
        locks = Stripes()
        locks.acquire(1, 0, rank=0, write=True)
        locks.acquire(1, 0, rank=1, write=True)
        locks.acquire(1, 0, rank=0, write=True)
        assert locks.stats.acquisitions == 3
        assert locks.stats.revocations == 2
