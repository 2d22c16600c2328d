"""Unit and property tests for Lustre striping math.

The data path splits each access into per-stripe chunks; the chunk
tests observe that split from a run of one (``LustreFilesystem.io``),
by logging where each chunk ends on its OST.
"""

from __future__ import annotations

from typing import NamedTuple

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.lustre.filesystem import Inode, LustreConfig, LustreFilesystem
from repro.lustre.layout import StripeLayout
from repro.util.units import MIB


def layout(stripe_size=MIB, osts=(0, 1, 2, 3)):
    return StripeLayout(stripe_size=stripe_size, ost_ids=tuple(osts))


class Chunk(NamedTuple):
    ost: int
    stripe_index: int
    offset: int
    length: int


class _ChunkEnds(dict):
    """An OST's last-end-offset table that logs every chunk end."""

    def __init__(self, ost: int, log: list[tuple[int, int]]) -> None:
        super().__init__()
        self.ost = ost
        self.log = log

    def __setitem__(self, file_id: int, end: int) -> None:
        self.log.append((self.ost, end))
        super().__setitem__(file_id, end)


def run_chunks(lo: StripeLayout, offset: int, length: int) -> list[Chunk]:
    """The chunks a one-op write of ``[offset, offset + length)`` makes."""
    osts = max(lo.ost_ids) + 1
    fs = LustreFilesystem(LustreConfig(ost_count=osts, default_stripe_count=1))
    log: list[tuple[int, int]] = []
    for ost, server in enumerate(fs.osts.servers):
        server.last_end_offset = _ChunkEnds(ost, log)
    fs.io(Inode(path="/lustre/chunks", file_id=1, layout=lo), 0, "write",
          offset, length, 0.0)
    found = []
    position = offset
    for ost, end in log:
        found.append(Chunk(ost, position // lo.stripe_size, position, end - position))
        position = end
    return found


class TestConstruction:
    def test_zero_stripe_size_rejected(self):
        with pytest.raises(ValueError):
            StripeLayout(stripe_size=0, ost_ids=(0,))

    def test_empty_osts_rejected(self):
        with pytest.raises(ValueError):
            StripeLayout(stripe_size=MIB, ost_ids=())

    def test_duplicate_osts_rejected(self):
        with pytest.raises(ValueError):
            StripeLayout(stripe_size=MIB, ost_ids=(1, 1))

    def test_stripe_count(self):
        assert layout().stripe_count == 4


class TestMapping:
    def test_round_robin(self):
        lo = layout()
        assert lo.ost_for(0) == 0
        assert lo.ost_for(MIB) == 1
        assert lo.ost_for(4 * MIB) == 0

    def test_stripe_index(self):
        lo = layout()
        assert lo.stripe_index(0) == 0
        assert lo.stripe_index(MIB - 1) == 0
        assert lo.stripe_index(MIB) == 1

    def test_negative_offset_rejected(self):
        with pytest.raises(ValueError):
            layout().stripe_index(-1)

    def test_is_aligned(self):
        lo = layout()
        assert lo.is_aligned(0)
        assert lo.is_aligned(2 * MIB)
        assert not lo.is_aligned(1)

    def test_stripes_touched(self):
        lo = layout()
        assert lo.stripes_touched(0, 1) == [0]
        assert lo.stripes_touched(MIB - 1, 2) == [0, 1]
        assert lo.stripes_touched(0, 0) == []


class TestChunks:
    def test_single_stripe_access(self):
        chunks = run_chunks(layout(), 10, 100)
        assert len(chunks) == 1
        assert chunks[0].offset == 10
        assert chunks[0].length == 100
        assert chunks[0].ost == 0

    def test_boundary_split(self):
        chunks = run_chunks(layout(), MIB - 10, 20)
        assert [c.length for c in chunks] == [10, 10]
        assert [c.ost for c in chunks] == [0, 1]

    def test_zero_length(self):
        assert run_chunks(layout(), 100, 0) == []

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            run_chunks(layout(), -1, 10)

    @given(
        offset=st.integers(0, 64 * MIB),
        length=st.integers(0, 16 * MIB),
        stripe_size=st.sampled_from([4096, 65536, MIB]),
        nosts=st.integers(1, 8),
    )
    def test_chunks_exactly_tile_the_extent(self, offset, length, stripe_size, nosts):
        lo = StripeLayout(stripe_size=stripe_size, ost_ids=tuple(range(nosts)))
        found = run_chunks(lo, offset, length)
        assert sum(c.length for c in found) == length
        position = offset
        for chunk in found:
            assert chunk.offset == position
            assert chunk.length > 0
            # Each chunk stays within one stripe on the right OST.
            first = lo.stripe_index(chunk.offset)
            last = lo.stripe_index(chunk.offset + chunk.length - 1)
            assert first == last == chunk.stripe_index
            assert chunk.ost == lo.ost_for(chunk.offset)
            position += chunk.length
        assert position == offset + length

    @given(
        offset=st.integers(0, 32 * MIB),
        length=st.integers(1, 8 * MIB),
    )
    def test_stripes_touched_matches_chunks(self, offset, length):
        lo = layout()
        chunk_stripes = [c.stripe_index for c in run_chunks(lo, offset, length)]
        assert chunk_stripes == lo.stripes_touched(offset, length)
