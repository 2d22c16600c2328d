"""Lustre striping math: mapping file extents onto OSTs.

A Lustre file is striped round-robin over ``stripe_count`` OSTs in
units of ``stripe_size`` bytes, starting at OST index
``stripe_offset`` within the file's OST list.  Everything downstream —
RPC accounting, lock conflicts, the LUSTRE Darshan module — is a pure
function of this mapping.  The data path (:mod:`repro.iosim.datapath`)
splits each access into per-stripe chunks with the same arithmetic as
:meth:`StripeLayout.stripe_index` and :meth:`StripeLayout.ost_for`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class StripeLayout:
    """Striping of one file over a concrete list of OST ids."""

    stripe_size: int
    ost_ids: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.stripe_size <= 0:
            raise ValueError(f"stripe_size must be positive, got {self.stripe_size}")
        if not self.ost_ids:
            raise ValueError("a layout needs at least one OST")
        if len(set(self.ost_ids)) != len(self.ost_ids):
            raise ValueError(f"duplicate OST ids in layout: {self.ost_ids}")

    @property
    def stripe_count(self) -> int:
        """Number of OSTs the file is striped over (stripe width)."""
        return len(self.ost_ids)

    def stripe_index(self, offset: int) -> int:
        """Global stripe number containing byte ``offset``."""
        if offset < 0:
            raise ValueError(f"offset must be non-negative, got {offset}")
        return offset // self.stripe_size

    def ost_for(self, offset: int) -> int:
        """OST id storing byte ``offset``."""
        return self.ost_ids[self.stripe_index(offset) % self.stripe_count]

    def stripes_touched(self, offset: int, length: int) -> list[int]:
        """Distinct stripe indices overlapped by an access."""
        if length == 0:
            return []
        first = self.stripe_index(offset)
        last = self.stripe_index(offset + length - 1)
        return list(range(first, last + 1))

    def is_aligned(self, offset: int) -> bool:
        """Whether ``offset`` falls on a stripe boundary."""
        return offset % self.stripe_size == 0
