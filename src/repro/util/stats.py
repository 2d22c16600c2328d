"""Streaming statistics used when folding I/O operations into counters.

Darshan computes per-rank aggregates (variance of bytes moved, variance
of time spent) in one pass over the operation stream; we mirror that
with Welford accumulators so the instrumentation layer never has to
buffer operations.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field


@dataclass
class RunningStats:
    """Single-pass mean/variance accumulator (Welford's algorithm)."""

    count: int = 0
    mean: float = 0.0
    _m2: float = 0.0
    minimum: float = math.inf
    maximum: float = -math.inf

    def add(self, value: float) -> None:
        """Fold one observation into the accumulator."""
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)

    @property
    def variance(self) -> float:
        """Population variance of observations so far (0.0 if < 2)."""
        if self.count < 2:
            return 0.0
        return self._m2 / self.count

    @property
    def stdev(self) -> float:
        """Population standard deviation of observations so far."""
        return math.sqrt(self.variance)

    @property
    def total(self) -> float:
        """Sum of all observations (mean * count)."""
        return self.mean * self.count

    def merge(self, other: "RunningStats") -> "RunningStats":
        """Return a new accumulator equivalent to seeing both streams."""
        if other.count == 0:
            return RunningStats(
                self.count, self.mean, self._m2, self.minimum, self.maximum
            )
        if self.count == 0:
            return RunningStats(
                other.count, other.mean, other._m2, other.minimum, other.maximum
            )
        count = self.count + other.count
        delta = other.mean - self.mean
        mean = self.mean + delta * other.count / count
        m2 = self._m2 + other._m2 + delta * delta * self.count * other.count / count
        return RunningStats(
            count,
            mean,
            m2,
            min(self.minimum, other.minimum),
            max(self.maximum, other.maximum),
        )


# Darshan's POSIX size-histogram bin edges (upper bounds, inclusive of the
# lower edge, exclusive of the upper except the final open-ended bin).
SIZE_BIN_EDGES: tuple[int, ...] = (
    100,
    1_024,
    10_240,
    102_400,
    1_048_576,
    4_194_304,
    10_485_760,
    104_857_600,
    1_073_741_824,
)

SIZE_BIN_LABELS: tuple[str, ...] = (
    "0_100",
    "100_1K",
    "1K_10K",
    "10K_100K",
    "100K_1M",
    "1M_4M",
    "4M_10M",
    "10M_100M",
    "100M_1G",
    "1G_PLUS",
)


def size_bin_index(size: int) -> int:
    """Return the Darshan histogram bin index for an access size."""
    if size < 0:
        raise ValueError(f"access size must be non-negative, got {size}")
    # The index of the first edge above ``size``.
    return bisect_right(SIZE_BIN_EDGES, size)


@dataclass
class SizeHistogram:
    """Darshan-style access-size histogram with ten fixed bins."""

    bins: list[int] = field(default_factory=lambda: [0] * len(SIZE_BIN_LABELS))

    def add(self, size: int) -> None:
        """Count one access of ``size`` bytes."""
        self.bins[size_bin_index(size)] += 1

    @property
    def total(self) -> int:
        """Total number of accesses recorded."""
        return sum(self.bins)

    def fraction_below(self, size: int) -> float:
        """Fraction of accesses strictly below ``size``.

        Only meaningful when ``size`` falls on a bin edge; used by the
        Drishti baseline, whose 1 MiB "small request" cutoff is edge 5.
        """
        if self.total == 0:
            return 0.0
        below = 0
        for index, edge in enumerate(SIZE_BIN_EDGES):
            if edge > size:
                break
            below += self.bins[index]
        return below / self.total


@dataclass
class CommonValueTracker:
    """Track the four most common access sizes, like Darshan ACCESS1..4."""

    counts: dict[int, int] = field(default_factory=dict)

    def add(self, value: int) -> None:
        """Count one occurrence of ``value``."""
        self.counts[value] = self.counts.get(value, 0) + 1

    def top(self, n: int = 4) -> list[tuple[int, int]]:
        """Return up to ``n`` (value, count) pairs, most frequent first.

        Ties break toward the smaller value so output is deterministic.
        """
        ranked = sorted(self.counts.items(), key=lambda item: (-item[1], item[0]))
        return ranked[:n]


def gini_coefficient(values: list[float]) -> float:
    """Gini coefficient of a non-negative distribution (0 = equal, ~1 = skewed).

    Used by the evaluation layer to characterise load imbalance across
    ranks independently of Drishti's percentage heuristic.
    """
    if not values:
        return 0.0
    if any(v < 0 for v in values):
        raise ValueError("gini coefficient requires non-negative values")
    total = sum(values)
    if total == 0:
        return 0.0
    ordered = sorted(values)
    n = len(ordered)
    cumulative = 0.0
    for index, value in enumerate(ordered, start=1):
        cumulative += index * value
    return (2.0 * cumulative) / (n * total) - (n + 1.0) / n
