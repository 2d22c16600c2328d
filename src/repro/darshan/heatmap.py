"""I/O activity heatmaps (Darshan 3.4's HEATMAP module equivalent).

Real Darshan records per-rank, time-binned read/write byte counts so
tools like PyDarshan can plot when each rank was doing I/O.  We derive
the same matrix from DXT segments: bytes are attributed to time bins
pro-rata to each operation's overlap with the bin, so totals are
conserved exactly.

The ASCII rendering gives the classic at-a-glance diagnosis surface:
a rank-0 fill phase shows as one hot row before everyone else starts,
collective aggregation shows as a few hot rows, balanced I/O as a
uniform field.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

from repro.darshan.log import DarshanLog
from repro.darshan.records import DXT_MODULES, DXT_OPS
from repro.util.errors import ReproError
from repro.util.units import format_size

_SHADES = " .:-=+*#%@"


@dataclass
class Heatmap:
    """Bytes moved per (rank, time bin), split by direction."""

    bin_width: float
    start_time: float
    ranks: list[int]
    read_bins: dict[int, list[float]] = field(default_factory=dict)
    write_bins: dict[int, list[float]] = field(default_factory=dict)

    @property
    def nbins(self) -> int:
        if not self.read_bins:
            return 0
        return len(next(iter(self.read_bins.values())))

    def total_bytes(self, rank: int) -> float:
        """All bytes moved by one rank."""
        return sum(self.read_bins[rank]) + sum(self.write_bins[rank])

    def combined(self, rank: int) -> list[float]:
        """Read+write bytes per bin for one rank."""
        return [
            r + w for r, w in zip(self.read_bins[rank], self.write_bins[rank])
        ]

    def peak(self) -> float:
        """The hottest single (rank, bin) cell."""
        peak = 0.0
        for rank in self.ranks:
            peak = max(peak, max(self.combined(rank), default=0.0))
        return peak


def build_heatmap(log: DarshanLog, nbins: int = 48) -> Heatmap:
    """Bin the log's DXT segments into a per-rank time heatmap."""
    if nbins <= 0:
        raise ReproError("heatmap needs at least one time bin")
    if not log.has_dxt:
        raise ReproError(
            "heatmap requires DXT data (the trace was collected without "
            "extended tracing)"
        )
    start = log.job.start_time
    end = max(log.job.end_time, start + 1e-9)
    span = end - start
    bin_width = span / nbins
    table = log.dxt
    ranks = sorted(set(table.rank))
    heatmap = Heatmap(
        bin_width=bin_width,
        start_time=start,
        ranks=ranks,
        read_bins={rank: [0.0] * nbins for rank in ranks},
        write_bins={rank: [0.0] * nbins for rank in ranks},
    )
    for module, op, rank, length, seg_start, seg_end in zip(
        table.module, table.op, table.rank, table.length, table.start, table.end
    ):
        if DXT_MODULES[module] != "X_POSIX":
            continue  # count physical transfers once (MPI-IO wraps POSIX)
        bins = (
            heatmap.read_bins if DXT_OPS[op] == "read" else heatmap.write_bins
        )[rank]
        seg_start = max(seg_start, start)
        seg_end = min(max(seg_end, seg_start), end)
        duration = seg_end - seg_start
        if duration <= 0:
            index = min(int((seg_start - start) / bin_width), nbins - 1)
            bins[index] += length
            continue
        first = min(int((seg_start - start) / bin_width), nbins - 1)
        last = min(int((seg_end - start) / bin_width), nbins - 1)
        for index in range(first, last + 1):
            bin_start = start + index * bin_width
            bin_end = bin_start + bin_width
            overlap = min(seg_end, bin_end) - max(seg_start, bin_start)
            if overlap > 0:
                bins[index] += length * (overlap / duration)
    return heatmap


def render_heatmap(
    log: DarshanLog, nbins: int = 48, max_rows: int = 24
) -> str:
    """Render the heatmap as ASCII art (one row per rank)."""
    heatmap = build_heatmap(log, nbins=nbins)
    peak = heatmap.peak()
    out = io.StringIO()
    out.write(
        f"I/O heatmap — {len(heatmap.ranks)} rank(s) x {heatmap.nbins} bins "
        f"of {heatmap.bin_width * 1000:.1f} ms "
        f"(cell peak {format_size(int(peak))})\n"
    )
    rows = heatmap.ranks
    folded = None
    if len(rows) > max_rows:
        # Fold ranks into groups so wide jobs stay readable.
        group = -(-len(rows) // max_rows)
        folded = group
        grouped: list[tuple[str, list[float]]] = []
        for index in range(0, len(rows), group):
            members = rows[index : index + group]
            cells = [0.0] * heatmap.nbins
            for rank in members:
                for bin_index, value in enumerate(heatmap.combined(rank)):
                    cells[bin_index] += value
            label = f"{members[0]}-{members[-1]}"
            grouped.append((label, cells))
        rendered = grouped
        peak = max((max(cells) for _, cells in grouped), default=0.0)
    else:
        rendered = [(str(rank), heatmap.combined(rank)) for rank in rows]
    for label, cells in rendered:
        line = "".join(
            _SHADES[min(
                int(value / peak * (len(_SHADES) - 1)) if peak else 0,
                len(_SHADES) - 1,
            )]
            for value in cells
        )
        out.write(f"  rank {label:>9s} |{line}|\n")
    if folded:
        out.write(f"  (each row aggregates {folded} ranks)\n")
    out.write(
        f"  time axis: 0 .. {log.job.run_time:.3f}s; "
        f"shades: '{_SHADES}' (cold..hot)\n"
    )
    return out.getvalue()
