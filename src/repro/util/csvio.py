"""Minimal CSV helpers shared by the extractor, expert model, and tests.

The ION pipeline moves data between stages as CSV files (that is the
paper's interchange format), so reading and writing rows of dicts with a
stable header order is done in exactly one place.
"""

from __future__ import annotations

import csv
import io
from itertools import islice
from pathlib import Path
from typing import Iterable, Mapping, Sequence

#: Row terminator of every CSV written here (the ``excel`` dialect's).
LINE_END = csv.excel.lineterminator


def write_rows(
    path: str | Path,
    fieldnames: Sequence[str],
    rows: Iterable[Mapping[str, object]],
) -> int:
    """Write ``rows`` to ``path`` with the given header; return row count.

    Missing keys are emitted as empty cells; extra keys raise, because a
    producer emitting undeclared columns is a bug worth failing loudly on.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    count = 0
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(fieldnames), restval="")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
            count += 1
    return count


def write_lines(
    path: str | Path, fieldnames: Sequence[str], lines: Iterable[str]
) -> int:
    """Write a header then pre-formatted rows; return the row count.

    For producers too hot for :func:`write_rows`: each line must already
    be a complete row, quoted as :func:`csv_field` quotes and ending in
    :data:`LINE_END`, so the file is byte-identical to what
    :func:`write_rows` writes for the same cells.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = iter(lines)
    count = 0
    with path.open("w", newline="") as handle:
        csv.writer(handle).writerow(fieldnames)
        while chunk := list(islice(lines, 512)):
            handle.write("".join(chunk))
            count += len(chunk)
    return count


def csv_field(value: str) -> str:
    """``value`` quoted as :func:`write_rows` quotes a cell within a row."""
    buffer = io.StringIO()
    csv.writer(buffer).writerow(("", value))
    return buffer.getvalue()[1 : -len(LINE_END)]


def read_rows(path: str | Path) -> list[dict[str, str]]:
    """Read every row of a CSV file as a dict of strings."""
    with Path(path).open(newline="") as handle:
        return list(csv.DictReader(handle))


def read_typed_rows(path: str | Path) -> list[dict[str, object]]:
    """Read a CSV file, converting cells to int/float where they parse.

    This mirrors what the analysis code generated by the expert model
    does with pandas-style inference, without requiring pandas.
    """
    typed: list[dict[str, object]] = []
    for row in read_rows(path):
        converted: dict[str, object] = {}
        for key, cell in row.items():
            converted[key] = coerce_cell(cell)
        typed.append(converted)
    return typed


def coerce_cell(cell: str) -> object:
    """Convert one CSV cell to int or float when possible, else keep str."""
    if cell == "":
        return ""
    try:
        return int(cell)
    except ValueError:
        pass
    try:
        return float(cell)
    except ValueError:
        return cell
