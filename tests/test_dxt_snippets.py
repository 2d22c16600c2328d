"""The DXT analysis snippets against a frozen copy of their earlier text.

``random_access_code`` and ``shared_file_code`` read every ``DXT.csv``
row, so their generated text is tuned for speed.  This module keeps the
text they generated before that tuning (module-level row loops) as the
reference, and runs both versions through :class:`CodeInterpreter`'s
worker processes on generated extractions:

- ``DXT.csv`` with its columns in any order, ``X_MPIIO`` rows
  interleaved, awkward file paths, overlapping and repeated offsets,
  mixed reads and writes, shared and unshared files, and per-file
  ``LUSTRE.csv`` stripe sizes (or no ``LUSTRE.csv``): both print the
  same stdout;
- a ``DXT.csv`` missing a column or holding a short row: both fail with
  the same last traceback line.
"""

from __future__ import annotations

import csv
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.ion.extractor import DXT_COLUMNS
from repro.llm.expert import codegen
from repro.llm.interpreter import CodeInterpreter

#: The analysis part of ``random_access_code`` (after the header and
#: ``_READ_POSIX``), as it was generated before the tuning.
REFERENCE_RANDOM_ACCESS = """
streams = {}
if DXT_PATH:
    with open(DXT_PATH, newline="") as fh:
        reader = csv.reader(fh)
        col = {name: i for i, name in enumerate(next(reader))}
        MODULE, FILE_ID, RANK = col["module"], col["file_id"], col["rank"]
        START, OFFSET, LENGTH, OP = col["start"], col["offset"], col["length"], col["operation"]
        for row in reader:
            if row[MODULE] != "X_POSIX":
                continue
            key = (row[FILE_ID], row[RANK])
            streams.setdefault(key, []).append(
                (float(row[START]), int(row[OFFSET]), int(row[LENGTH]), row[OP])
            )
classified = 0
consecutive = 0
strided = 0
random_ops = 0
repeat_ops = 0
random_bytes = 0
total_bytes = 0
random_by_dir = {"read": 0, "write": 0}
dir_totals = {"read": 0, "write": 0}
random_per_rank = {}
for (file_id, rank), ops in streams.items():
    ops.sort()
    prev_end = None
    seen = {"read": set(), "write": set()}
    for start, offset, length, op in ops:
        total_bytes += length
        dir_totals[op] += 1
        if prev_end is not None:
            classified += 1
            if offset == prev_end:
                consecutive += 1
            elif offset > prev_end:
                strided += 1
            else:
                random_ops += 1
                random_bytes += length
                random_by_dir[op] += 1
                random_per_rank[rank] = random_per_rank.get(rank, 0) + 1
                if offset in seen[op]:
                    repeat_ops += 1
        seen[op].add(offset)
        prev_end = offset + length
if streams:
    source = "dxt"
    random_fraction = random_ops / classified if classified else 0.0
    consec_fraction = consecutive / classified if classified else 0.0
    strided_fraction = strided / classified if classified else 0.0
else:
    source = "counters"
    total_ops = sum(I(r, "POSIX_READS") + I(r, "POSIX_WRITES") for r in rows)
    seq = sum(I(r, "POSIX_SEQ_READS") + I(r, "POSIX_SEQ_WRITES") for r in rows)
    consec = sum(I(r, "POSIX_CONSEC_READS") + I(r, "POSIX_CONSEC_WRITES") for r in rows)
    classified = total_ops
    consec_fraction = consec / total_ops if total_ops else 0.0
    random_fraction = 1.0 - (seq / total_ops) if total_ops else 0.0
    strided_fraction = max(0.0, (seq - consec) / total_ops) if total_ops else 0.0
    random_ops = round(random_fraction * total_ops)
    repeat_ops = 0
    total_bytes = sum(I(r, "POSIX_BYTES_READ") + I(r, "POSIX_BYTES_WRITTEN") for r in rows)
    random_bytes = 0
    for r in rows:
        reads = I(r, "POSIX_READS")
        writes = I(r, "POSIX_WRITES")
        seq_rw = I(r, "POSIX_SEQ_READS") + I(r, "POSIX_SEQ_WRITES")
        ops_rw = reads + writes
        if ops_rw:
            frac = 1.0 - seq_rw / ops_rw
            random_bytes += int(frac * (I(r, "POSIX_BYTES_READ") + I(r, "POSIX_BYTES_WRITTEN")))
    random_by_dir = {
        "read": sum(max(0, I(r, "POSIX_READS") - I(r, "POSIX_SEQ_READS")) for r in rows),
        "write": sum(max(0, I(r, "POSIX_WRITES") - I(r, "POSIX_SEQ_WRITES")) for r in rows),
    }
    dir_totals = {
        "read": sum(I(r, "POSIX_READS") for r in rows),
        "write": sum(I(r, "POSIX_WRITES") for r in rows),
    }
rank_counts = sorted(random_per_rank.values())
print(json.dumps({
    "source": source,
    "classified_ops": classified,
    "consecutive_fraction": round(consec_fraction, 6),
    "strided_fraction": round(strided_fraction, 6),
    "random_fraction": round(random_fraction, 6),
    "random_ops": random_ops,
    "repeat_ops": repeat_ops,
    "repeat_fraction": round(repeat_ops / random_ops, 6) if random_ops else 0.0,
    "random_reads": random_by_dir["read"],
    "random_writes": random_by_dir["write"],
    "total_reads": dir_totals["read"],
    "total_writes": dir_totals["write"],
    "random_read_fraction": round(random_by_dir["read"] / dir_totals["read"], 6) if dir_totals["read"] else 0.0,
    "random_write_fraction": round(random_by_dir["write"] / dir_totals["write"], 6) if dir_totals["write"] else 0.0,
    "random_bytes": random_bytes,
    "total_bytes": total_bytes,
    "random_bytes_fraction": round(random_bytes / total_bytes, 6) if total_bytes else 0.0,
    "ranks_with_random": len(random_per_rank),
    "max_random_per_rank": rank_counts[-1] if rank_counts else 0,
    "mean_random_per_rank": round(sum(rank_counts) / len(rank_counts), 2) if rank_counts else 0.0,
}))
"""

#: The analysis part of ``shared_file_code``, likewise.
REFERENCE_SHARED_FILE = """
ranks_per_file = {}
names = {}
for row in rows:
    fid = row["file_id"]
    names[fid] = row.get("file", "")
    if int(float(row["rank"])) >= 0:
        ranks_per_file.setdefault(fid, set()).add(row["rank"])
shared_files = {fid for fid, ranks in ranks_per_file.items() if len(ranks) > 1}
stripe_by_file = {}
if LUSTRE_PATH:
    with open(LUSTRE_PATH) as fh:
        for row in csv.DictReader(fh):
            stripe_by_file[row["file_id"]] = int(float(row["LUSTRE_STRIPE_SIZE"]))
stripe_usage = {}
shared_ops = 0
if DXT_PATH and shared_files:
    with open(DXT_PATH, newline="") as fh:
        reader = csv.reader(fh)
        col = {name: i for i, name in enumerate(next(reader))}
        MODULE, FILE_ID, RANK, OP = col["module"], col["file_id"], col["rank"], col["operation"]
        OFFSET, START, END = col["offset"], col["start"], col["end"]
        for row in reader:
            if row[MODULE] != "X_POSIX" or row[FILE_ID] not in shared_files:
                continue
            shared_ops += 1
            fid = row[FILE_ID]
            stripe = int(row[OFFSET]) // stripe_by_file.get(fid, DEFAULT_STRIPE)
            key = (fid, stripe)
            per_rank = stripe_usage.setdefault(key, {})
            start, end = float(row[START]), float(row[END])
            # stats per rank: [ops, all_lo, all_hi, write_lo, write_hi]
            stats = per_rank.setdefault(row[RANK], [0, start, end, None, None])
            stats[0] += 1
            stats[1] = min(stats[1], start)
            stats[2] = max(stats[2], end)
            if row[OP] == "write":
                stats[3] = start if stats[3] is None else min(stats[3], start)
                stats[4] = end if stats[4] is None else max(stats[4], end)
contended_stripes = 0
contended_ops = 0
max_ranks_per_stripe = 0
two_rank_stripes = 0
for key, per_rank in stripe_usage.items():
    if len(per_rank) < 2:
        continue
    # Lock conflicts need a writer: concurrent readers share the
    # extent lock without revocations.  A stripe is contended when some
    # rank's WRITE interval overlaps another rank's access interval.
    entries = list(per_rank.items())
    overlapping = False
    for rank_a, stats_a in entries:
        if stats_a[3] is None:
            continue
        for rank_b, stats_b in entries:
            if rank_b == rank_a:
                continue
            if stats_a[3] < stats_b[2] and stats_b[1] < stats_a[4]:
                overlapping = True
                break
        if overlapping:
            break
    if overlapping:
        contended_stripes += 1
        contended_ops += sum(stats[0] for stats in per_rank.values())
        max_ranks_per_stripe = max(max_ranks_per_stripe, len(per_rank))
        if len(per_rank) == 2:
            two_rank_stripes += 1
boundary_only = contended_stripes > 0 and two_rank_stripes == contended_stripes
print(json.dumps({
    "shared_files": len(shared_files),
    "shared_file_names": sorted(names[fid] for fid in shared_files)[:4],
    "max_ranks_per_file": max((len(r) for r in ranks_per_file.values()), default=0),
    "dxt_available": bool(DXT_PATH),
    "shared_ops": shared_ops,
    "contended_stripes": contended_stripes,
    "contended_ops": contended_ops,
    "contended_fraction": round(contended_ops / shared_ops, 6) if shared_ops else 0.0,
    "max_ranks_per_stripe": max_ranks_per_stripe,
    "boundary_only": boundary_only,
}))
"""

#: The ``POSIX.csv`` columns the two snippets read.
POSIX_FIELDS = (
    "file_id", "rank", "file", "POSIX_READS", "POSIX_WRITES", "POSIX_SEQ_READS",
    "POSIX_SEQ_WRITES", "POSIX_CONSEC_READS", "POSIX_CONSEC_WRITES",
    "POSIX_BYTES_READ", "POSIX_BYTES_WRITTEN",
)

#: The ``DXT.csv`` columns each snippet reads.
READ_COLUMNS = {
    "random_access": (
        "module", "file_id", "rank", "start", "offset", "length", "operation",
    ),
    "shared_file": (
        "module", "file_id", "rank", "operation", "offset", "start", "end",
    ),
}

#: Stripe sizes small enough that a handful of offsets cross stripes.
STRIPES = (64, 100, 4096)

#: Offsets on and beside those stripe boundaries, so ops overlap and repeat.
OFFSETS = (0, 1, 36, 63, 64, 99, 100, 128, 200, 4095, 4096, 8192)


def reference_random_access_code(posix_path, dxt_path) -> str:
    return (
        codegen._header(
            POSIX_PATH=posix_path, DXT_PATH=str(dxt_path) if dxt_path else ""
        )
        + codegen._READ_POSIX
        + REFERENCE_RANDOM_ACCESS
    )


def reference_shared_file_code(posix_path, lustre_path, dxt_path, stripe_size) -> str:
    return (
        codegen._header(
            POSIX_PATH=posix_path,
            LUSTRE_PATH=str(lustre_path) if lustre_path else "",
            DXT_PATH=str(dxt_path) if dxt_path else "",
            DEFAULT_STRIPE=stripe_size,
        )
        + codegen._READ_POSIX
        + REFERENCE_SHARED_FILE
    )


_paths = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
    max_size=12,
)

_ops = st.tuples(
    st.sampled_from(("X_POSIX", "X_POSIX", "X_POSIX", "X_MPIIO")),
    st.integers(0, 2),  # file index, modulo the file count
    st.sampled_from((0, 0, 1, 1, 2, 3)),  # rank: few streams, so more ops each
    st.sampled_from(("read", "write")),
    # Mostly on or beside stripe boundaries, so ranks meet on stripes.
    st.one_of(
        st.sampled_from(OFFSETS), st.sampled_from(OFFSETS), st.integers(0, 10_000)
    ),
    st.sampled_from((0, 1, 36, 64, 100, 4096)),
    st.integers(0, 20),  # start, in ms: few values, so starts tie
    st.integers(0, 40),  # duration, in half ms: intervals overlap
)


def _case(
    files,
    ops,
    columns=DXT_COLUMNS,
    counters=None,
    lustre=None,
    dxt=True,
    default_stripe=64,
) -> dict:
    """CSV contents for one extraction.

    ``files`` holds ``(file_id, path, ranks)``; each op is ``(module,
    file index, rank, operation, offset, length, start ms, duration in
    half ms)``; ``counters`` holds each POSIX row's counter values, in
    file then rank order (zeros if None); ``lustre`` maps a file index to
    its stripe size, or is None for no ``LUSTRE.csv``.
    """
    ranked = [(file_id, path, rank) for file_id, path, ranks in files for rank in ranks]
    counters = counters or [[0] * len(POSIX_FIELDS[3:])] * len(ranked)
    rows = []
    for segment, op_fields in enumerate(ops):
        module, index, rank, op, offset, length, start, duration = op_fields
        file_id, path, _ranks = files[index % len(files)]
        cells = {
            "module": module, "rank": str(rank), "operation": op,
            "segment": str(segment), "offset": str(offset), "length": str(length),
            "start": f"{start / 1000:.9f}",
            "end": f"{(start + duration / 2) / 1000:.9f}",
            "file_id": file_id, "file": path,
        }
        rows.append([cells[name] for name in columns])
    return {
        "posix": [
            [file_id, str(rank), path] + [str(value) for value in values]
            for (file_id, path, rank), values in zip(ranked, counters)
        ],
        "dxt_columns": list(columns),
        "dxt": rows if dxt else None,
        "lustre": None if lustre is None else [
            [files[index][0], "-1", files[index][1], str(stripe)]
            for index, stripe in sorted(lustre.items())
        ],
        "default_stripe": default_stripe,
        "shared_files": [f[0] for f in files if sum(r >= 0 for r in f[2]) > 1],
    }


@st.composite
def extractions(draw, shared: bool = False) -> dict:
    """A drawn :func:`_case`.

    With ``shared``, file 0 is shared (two ranks) and has a POSIX DXT
    row, so ``shared_file_code`` reads ``DXT.csv`` to its end.
    """
    count = draw(st.integers(1, 3))
    ids = draw(
        st.lists(st.integers(0, 2**64 - 1), min_size=count, max_size=count, unique=True)
    )
    files = []
    for index, file_id in enumerate(ids):
        ranks = draw(st.sets(st.integers(-1, 3), min_size=1, max_size=4))
        if shared and index == 0:
            ranks |= {0, 1}
        files.append((str(file_id), draw(_paths), sorted(ranks)))
    width = len(POSIX_FIELDS) - 3
    counters = [
        draw(st.lists(st.integers(0, 50), min_size=width, max_size=width))
        for _file_id, _path, ranks in files
        for _rank in ranks
    ]
    ops = draw(st.lists(_ops, max_size=80))
    if shared:
        ops.insert(draw(st.integers(0, len(ops))), ("X_POSIX", 0) + draw(_ops)[2:])
    if draw(st.booleans()):
        # Starts rising in file order, as the extractor writes them:
        # every stream is walked in place, unsorted.
        ops = [op[:6] + (index,) + op[7:] for index, op in enumerate(ops)]
    lustre = None
    if draw(st.booleans()):
        stripes = st.sampled_from((None,) + STRIPES)
        lustre = {
            index: stripe
            for index in range(count)
            if (stripe := draw(stripes)) is not None
        }
    return _case(
        files,
        ops,
        columns=draw(st.permutations(DXT_COLUMNS)),
        counters=counters,
        lustre=lustre,
        dxt=shared or draw(st.integers(0, 3)) > 0,
        default_stripe=draw(st.sampled_from(STRIPES + (1048576,))),
    )


#: Starts that are NaN, infinite, signed zeros or tied: such streams
#: are sorted as tuples, exactly as the reference sorts them.
UNORDERED_STARTS = _case(
    [("7", "/shared", [0, 1]), ("8", "/other", [2])],
    [
        ("X_POSIX", 0, 0, "write", 0, 10, 2, 4),
        ("X_POSIX", 0, 0, "write", 64, 10, float("nan"), 4),
        ("X_POSIX", 0, 0, "read", 0, 10, 3, 4),
        ("X_POSIX", 0, 1, "read", 20, 10, float("inf"), 2),
        ("X_POSIX", 0, 1, "write", 20, 10, 5, 2),
        ("X_POSIX", 0, 1, "read", 40, 10, float("-inf"), 20),
        ("X_POSIX", 1, 2, "write", 100, 36, 0.0, 1),
        ("X_POSIX", 1, 2, "write", 36, 64, -0.0, 1),
        ("X_POSIX", 1, 2, "read", 0, 36, 0.0, 1),
    ],
)

#: Quoted paths that only ``csv.reader`` reads right.  In a middle
#: column, a comma shifts every split field after it.  After a line
#: break, a path can hold what looks like a whole X_POSIX row: the
#: line that carries it must be parsed as part of its X_MPIIO row.
QUOTED_PATHS = _case(
    [("7", 'a,"b', [0, 1]), ("8", "p\nX_POSIX,1,write,9,64,10,0.5,0.6,8,q", [0, 1])],
    [
        ("X_POSIX", 0, 0, "write", 0, 10, 1, 4),
        ("X_POSIX", 0, 1, "write", 5, 10, 2, 4),
        ("X_MPIIO", 1, 1, "read", 0, 10, 3, 4),
        ("X_POSIX", 1, 0, "read", 64, 10, 4, 4),
    ],
    columns=("module", "file") + tuple(c for c in DXT_COLUMNS if c not in ("module", "file")),
)


def _cut_row(cells: list[str]) -> tuple[dict, list[str]]:
    """A shared-file extraction whose second POSIX row is ``cells``."""
    case = _case(
        [("7", "/shared", [0, 1])],
        [("X_POSIX", 0, rank, "write", 64 * rank, 64, rank, 1) for rank in (0, 1, 0)],
    )
    case["dxt"][1] = cells
    return case, list(READ_COLUMNS)


#: Short rows that start with the module: a lone ``X_POSIX`` field and a
#: blank line.  Both snippets fail on them, as the reference does.
ONE_FIELD_ROW = _cut_row(["X_POSIX"])
BLANK_ROW = _cut_row([])

#: Two odd operations in one stream, the later one first in time: the
#: reference fails on ``'stat'``, when it classifies, not on ``'open'``,
#: the first it reads.
ODD_OPERATIONS = (
    _case(
        [("7", "/shared", [0, 1])],
        [
            ("X_POSIX", 0, 0, "open", 0, 64, 5, 1),
            ("X_POSIX", 0, 1, "write", 64, 64, 2, 1),
            ("X_POSIX", 0, 0, "stat", 64, 64, 1, 1),
        ],
    ),
    ["random_access"],
)

#: Rank 1 reads stripe 0 in two rows out of time order; only its earlier
#: row overlaps rank 0's write, so the stripe is contended only if the
#: per-rank interval keeps the earliest start.
OUT_OF_ORDER_ROWS = _case(
    [("7", "/shared", [0, 1])],
    [
        ("X_POSIX", 0, 0, "write", 0, 10, 10, 4),
        ("X_POSIX", 0, 1, "read", 20, 10, 20, 2),
        ("X_POSIX", 0, 1, "read", 40, 10, 5, 20),
    ],
)


def _write(path: Path, header, rows) -> Path:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _snippets(case: dict, directory: Path) -> dict[str, tuple[str, str]]:
    """Snippet kind -> (current code, reference code) over ``case``."""
    posix = _write(directory / "POSIX.csv", POSIX_FIELDS, case["posix"])
    lustre = dxt = None
    if case["lustre"] is not None:
        lustre = _write(
            directory / "LUSTRE.csv",
            ("file_id", "rank", "file", "LUSTRE_STRIPE_SIZE"),
            case["lustre"],
        )
    if case["dxt"] is not None:
        dxt = _write(directory / "DXT.csv", case["dxt_columns"], case["dxt"])
    stripe = case["default_stripe"]
    return {
        "random_access": (
            codegen.random_access_code(posix, dxt),
            reference_random_access_code(posix, dxt),
        ),
        "shared_file": (
            codegen.shared_file_code(posix, lustre, dxt, stripe),
            reference_shared_file_code(posix, lustre, dxt, stripe),
        ),
    }


def _outcome(interpreter: CodeInterpreter, code: str) -> tuple[str, str]:
    """(stdout, last traceback line or "")."""
    result = interpreter.run(code)
    last = result.error.strip().splitlines()[-1] if result.error else ""
    return result.stdout, last


def _run_pairs(case: dict, directory: Path) -> dict[str, tuple]:
    interpreter = CodeInterpreter(directory)
    return {
        kind: (_outcome(interpreter, current), _outcome(interpreter, reference))
        for kind, (current, reference) in _snippets(case, directory).items()
    }


def _check_same_output(case: dict, directory: Path) -> None:
    for kind, (current, reference) in _run_pairs(case, directory).items():
        assert reference[1] == "", f"{kind}: the reference failed: {reference[1]}"
        assert current == reference, kind


@st.composite
def broken_extractions(draw) -> tuple[dict, str]:
    """A shared-file extraction whose ``DXT.csv`` lacks a column, has a
    short POSIX row on the shared file or POSIX rows whose operation is
    neither read nor write; and the snippet kinds that must fail.
    """
    case = draw(extractions(shared=True))
    columns = case["dxt_columns"]
    flaw = draw(st.sampled_from(("column", "short row", "operation")))
    if flaw == "column":
        dropped = draw(st.sampled_from(columns))
        keep = [i for i, name in enumerate(columns) if name != dropped]
        case["dxt_columns"] = [columns[i] for i in keep]
        case["dxt"] = [[row[i] for i in keep] for row in case["dxt"]]
        failing = [kind for kind, read in READ_COLUMNS.items() if dropped in read]
        return case, failing
    module, file_id = columns.index("module"), columns.index("file_id")
    shared = case["shared_files"][0]
    rows = [
        i for i, row in enumerate(case["dxt"])
        if row[module] == "X_POSIX" and row[file_id] == shared
    ]
    if flaw == "operation":
        # random_access fails on the first odd operation in its sorted
        # order, which need not be the first in the file.
        op = columns.index("operation")
        posix = [i for i, row in enumerate(case["dxt"]) if row[module] == "X_POSIX"]
        for row in draw(st.lists(st.sampled_from(posix), min_size=1, max_size=3)):
            case["dxt"][row][op] = draw(st.sampled_from(("open", "READ", "", "write ")))
        return case, ["random_access"]
    row = draw(st.sampled_from(rows))
    # Cut below the last column either snippet reads: both must index past it.
    last = min(
        max(columns.index(name) for name in read) for read in READ_COLUMNS.values()
    )
    case["dxt"][row] = case["dxt"][row][: draw(st.integers(0, last))]
    return case, list(READ_COLUMNS)


def _check_same_failure(case: dict, failing: list[str], directory: Path) -> None:
    for kind, (current, reference) in _run_pairs(case, directory).items():
        assert current == reference, kind
        if kind in failing:
            assert reference[1], f"{kind}: expected a failure"


class TestAgainstReference:
    def test_current_snippets_share_the_reference_prefix(self, tmp_path):
        """Header and ``_READ_POSIX`` are unchanged, so CodeGuard's shape
        key still groups every trace's snippet of one kind."""
        case = _case([("1", "/f", [0])], [], lustre={0: 64})
        for current, reference in _snippets(case, tmp_path).values():
            prefix = reference[: reference.index(codegen._READ_POSIX)]
            assert current.startswith(prefix + codegen._READ_POSIX)

    @settings(max_examples=60, deadline=None)
    @given(case=extractions())
    @example(case=UNORDERED_STARTS)
    @example(case=QUOTED_PATHS)
    def test_same_stdout(self, tmp_path_factory, case):
        _check_same_output(case, tmp_path_factory.mktemp("dxt-prop"))

    @settings(max_examples=40, deadline=None)
    @given(case=extractions(shared=True))
    @example(case=OUT_OF_ORDER_ROWS)
    def test_same_stdout_with_a_shared_file(self, tmp_path_factory, case):
        _check_same_output(case, tmp_path_factory.mktemp("dxt-prop"))

    @settings(max_examples=30, deadline=None)
    @given(broken=broken_extractions())
    @example(broken=ONE_FIELD_ROW)
    @example(broken=BLANK_ROW)
    @example(broken=ODD_OPERATIONS)
    def test_same_failure(self, tmp_path_factory, broken):
        _check_same_failure(*broken, tmp_path_factory.mktemp("dxt-prop"))

    @pytest.mark.slow
    @settings(max_examples=600, deadline=None)
    @given(case=extractions(shared=True) | extractions())
    def test_same_stdout_many_examples(self, tmp_path_factory, case):
        _check_same_output(case, tmp_path_factory.mktemp("dxt-prop"))

    @pytest.mark.slow
    @settings(max_examples=300, deadline=None)
    @given(broken=broken_extractions())
    def test_same_failure_many_examples(self, tmp_path_factory, broken):
        _check_same_failure(*broken, tmp_path_factory.mktemp("dxt-prop"))
