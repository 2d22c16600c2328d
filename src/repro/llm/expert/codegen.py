"""Analysis-code generation for the simulated expert model.

Each function returns self-contained Python source — the code the
"model" writes into the code interpreter.  The code reads only the CSV
files named in the prompt, computes measured metrics, and prints one
JSON object; every diagnosis conclusion downstream is grounded in that
output, so the pipeline cannot "detect" an issue the trace does not
actually exhibit.

The source deliberately uses only ``csv``/``json``/``statistics`` and
plain loops: it must run inside the restricted interpreter sandbox.
Loops over every ``DXT.csv`` row run inside functions, where names are
local slots; at module level each would be a dict lookup.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.sca.guard import parse_source

#: Upper bin edges matching the Darshan size-histogram labels.
_BIN_EDGES = (
    '_BINS = [("0_100", 100), ("100_1K", 1024), ("1K_10K", 10240),\n'
    '         ("10K_100K", 102400), ("100K_1M", 1048576),\n'
    '         ("1M_4M", 4194304), ("4M_10M", 10485760),\n'
    '         ("10M_100M", 104857600), ("100M_1G", 1073741824),\n'
    '         ("1G_PLUS", None)]\n'
)

_READ_POSIX = (
    "import csv, json, statistics\n"
    "rows = []\n"
    "with open(POSIX_PATH) as fh:\n"
    "    for row in csv.DictReader(fh):\n"
    "        rows.append(row)\n"
    "def I(row, key):\n"
    "    value = row.get(key, '')\n"
    "    return int(float(value)) if value not in ('', None) else 0\n"
    "def F(row, key):\n"
    "    value = row.get(key, '')\n"
    "    return float(value) if value not in ('', None) else 0.0\n"
)

#: The Lustre stripe size of each file, read from ``LUSTRE.csv``.
_READ_LUSTRE = """\
stripe_by_file = {}
if LUSTRE_PATH:
    with open(LUSTRE_PATH) as fh:
        for row in csv.DictReader(fh):
            stripe_by_file[row["file_id"]] = int(float(row["LUSTRE_STRIPE_SIZE"]))
"""

#: Bytes, time and ops per rank, summed over its POSIX records.
_PER_RANK = """
per_rank = {}
for row in rows:
    rank = int(float(row["rank"]))
    if rank < 0:
        continue
    stats = per_rank.setdefault(rank, [0, 0.0, 0])
    stats[0] += I(row, "POSIX_BYTES_READ") + I(row, "POSIX_BYTES_WRITTEN")
    stats[1] += F(row, "POSIX_F_READ_TIME") + F(row, "POSIX_F_WRITE_TIME") + F(row, "POSIX_F_META_TIME")
    stats[2] += I(row, "POSIX_READS") + I(row, "POSIX_WRITES")
"""


def _header(**params: object) -> str:
    lines = []
    for name, value in params.items():
        if isinstance(value, (str, Path)):
            lines.append(f"{name} = {str(value)!r}")
        else:
            lines.append(f"{name} = {value}")
    return "\n".join(lines) + "\n"


def small_io_code(posix_path: Path, rpc_size: int, stripe_size: int) -> str:
    """Small-request analysis over POSIX counters."""
    return (
        _header(POSIX_PATH=posix_path, RPC_SIZE=rpc_size, STRIPE_SIZE=stripe_size)
        + _READ_POSIX
        + _BIN_EDGES
        + """
reads = sum(I(r, "POSIX_READS") for r in rows)
writes = sum(I(r, "POSIX_WRITES") for r in rows)
total = reads + writes
def bin_ops(limit):
    count = 0
    for row in rows:
        for label, edge in _BINS:
            if edge is None or edge > limit:
                break
            count += I(row, "POSIX_SIZE_READ_" + label)
            count += I(row, "POSIX_SIZE_WRITE_" + label)
    return count
small_ops = bin_ops(RPC_SIZE)
tiny_ops = bin_ops(STRIPE_SIZE)
small_writes = 0
small_reads = 0
per_file_small_writes = {}
for row in rows:
    file_small_w = 0
    for label, edge in _BINS:
        if edge is None or edge > RPC_SIZE:
            break
        file_small_w += I(row, "POSIX_SIZE_WRITE_" + label)
        small_reads += I(row, "POSIX_SIZE_READ_" + label)
    small_writes += file_small_w
    name = row.get("file", "")
    per_file_small_writes[name] = per_file_small_writes.get(name, 0) + file_small_w
consec = sum(I(r, "POSIX_CONSEC_READS") + I(r, "POSIX_CONSEC_WRITES") for r in rows)
seq = sum(I(r, "POSIX_SEQ_READS") + I(r, "POSIX_SEQ_WRITES") for r in rows)
top_file, top_small_writes = "", 0
for name, count in sorted(per_file_small_writes.items()):
    if count > top_small_writes:
        top_file, top_small_writes = name, count
access_counts = {}
for row in rows:
    for slot in (1, 2, 3, 4):
        size = I(row, "POSIX_ACCESS%d_ACCESS" % slot)
        count = I(row, "POSIX_ACCESS%d_COUNT" % slot)
        if count:
            access_counts[size] = access_counts.get(size, 0) + count
common = sorted(access_counts.items(), key=lambda kv: (-kv[1], kv[0]))[:4]
print(json.dumps({
    "total_ops": total,
    "reads": reads,
    "writes": writes,
    "small_ops": small_ops,
    "tiny_ops": tiny_ops,
    "small_fraction": round(small_ops / total, 6) if total else 0.0,
    "tiny_fraction": round(tiny_ops / total, 6) if total else 0.0,
    "small_reads": small_reads,
    "small_writes": small_writes,
    "consec_fraction": round(consec / total, 6) if total else 0.0,
    "seq_fraction": round(seq / total, 6) if total else 0.0,
    "top_small_file": top_file,
    "top_small_file_share": round(top_small_writes / small_writes, 6) if small_writes else 0.0,
    "common_access_sizes": common,
    "rpc_size": RPC_SIZE,
    "stripe_size": STRIPE_SIZE,
    "files": len(set(r.get("file", "") for r in rows)),
    "ranks": len(set(r.get("rank", "") for r in rows)),
}))
"""
    )


def misaligned_code(
    posix_path: Path, lustre_path: Path | None, stripe_size: int
) -> str:
    """Alignment analysis over POSIX counters and Lustre layouts."""
    return (
        _header(
            POSIX_PATH=posix_path,
            LUSTRE_PATH=str(lustre_path) if lustre_path else "",
            STRIPE_SIZE=stripe_size,
        )
        + _READ_POSIX
        + "\n"
        + _READ_LUSTRE
        + """\
total = 0
misaligned = 0
mem_misaligned = 0
per_file = {}
for row in rows:
    ops = I(row, "POSIX_READS") + I(row, "POSIX_WRITES")
    bad = I(row, "POSIX_FILE_NOT_ALIGNED")
    mem_misaligned += I(row, "POSIX_MEM_NOT_ALIGNED")
    total += ops
    misaligned += bad
    name = row.get("file", "")
    agg_ops, agg_bad = per_file.get(name, (0, 0))
    per_file[name] = (agg_ops + ops, agg_bad + bad)
worst_file, worst_fraction = "", 0.0
for name, (ops, bad) in sorted(per_file.items()):
    fraction = bad / ops if ops else 0.0
    if fraction > worst_fraction:
        worst_file, worst_fraction = name, fraction
alignments = sorted(set(I(r, "POSIX_FILE_ALIGNMENT") for r in rows))
print(json.dumps({
    "total_ops": total,
    "misaligned_ops": misaligned,
    "misaligned_fraction": round(misaligned / total, 6) if total else 0.0,
    "mem_misaligned_ops": mem_misaligned,
    "mem_misaligned_fraction": round(mem_misaligned / total, 6) if total else 0.0,
    "file_alignments": alignments,
    "stripe_sizes": sorted(set(stripe_by_file.values())) or [STRIPE_SIZE],
    "worst_file": worst_file,
    "worst_file_fraction": round(worst_fraction, 6),
    "files": len(per_file),
}))
"""
    )


def random_access_code(posix_path: Path, dxt_path: Path | None) -> str:
    """Access-pattern classification from DXT (falls back to counters)."""
    return (
        _header(POSIX_PATH=posix_path, DXT_PATH=str(dxt_path) if dxt_path else "")
        + _READ_POSIX
        + """
def read_streams(path):
    streams = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        col = {name: i for i, name in enumerate(next(reader))}
        MODULE, FILE_ID, RANK = col["module"], col["file_id"], col["rank"]
        START, OFFSET, LENGTH, OP = col["start"], col["offset"], col["length"], col["operation"]
        for row in reader:
            if row[MODULE] != "X_POSIX":
                continue
            key = (row[FILE_ID], row[RANK])
            op = (float(row[START]), int(row[OFFSET]), int(row[LENGTH]), row[OP])
            ops = streams.get(key)
            if ops is None:
                streams[key] = [op]
            else:
                ops.append(op)
    return streams
def classify(streams):
    classified = consecutive = strided = random_ops = repeat_ops = 0
    random_bytes = total_bytes = 0
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
            seen_op = seen[op]
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
                    if offset in seen_op:
                        repeat_ops += 1
            seen_op.add(offset)
            prev_end = offset + length
    return (classified, consecutive, strided, random_ops, repeat_ops, random_bytes,
            total_bytes, random_by_dir, dir_totals, random_per_rank)
streams = read_streams(DXT_PATH) if DXT_PATH else {}
(classified, consecutive, strided, random_ops, repeat_ops, random_bytes,
 total_bytes, random_by_dir, dir_totals, random_per_rank) = classify(streams)
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
    )


def shared_file_code(
    posix_path: Path, lustre_path: Path | None, dxt_path: Path | None, stripe_size: int
) -> str:
    """Shared-file stripe-conflict analysis from DXT + Lustre layouts."""
    return (
        _header(
            POSIX_PATH=posix_path,
            LUSTRE_PATH=str(lustre_path) if lustre_path else "",
            DXT_PATH=str(dxt_path) if dxt_path else "",
            DEFAULT_STRIPE=stripe_size,
        )
        + _READ_POSIX
        + """
ranks_per_file = {}
names = {}
for row in rows:
    fid = row["file_id"]
    names[fid] = row.get("file", "")
    if int(float(row["rank"])) >= 0:
        ranks_per_file.setdefault(fid, set()).add(row["rank"])
shared_files = {fid for fid, ranks in ranks_per_file.items() if len(ranks) > 1}
"""
        + _READ_LUSTRE
        + """\
def stripe_scan(path, shared_files, stripe_by_file):
    stripe_usage = {}
    shared_ops = 0
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        col = {name: i for i, name in enumerate(next(reader))}
        MODULE, FILE_ID, RANK, OP = col["module"], col["file_id"], col["rank"], col["operation"]
        OFFSET, START, END = col["offset"], col["start"], col["end"]
        for row in reader:
            if row[MODULE] != "X_POSIX" or row[FILE_ID] not in shared_files:
                continue
            shared_ops += 1
            fid = row[FILE_ID]
            key = (fid, int(row[OFFSET]) // stripe_by_file.get(fid, DEFAULT_STRIPE))
            per_rank = stripe_usage.get(key)
            if per_rank is None:
                per_rank = stripe_usage[key] = {}
            start, end = float(row[START]), float(row[END])
            # stats per rank: [ops, all_lo, all_hi, write_lo, write_hi]
            rank = row[RANK]
            stats = per_rank.get(rank)
            if stats is None:
                stats = per_rank[rank] = [0, start, end, None, None]
            stats[0] += 1
            if start < stats[1]:
                stats[1] = start
            if end > stats[2]:
                stats[2] = end
            if row[OP] == "write":
                if stats[3] is None or start < stats[3]:
                    stats[3] = start
                if stats[4] is None or end > stats[4]:
                    stats[4] = end
    return stripe_usage, shared_ops
stripe_usage = {}
shared_ops = 0
if DXT_PATH and shared_files:
    stripe_usage, shared_ops = stripe_scan(DXT_PATH, shared_files, stripe_by_file)
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
    )


def load_imbalance_code(posix_path: Path) -> str:
    """Per-rank load distribution analysis."""
    return (
        _header(POSIX_PATH=posix_path)
        + _READ_POSIX
        + _PER_RANK
        + """\
ranks = sorted(per_rank)
byte_values = [per_rank[r][0] for r in ranks]
time_values = [per_rank[r][1] for r in ranks]
op_values = [per_rank[r][2] for r in ranks]
def imbalance(values):
    peak = max(values) if values else 0
    if not peak:
        return 0.0
    return (peak - sum(values) / len(values)) / peak
mean_ops = sum(op_values) / len(op_values) if op_values else 0.0
std_ops = statistics.pstdev(op_values) if len(op_values) > 1 else 0.0
heavy = [r for r in ranks if per_rank[r][2] > mean_ops + std_ops] if std_ops else []
heavy_ops = sum(per_rank[r][2] for r in heavy)
total_ops = sum(op_values)
heaviest_rank = max(ranks, key=lambda r: per_rank[r][0]) if ranks else -1
print(json.dumps({
    "ranks": len(ranks),
    "byte_imbalance": round(imbalance(byte_values), 6),
    "time_imbalance": round(imbalance(time_values), 6),
    "op_imbalance": round(imbalance(op_values), 6),
    "heaviest_rank": heaviest_rank,
    "heaviest_rank_bytes": max(byte_values, default=0),
    "mean_rank_bytes": round(sum(byte_values) / len(byte_values), 2) if byte_values else 0,
    "heavy_ranks": len(heavy),
    "heavy_rank_ids": heavy[:8],
    "heavy_ops_share": round(heavy_ops / total_ops, 6) if total_ops else 0.0,
    "total_ops": total_ops,
}))
"""
    )


def metadata_code(posix_path: Path, stdio_path: Path | None) -> str:
    """Metadata-pressure analysis."""
    return (
        _header(POSIX_PATH=posix_path, STDIO_PATH=str(stdio_path) if stdio_path else "")
        + _READ_POSIX
        + """
opens = sum(I(r, "POSIX_OPENS") for r in rows)
stats_ops = sum(I(r, "POSIX_STATS") for r in rows)
seeks = sum(I(r, "POSIX_SEEKS") for r in rows)
fsyncs = sum(I(r, "POSIX_FSYNCS") for r in rows)
data_ops = sum(I(r, "POSIX_READS") + I(r, "POSIX_WRITES") for r in rows)
meta_time = sum(F(r, "POSIX_F_META_TIME") for r in rows)
data_time = sum(F(r, "POSIX_F_READ_TIME") + F(r, "POSIX_F_WRITE_TIME") for r in rows)
if STDIO_PATH:
    with open(STDIO_PATH) as fh:
        for row in csv.DictReader(fh):
            opens += I(row, "STDIO_OPENS")
            seeks += I(row, "STDIO_SEEKS")
            data_ops += I(row, "STDIO_READS") + I(row, "STDIO_WRITES")
            meta_time += F(row, "STDIO_F_META_TIME")
            data_time += F(row, "STDIO_F_READ_TIME") + F(row, "STDIO_F_WRITE_TIME")
files = len(set(r.get("file", "") for r in rows))
# A shared file legitimately has one open per rank, so churn is
# measured per (file, rank) record, not per file.
file_rank_records = max(len(rows), 1)
meta_ops = opens + stats_ops + seeks + fsyncs
total = meta_ops + data_ops
print(json.dumps({
    "opens": opens,
    "stats": stats_ops,
    "seeks": seeks,
    "fsyncs": fsyncs,
    "meta_ops": meta_ops,
    "data_ops": data_ops,
    "meta_ratio": round(meta_ops / total, 6) if total else 0.0,
    "meta_time": round(meta_time, 6),
    "data_time": round(data_time, 6),
    "meta_time_fraction": round(meta_time / (meta_time + data_time), 6) if (meta_time + data_time) else 0.0,
    "files": files,
    "opens_per_file": round(opens / file_rank_records, 3),
}))
"""
    )


def no_mpiio_code(posix_path: Path, mpiio_path: Path | None, nprocs: int) -> str:
    """POSIX-vs-MPI-IO usage analysis."""
    return (
        _header(
            POSIX_PATH=posix_path,
            MPIIO_PATH=str(mpiio_path) if mpiio_path else "",
            NPROCS=nprocs,
        )
        + _READ_POSIX
        + """
posix_ranks = set()
posix_ops = 0
for row in rows:
    ops = I(row, "POSIX_READS") + I(row, "POSIX_WRITES")
    posix_ops += ops
    if ops and int(float(row["rank"])) >= 0:
        posix_ranks.add(int(float(row["rank"])))
mpiio_ops = 0
if MPIIO_PATH:
    with open(MPIIO_PATH) as fh:
        for row in csv.DictReader(fh):
            for key in ("MPIIO_INDEP_READS", "MPIIO_INDEP_WRITES",
                        "MPIIO_COLL_READS", "MPIIO_COLL_WRITES",
                        "MPIIO_NB_READS", "MPIIO_NB_WRITES",
                        "MPIIO_SPLIT_READS", "MPIIO_SPLIT_WRITES"):
                mpiio_ops += I(row, key)
print(json.dumps({
    "nprocs": NPROCS,
    "posix_ranks": len(posix_ranks),
    "posix_ops": posix_ops,
    "mpiio_ops": mpiio_ops,
    "uses_mpiio": mpiio_ops > 0,
}))
"""
    )


def no_collective_code(mpiio_path: Path | None, nprocs: int) -> str:
    """Collective-vs-independent MPI-IO usage analysis."""
    return (
        _header(MPIIO_PATH=str(mpiio_path) if mpiio_path else "", NPROCS=nprocs)
        + """
import csv, json
def I(row, key):
    value = row.get(key, '')
    return int(float(value)) if value not in ('', None) else 0
coll = indep = nb = 0
ranks_per_file = {}
if MPIIO_PATH:
    with open(MPIIO_PATH) as fh:
        for row in csv.DictReader(fh):
            coll += I(row, "MPIIO_COLL_READS") + I(row, "MPIIO_COLL_WRITES")
            indep += I(row, "MPIIO_INDEP_READS") + I(row, "MPIIO_INDEP_WRITES")
            nb += I(row, "MPIIO_NB_READS") + I(row, "MPIIO_NB_WRITES")
            if int(float(row["rank"])) >= 0:
                ranks_per_file.setdefault(row["file_id"], set()).add(row["rank"])
shared = sum(1 for ranks in ranks_per_file.values() if len(ranks) > 1)
print(json.dumps({
    "nprocs": NPROCS,
    "mpiio_present": bool(MPIIO_PATH),
    "collective_ops": coll,
    "independent_ops": indep,
    "nonblocking_ops": nb,
    "shared_mpiio_files": shared,
}))
"""
    )


def rank_zero_code(posix_path: Path) -> str:
    """Rank-0 serialization analysis."""
    return (
        _header(POSIX_PATH=posix_path)
        + _READ_POSIX
        + _PER_RANK
        + """\
zero = per_rank.get(0, [0, 0.0, 0])
others = [stats for rank, stats in per_rank.items() if rank != 0]
mean_other_bytes = sum(s[0] for s in others) / len(others) if others else 0.0
mean_other_time = sum(s[1] for s in others) / len(others) if others else 0.0
total_bytes = sum(s[0] for s in per_rank.values())
print(json.dumps({
    "ranks": len(per_rank),
    "rank0_bytes": zero[0],
    "rank0_time": round(zero[1], 6),
    "rank0_ops": zero[2],
    "mean_other_bytes": round(mean_other_bytes, 2),
    "mean_other_time": round(mean_other_time, 6),
    "rank0_byte_ratio": round(zero[0] / mean_other_bytes, 3) if mean_other_bytes else 0.0,
    "rank0_time_ratio": round(zero[1] / mean_other_time, 3) if mean_other_time else 0.0,
    "rank0_bytes_share": round(zero[0] / total_bytes, 6) if total_bytes else 0.0,
}))
"""
    )


def strip_imports(code: str, modules: "set[str] | frozenset[str]") -> str:
    """Remove imports of ``modules`` (by root name) from ``code``.

    This is the expert's repair action for ``sca.import`` guard
    rejections: regenerate the analysis and drop any import whose root
    module the sandbox refuses.  Multi-name statements keep their
    surviving names (``import csv, os`` → ``import csv``).  Code that
    does not parse is returned unchanged — the interpreter will report
    the syntax error itself.
    """
    try:
        tree = parse_source(code)
    except SyntaxError:
        return code
    lines = code.splitlines()
    edits: list[tuple[int, int, str | None]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            kept = [a for a in node.names if a.name.split(".")[0] not in modules]
            if len(kept) == len(node.names):
                continue
            replacement = None
            if kept:
                replacement = "import " + ", ".join(
                    a.name + (f" as {a.asname}" if a.asname else "") for a in kept
                )
            edits.append((node.lineno, node.end_lineno or node.lineno, replacement))
        elif isinstance(node, ast.ImportFrom):
            root = (node.module or "").split(".")[0]
            if node.level or root in modules:
                edits.append((node.lineno, node.end_lineno or node.lineno, None))
    for start, end, replacement in sorted(edits, reverse=True):
        lines[start - 1 : end] = [replacement] if replacement is not None else []
    return "\n".join(lines) + ("\n" if code.endswith("\n") else "")
