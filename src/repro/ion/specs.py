"""The issue registry: one :class:`IssueSpec` per I/O issue type.

A spec is everything ION and the simulated expert know about one issue:

* the *I/O Performance Issue Context* — ION's replacement for
  Drishti's fixed numeric triggers.  It describes the nature of the
  issue and names the key metrics that reveal it, referencing system
  facts (Lustre stripe size, RPC size) rather than expert-tuned
  percentage thresholds;
* the Darshan modules the analysis needs (the paper's "predefined
  mapping of necessary modules for each issue type"), and whether the
  prompt also lists the per-operation DXT trace;
* the expert's analysis: the chain-of-thought steps it narrates, the
  code it writes (and a counters-only fallback for when DXT data is
  missing or broken), and the verdict that turns *measured* metrics
  into a severity, mitigation notes and a conclusion in the style of
  the paper's Figure 2/3 ION outputs;
* the context markers the expert needs to see before it engages, the
  recommendation the summary leads with, and the keywords that route a
  follow-up question to the issue.

The verdict rules are the reproduction's stand-in for GPT-4's
reasoning.  They deliberately lean on system facts present in the
prompt (RPC size, stripe size, rank count) and on relative dominance
("the majority of", "more than one standard deviation above") rather
than on Drishti-style tuned thresholds — mirroring how the paper
describes ION's contexts steering the model.

Every consumer looks specs up at call time, so adding or changing an
issue type is an edit to this module (plus an :class:`IssueType`
member for a new one).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.ion.issues import IssueType, MitigationNote, Severity
from repro.llm.expert import codegen
from repro.util.units import MIB, format_count, format_percent, format_size

if TYPE_CHECKING:
    from repro.llm.expert.promptspec import PromptSpec


@dataclass
class Verdict:
    """The expert's judgment over one issue's measured metrics."""

    severity: Severity
    conclusion: str
    mitigations: list[MitigationNote] = field(default_factory=list)


@dataclass(frozen=True)
class IssueSpec:
    """Everything known about diagnosing one issue type."""

    issue: IssueType
    title: str
    #: The issue context: the prompt's domain knowledge for the issue.
    context: str
    #: Darshan modules whose CSVs the issue's prompt describes.
    modules: tuple[str, ...]
    steps: Callable[[PromptSpec], list[str]]
    code: Callable[[PromptSpec], str]
    verdict: Callable[[dict, PromptSpec], Verdict]
    #: Counters the prompt's context must mention for the expert to
    #: engage; without grounded context it only produces generic text.
    markers: tuple[str, ...]
    #: The fix the summary recommends when this issue dominates.
    recommendation: str
    #: Words that route a follow-up question to this issue.
    keywords: tuple[str, ...]
    #: Whether the prompt also lists the DXT trace when it exists.
    dxt: bool = False
    #: Code retried after a failed run; None retries ``code``.
    fallback_code: Callable[[PromptSpec], str] | None = None


SPECS: dict[IssueType, IssueSpec] = {}


def spec_for(issue: IssueType) -> IssueSpec:
    """The registry entry of one issue type."""
    return SPECS[issue]


def all_specs() -> list[IssueSpec]:
    """Every spec, in taxonomy order."""
    return [SPECS[issue] for issue in IssueType]


def spec_titled(title: str) -> IssueSpec | None:
    """The spec whose title is ``title``, if any."""
    return next((spec for spec in SPECS.values() if spec.title == title), None)


def _register(spec: IssueSpec) -> None:
    SPECS[spec.issue] = spec


def _stripe(spec: PromptSpec) -> int:
    return spec.param_int("lustre_stripe_size", MIB)


def _rpc(spec: PromptSpec) -> int:
    return spec.param_int("rpc_size", 4 * MIB)


# -- Small I/O ----------------------------------------------------------


def _small_steps(spec: PromptSpec) -> list[str]:
    return [
        "Sum POSIX read/write operation counts and the access-size "
        "histograms across all (file, rank) records.",
        f"Classify operations below the RPC size "
        f"({format_size(_rpc(spec))}) as small, and operations below the "
        f"stripe size ({format_size(_stripe(spec))}) as severely small.",
        "Compare POSIX_CONSEC_* and POSIX_SEQ_* counters against total "
        "operations to judge whether small operations are aggregatable.",
        "Attribute small writes to files to locate the worst offender.",
    ]


def _small_code(spec: PromptSpec) -> str:
    return codegen.small_io_code(spec.file_path("POSIX"), _rpc(spec), _stripe(spec))


def _small_verdict(m: dict, spec: PromptSpec) -> Verdict:
    total = m.get("total_ops", 0)
    if not total:
        return Verdict(Severity.OK, "The trace contains no POSIX data operations.")
    small_fraction = m["small_fraction"]
    tiny_fraction = m["tiny_fraction"]
    consec_fraction = m["consec_fraction"]
    aggregatable = consec_fraction > 0.70
    if small_fraction < 0.10:
        return Verdict(
            Severity.OK,
            f"Only {format_percent(small_fraction)} of the "
            f"{format_count(total)} I/O operations are smaller than the "
            f"configured RPC size of {format_size(m['rpc_size'])}; small I/O "
            "is not a significant factor in this trace.",
        )
    sentences: list[str] = []
    mitigations: list[MitigationNote] = []
    sentences.append(
        f"{format_percent(small_fraction)} of the {format_count(total)} I/O "
        f"operations are smaller than the configured RPC size of "
        f"{format_size(m['rpc_size'])}"
        + (
            f", and {format_percent(tiny_fraction)} are below the "
            f"{format_size(m['stripe_size'])} stripe size."
            if tiny_fraction >= 0.10
            else ", though requests are at least stripe-sized."
        )
    )
    if m.get("common_access_sizes"):
        size, count = m["common_access_sizes"][0]
        sentences.append(
            f"The most common access size is {format_size(size)} "
            f"({format_count(count)} operations), a repetitive small I/O "
            "pattern."
        )
    if m.get("top_small_file_share", 0) > 0.5 and m.get("files", 0) > 1:
        sentences.append(
            f"{format_percent(m['top_small_file_share'])} of small write "
            f"requests target '{m['top_small_file']}'."
        )
    if aggregatable:
        mitigations.append(MitigationNote.AGGREGATABLE)
        sentences.append(
            f"However, {format_percent(consec_fraction)} of operations are "
            "consecutive, so client-side aggregation can coalesce them into "
            "full RPCs and mitigate most of the inefficiency."
        )
        severity = Severity.INFO
    elif tiny_fraction >= 0.50:
        sentences.append(
            "These small operations are non-consecutive and therefore "
            "cannot be aggregated; their cost is fully realized at the "
            "file system."
        )
        severity = Severity.CRITICAL if tiny_fraction > 0.90 else Severity.WARNING
    else:
        sentences.append(
            "Requests are sub-RPC but stripe-sized, which bounds the "
            "per-operation overhead; the impact on overall performance is "
            "limited."
        )
        severity = Severity.INFO
    return Verdict(severity, " ".join(sentences), mitigations)


_register(
    IssueSpec(
        issue=IssueType.SMALL_IO,
        title="Small I/O Operations",
        modules=("POSIX", "LUSTRE"),
        context="""
Parallel file systems move data in large remote procedure calls (RPCs);
on Lustre the client RPC size is a system setting (typically 4 MiB) and
the stripe size sets the unit of server-side locality. Requests much
smaller than the RPC size underutilize each RPC, inflate per-operation
overhead, and multiply server round trips. HOWEVER, small requests are
not always harmful: when a rank issues them CONSECUTIVELY (each request
starting exactly where the previous one ended), the client-side page
cache and request aggregation can coalesce them into full-size RPCs
before they reach the servers, mitigating most of the inefficiency.
Small requests that are non-consecutive (strided or random) cannot be
aggregated and realize the full penalty.

Key metrics: the access-size histograms (POSIX_SIZE_READ_* and
POSIX_SIZE_WRITE_*) relative to the system RPC size and stripe size;
POSIX_CONSEC_READS / POSIX_CONSEC_WRITES and POSIX_SEQ_READS /
POSIX_SEQ_WRITES relative to POSIX_READS / POSIX_WRITES to judge
aggregatability; the most common access sizes (POSIX_ACCESS*_ACCESS);
and the share of small requests per file to locate the worst offender.
Distinguish requests below the stripe size (severe when unaggregatable)
from requests between the stripe size and the RPC size (milder).
""".strip(),
        steps=_small_steps,
        code=_small_code,
        verdict=_small_verdict,
        markers=("POSIX_SIZE_READ_", "POSIX_CONSEC_"),
        recommendation=(
            "restructure the dominant small requests into larger transfers, or "
            "route them through MPI-IO collective buffering"
        ),
        keywords=("small", "tiny", "request size", "aggregat", "rpc"),
    )
)


# -- Misaligned I/O -------------------------------------------------------


def _misaligned_steps(spec: PromptSpec) -> list[str]:
    return [
        "Read the per-file Lustre stripe sizes to establish what file "
        "alignment means on this system.",
        "Sum POSIX_FILE_NOT_ALIGNED over all records and compare against "
        "total read/write operations.",
        "Check POSIX_MEM_NOT_ALIGNED for memory-buffer misalignment.",
        "Break misalignment down per file to see whether it is global.",
    ]


def _misaligned_code(spec: PromptSpec) -> str:
    return codegen.misaligned_code(
        spec.file_path("POSIX"), spec.file_path("LUSTRE"), _stripe(spec)
    )


def _misaligned_verdict(m: dict, spec: PromptSpec) -> Verdict:
    total = m.get("total_ops", 0)
    if not total:
        return Verdict(Severity.OK, "The trace contains no POSIX data operations.")
    fraction = m["misaligned_fraction"]
    if fraction < 0.10:
        return Verdict(
            Severity.OK,
            f"A {format_percent(fraction)} misalignment rate for a total of "
            f"{format_count(total)} I/O operations: file accesses are "
            "effectively aligned with the "
            f"{format_size(m['stripe_sizes'][0])} stripe boundaries.",
        )
    sentences = [
        f"Significant file misalignment detected: the "
        f"POSIX_FILE_NOT_ALIGNED counter indicates "
        f"{format_count(m['misaligned_ops'])} instances "
        f"({format_percent(fraction)} of I/O operations) not aligned with "
        f"the {format_size(m['stripe_sizes'][0])} stripe size, which may "
        "contribute to performance degradation through extra RPCs, "
        "boundary-stripe lock traffic, and increased contention at the OSTs."
    ]
    if m.get("mem_misaligned_fraction", 0) > 0.5:
        sentences.append(
            f"Memory accesses are also misaligned "
            f"({format_percent(m['mem_misaligned_fraction'])} of operations), "
            "adding buffer-copy overhead."
        )
    severity = Severity.CRITICAL if fraction > 0.90 else Severity.WARNING
    return Verdict(severity, " ".join(sentences))


_register(
    IssueSpec(
        issue=IssueType.MISALIGNED_IO,
        title="Misaligned I/O",
        modules=("POSIX", "LUSTRE"),
        context="""
Lustre stripes every file over object storage targets (OSTs) in
stripe_size units. A request whose file offset is not a multiple of
the file alignment (on Lustre, the stripe size reported in
LUSTRE_STRIPE_SIZE) may straddle a stripe boundary, touching two OSTs,
acquiring two extent locks, and splitting into extra RPCs. Pervasive
misalignment amplifies lock traffic and server load, and commonly
arises from odd-sized file headers (e.g. HDF5 superblocks or netCDF
headers) shifting otherwise regular access patterns. Memory-buffer
misalignment (POSIX_MEM_NOT_ALIGNED) additionally forces internal
copies, a smaller but measurable cost.

Key metrics: POSIX_FILE_NOT_ALIGNED relative to total operations
(POSIX_READS + POSIX_WRITES); POSIX_FILE_ALIGNMENT and the per-file
LUSTRE_STRIPE_SIZE to confirm what alignment means on this system;
POSIX_MEM_NOT_ALIGNED for buffer alignment; and per-file breakdowns to
identify whether misalignment is global or confined to one dataset.
""".strip(),
        steps=_misaligned_steps,
        code=_misaligned_code,
        verdict=_misaligned_verdict,
        markers=("POSIX_FILE_NOT_ALIGNED", "LUSTRE_STRIPE_SIZE"),
        recommendation=(
            "align data extents with the Lustre stripe size (e.g. pad headers "
            "or set H5Pset_alignment / stripe-aligned offsets)"
        ),
        keywords=("align", "misalign"),
    )
)


# -- Random access ---------------------------------------------------------


def _random_steps(spec: PromptSpec) -> list[str]:
    steps = [
        "Group the DXT operation records by (file, rank) and order each "
        "stream by start timestamp."
        if spec.files.get("DXT")
        else "No DXT data is listed; bound the pattern from POSIX_SEQ_* "
        "and POSIX_CONSEC_* counters instead.",
        "Classify every operation against its predecessor: consecutive "
        "(contiguous), strided (forward gap), or random (backward jump).",
        "Weigh the random population: fraction per direction, bytes moved "
        "through random accesses, and random operations per rank.",
    ]
    return steps


def _random_code(spec: PromptSpec) -> str:
    return codegen.random_access_code(spec.file_path("POSIX"), spec.file_path("DXT"))


def _random_fallback(spec: PromptSpec) -> str:
    return codegen.random_access_code(spec.file_path("POSIX"), None)


def _random_verdict(m: dict, spec: PromptSpec) -> Verdict:
    if not m.get("classified_ops"):
        return Verdict(Severity.OK, "No operations available to classify.")
    random_fraction = m["random_fraction"]
    read_fraction = m["random_read_fraction"]
    write_fraction = m["random_write_fraction"]
    observed = max(random_fraction, read_fraction, write_fraction) > 0.20
    if not observed:
        return Verdict(
            Severity.OK,
            f"Accesses are predominantly {format_percent(m['consecutive_fraction'])} "
            "consecutive"
            + (
                f" with {format_percent(m['strided_fraction'])} strided forward jumps"
                if m["strided_fraction"] > 0.2
                else ""
            )
            + "; no random access pattern of consequence.",
        )
    if m.get("repeat_fraction", 0.0) > 0.80:
        return Verdict(
            Severity.INFO,
            f"{format_count(m['random_ops'])} operations jump backward, but "
            f"{format_percent(m['repeat_fraction'])} of them revisit offsets "
            "the same rank already accessed: this is a repetitive re-access "
            "cycle over a working set (as metadata benchmarks produce), not "
            "a random I/O pattern, and it is cache- and readahead-friendly.",
        )
    sentences = [
        f"Random access patterns detected: {format_count(m['random_ops'])} "
        f"operations ({format_percent(random_fraction)} of classified "
        f"accesses) jump backward, including "
        f"{format_count(m['random_reads'])} random reads "
        f"({format_percent(read_fraction)} of reads)."
    ]
    low_volume = (
        m["random_bytes_fraction"] < 0.05 and m.get("mean_random_per_rank", 0) < 64
    )
    if low_volume:
        sentences.append(
            f"However, the random-operation count per rank (mean "
            f"{m['mean_random_per_rank']}) and the volume of data moved "
            f"through these patterns "
            f"({format_percent(m['random_bytes_fraction'])} of bytes) are "
            "low, so they do not affect the application's overall I/O "
            "performance."
        )
        return Verdict(Severity.INFO, " ".join(sentences), [MitigationNote.LOW_VOLUME])
    sentences.append(
        "These accesses defeat client aggregation and server read-ahead, "
        "a significant performance concern."
    )
    severity = Severity.CRITICAL if random_fraction >= 0.40 else Severity.WARNING
    return Verdict(severity, " ".join(sentences))


_register(
    IssueSpec(
        issue=IssueType.RANDOM_ACCESS,
        title="Random Access Pattern",
        modules=("POSIX", "LUSTRE"),
        context="""
Access patterns matter as much as request sizes. An access is
CONSECUTIVE when it begins exactly where the previous access of the
same rank on the same file ended, SEQUENTIAL when it begins at or past
the previous end (possibly leaving a forward gap, i.e. strided), and
RANDOM when it jumps backward. Random and strided patterns defeat
client aggregation and server read-ahead, and on striped storage they
scatter requests across OSTs and extent locks. The DXT trace (per-
operation offsets, lengths and timestamps) gives the exact
classification; without DXT, POSIX_SEQ_* and POSIX_CONSEC_* counters
bound it. IMPORTANT: judge impact in context — a small population of
random operations, a low per-rank random-operation count, or a small
fraction of total bytes moved through random accesses means the
pattern does not affect the application's overall I/O performance even
though it is present.

Key metrics: per-rank, per-file ordered DXT offsets; backward-jump
fraction per direction (reads vs writes); bytes moved by random
operations relative to total bytes; random operations per rank.
""".strip(),
        dxt=True,
        steps=_random_steps,
        code=_random_code,
        fallback_code=_random_fallback,
        verdict=_random_verdict,
        markers=("DXT", "POSIX_SEQ_"),
        recommendation=(
            "reorder accesses toward sequential patterns or batch random "
            "requests through collective I/O"
        ),
        keywords=("random", "strided", "access pattern"),
    )
)


# -- Shared-file contention -------------------------------------------------


def _shared_steps(spec: PromptSpec) -> list[str]:
    return [
        "Identify files with POSIX records from more than one rank.",
        "Map each DXT operation on a shared file to its stripe index using "
        "the per-file LUSTRE_STRIPE_SIZE.",
        "For every stripe, collect which ranks touched it and whether their "
        "access intervals overlap in time.",
        "Quantify the share of operations landing in rank-contended "
        "stripes and how many ranks collide per stripe.",
    ]


def _shared_code(spec: PromptSpec) -> str:
    return codegen.shared_file_code(
        spec.file_path("POSIX"),
        spec.file_path("LUSTRE"),
        spec.file_path("DXT"),
        _stripe(spec),
    )


def _shared_fallback(spec: PromptSpec) -> str:
    return codegen.shared_file_code(
        spec.file_path("POSIX"), spec.file_path("LUSTRE"), None, _stripe(spec)
    )


def _shared_verdict(m: dict, spec: PromptSpec) -> Verdict:
    if m.get("shared_files", 0) == 0:
        return Verdict(
            Severity.OK,
            "Each file is accessed exclusively by a single rank; no "
            "shared-file conflicts are possible.",
        )
    names = ", ".join(f"'{n}'" for n in m.get("shared_file_names", []))
    intro = (
        f"{m['shared_files']} file(s) ({names}) are shared, accessed by up "
        f"to {m['max_ranks_per_file']} ranks."
    )
    if not m.get("dxt_available"):
        return Verdict(
            Severity.INFO,
            intro + " Without DXT data the per-stripe overlap cannot be "
            "measured; consider enabling extended tracing to rule out lock "
            "contention.",
        )
    fraction = m["contended_fraction"]
    if m.get("contended_stripes", 0) == 0:
        return Verdict(
            Severity.INFO,
            intro + " Analysis of the operation extents found no overlapping "
            "operations within the same stripe, hence no conflicts or lock "
            "overhead at the OSTs.",
            [MitigationNote.NON_OVERLAPPING],
        )
    if fraction < 0.05:
        return Verdict(
            Severity.INFO,
            intro + f" Only {format_percent(fraction)} of shared-file "
            "operations fall in stripes with overlapping writer activity; "
            "the contention is localized and negligible for overall "
            "performance.",
            [MitigationNote.NON_OVERLAPPING],
        )
    if m.get("boundary_only") and fraction < 0.5:
        return Verdict(
            Severity.INFO,
            intro + f" Ranks share only boundary stripes (exactly two ranks "
            f"per contended stripe, {format_percent(fraction)} of shared-file "
            "operations), a localized by-product of the unaligned "
            "decomposition rather than sustained contention.",
            [MitigationNote.NON_OVERLAPPING],
        )
    severity = Severity.CRITICAL if fraction > 0.5 else Severity.WARNING
    return Verdict(
        severity,
        intro + f" There is evidence of temporal overlap in I/O operations: "
        f"{format_count(m['contended_ops'])} operations "
        f"({format_percent(fraction)} of shared-file accesses) fall in "
        f"stripes touched concurrently by up to {m['max_ranks_per_stripe']} "
        "ranks, indicating lock contention and OST-level serialization.",
    )


_register(
    IssueSpec(
        issue=IssueType.SHARED_FILE_CONTENTION,
        title="Shared-File Contention",
        modules=("POSIX", "LUSTRE"),
        context="""
When multiple ranks write a single shared file, Lustre must serialize
conflicting access within each stripe through distributed extent
locks; ranks that touch the SAME stripe at the SAME time trigger lock
revocations and OST-level serialization (lock ping-pong). Shared-file
access by itself is NOT a problem: if every rank works in a disjoint
set of stripes (e.g. large per-rank blocks aligned to the stripe
size), no conflicts arise and shared-file I/O performs like
file-per-process. Sharing only the single boundary stripe between
adjacent ranks (a by-product of unaligned decompositions) is a mild,
localized effect; many ranks interleaving within the same stripes
continuously is severe.

Key metrics: which files are accessed by more than one rank (per-rank
records in POSIX data); mapping of DXT offsets to stripe indices via
LUSTRE_STRIPE_SIZE; the number of distinct ranks per stripe; temporal
overlap of different ranks' accesses to the same stripe; the fraction
of operations that fall in rank-shared stripes.
""".strip(),
        dxt=True,
        steps=_shared_steps,
        code=_shared_code,
        fallback_code=_shared_fallback,
        verdict=_shared_verdict,
        markers=("LUSTRE_STRIPE_SIZE", "stripe"),
        recommendation=(
            "partition ranks into disjoint stripe-aligned regions or use "
            "file-per-process / collective buffering"
        ),
        keywords=(
            "shared", "contention", "lock", "conflict", "overlap",
        ),
    )
)


# -- Load imbalance -----------------------------------------------------------


def _load_steps(spec: PromptSpec) -> list[str]:
    return [
        "Sum transferred bytes, I/O time and operation counts per rank.",
        "Compute the imbalance ratio (max - mean) / max for bytes and time.",
        "Identify ranks more than one standard deviation above the mean "
        "operation count and the share of operations they carry.",
        "Judge whether the skew is a single-rank serialization or a "
        "structured subset consistent with an aggregation topology.",
    ]


def _load_code(spec: PromptSpec) -> str:
    return codegen.load_imbalance_code(spec.file_path("POSIX"))


def _load_verdict(m: dict, spec: PromptSpec) -> Verdict:
    if m.get("ranks", 0) < 2:
        return Verdict(Severity.OK, "Only one rank performs I/O; imbalance does not apply.")
    byte_imbalance = m["byte_imbalance"]
    time_imbalance = m["time_imbalance"]
    peak = max(byte_imbalance, time_imbalance)
    if peak < 0.30:
        return Verdict(
            Severity.OK,
            f"I/O load is well balanced across {m['ranks']} ranks "
            f"(byte imbalance {format_percent(byte_imbalance)}, time "
            f"imbalance {format_percent(time_imbalance)}).",
        )
    heavy = m.get("heavy_ranks", 0)
    if heavy == 1 and m.get("heaviest_rank") == 0:
        severity = Severity.CRITICAL if peak > 0.90 else Severity.WARNING
        return Verdict(
            severity,
            f"Load imbalance of {format_percent(peak)} detected: rank 0 has "
            f"much larger summed I/O sizes "
            f"({format_size(m['heaviest_rank_bytes'])} versus a mean of "
            f"{format_size(m['mean_rank_bytes'])}), indicating rank 0 is "
            "doing much more work than the rest of the application.",
        )
    subset = 1 < heavy <= max(2, m["ranks"] // 4)
    if subset and m.get("heavy_ops_share", 0) > 0.80:
        return Verdict(
            Severity.INFO,
            f"A subset of {heavy} out of {m['ranks']} ranks exhibits a "
            "significantly higher number of I/O operations, their stats far "
            "exceeding one standard deviation above the mean; these ranks "
            f"contribute approximately "
            f"{format_percent(m['heavy_ops_share'])} of the total "
            "operations. The regular size of this subset suggests an "
            "aggregation topology; it is worth investigating whether this "
            "behavior is intentional (e.g., based on the application "
            "algorithm) or can be optimized for better load distribution.",
            [MitigationNote.ALGORITHMIC_SKEW],
        )
    return Verdict(
        Severity.WARNING,
        f"Load imbalance of {format_percent(peak)} detected across "
        f"{m['ranks']} ranks (heaviest: rank {m['heaviest_rank']}).",
    )


_register(
    IssueSpec(
        issue=IssueType.LOAD_IMBALANCE,
        title="Imbalanced I/O Load",
        modules=("POSIX",),
        context="""
Parallel I/O performs best when ranks move comparable amounts of data
in comparable time; a few overloaded ranks stall everyone at the next
synchronization point. Imbalance shows up as a skewed distribution of
per-rank transferred bytes, operation counts, or per-rank I/O time.
Interpretation requires care: a single overloaded rank (typically
rank 0) usually indicates a serialization bug (e.g. one rank writing
headers or fill values for everyone), while a REGULAR SUBSET of ranks
doing nearly all filesystem operations (for instance a number of ranks
matching the collective-buffering aggregator count) is usually an
intentional aggregation topology inherent to the algorithm — worth
reporting, but not necessarily a defect.

Key metrics: per-rank sums of POSIX_BYTES_READ + POSIX_BYTES_WRITTEN
and of POSIX_F_READ_TIME + POSIX_F_WRITE_TIME + POSIX_F_META_TIME; the
imbalance ratio (max - mean) / max; how many ranks sit more than one
standard deviation above the mean and what share of operations they
carry; per-file variance counters (POSIX_F_VARIANCE_RANK_BYTES).
""".strip(),
        steps=_load_steps,
        code=_load_code,
        verdict=_load_verdict,
        markers=("POSIX_BYTES_", "imbalance"),
        recommendation=(
            "redistribute I/O work across ranks or use collective aggregators"
        ),
        keywords=("imbalance", "balanc", "load", "skew"),
    )
)


# -- Metadata load --------------------------------------------------------------


def _meta_steps(spec: PromptSpec) -> list[str]:
    return [
        "Sum metadata operations (opens, stats, seeks, fsyncs) across "
        "POSIX and STDIO records.",
        "Compare metadata operation counts and POSIX_F_META_TIME against "
        "data operations and read/write time.",
        "Compute opens per distinct file to detect open/close churn.",
    ]


def _meta_code(spec: PromptSpec) -> str:
    return codegen.metadata_code(spec.file_path("POSIX"), spec.file_path("STDIO"))


def _meta_verdict(m: dict, spec: PromptSpec) -> Verdict:
    ratio = m.get("meta_ratio", 0.0)
    time_fraction = m.get("meta_time_fraction", 0.0)
    churn = m.get("opens_per_file", 0.0)
    if ratio < 0.25 and time_fraction < 0.30 and churn <= 4:
        return Verdict(
            Severity.OK,
            f"Metadata activity is modest ({format_count(m['meta_ops'])} "
            f"metadata operations against {format_count(m['data_ops'])} data "
            "operations); the metadata server is not a bottleneck here.",
        )
    sentences = [
        f"The application exhibits high metadata I/O behavior: "
        f"{format_count(m['meta_ops'])} metadata operations "
        f"({format_count(m['opens'])} opens, {format_count(m['stats'])} "
        f"stats) against {format_count(m['data_ops'])} data operations "
        f"({format_percent(ratio)} of all operations), with metadata "
        f"accounting for {format_percent(time_fraction)} of I/O time."
    ]
    if churn > 4:
        sentences.append(
            f"Files are reopened repeatedly ({churn:.1f} opens per file "
            f"across {format_count(m['files'])} files), which could lead to "
            "unnecessary load on the metadata servers and potentially "
            "create a bottleneck in the system."
        )
    severity = (
        Severity.CRITICAL
        if ratio >= 0.50 or time_fraction >= 0.60
        else Severity.WARNING
    )
    return Verdict(severity, " ".join(sentences))


_register(
    IssueSpec(
        issue=IssueType.METADATA_LOAD,
        title="Excessive Metadata Load",
        modules=("POSIX", "STDIO"),
        context="""
Every open, stat, seek and sync is a round trip to the metadata server
(MDS), a single shared resource; applications that repeatedly reopen
many small files, stat before every access, or sync aggressively can
bottleneck on metadata while moving almost no data. The signature is a
high ratio of metadata operations to data operations, metadata time
rivaling or exceeding data-transfer time, and open counts far above
the number of distinct files (open/close churn).

Key metrics: POSIX_OPENS, POSIX_STATS, POSIX_SEEKS, POSIX_FSYNCS
against POSIX_READS + POSIX_WRITES; POSIX_F_META_TIME against
POSIX_F_READ_TIME + POSIX_F_WRITE_TIME; the number of distinct files;
opens per file.
""".strip(),
        steps=_meta_steps,
        code=_meta_code,
        verdict=_meta_verdict,
        markers=("POSIX_OPENS", "POSIX_F_META_TIME"),
        recommendation=(
            "keep files open across iterations and batch metadata operations"
        ),
        keywords=("metadata", "mds", "open", "stat"),
    )
)


# -- POSIX-only I/O ---------------------------------------------------------------


def _no_mpiio_steps(spec: PromptSpec) -> list[str]:
    return [
        "Count ranks issuing POSIX reads/writes.",
        "Sum all MPI-IO operation counters (independent, collective, "
        "split, non-blocking), treating an absent MPI-IO module as zero.",
        "Flag multi-rank POSIX activity with no MPI-IO usage.",
    ]


def _no_mpiio_code(spec: PromptSpec) -> str:
    return codegen.no_mpiio_code(
        spec.file_path("POSIX"), spec.file_path("MPI-IO"), spec.param_int("nprocs", 1)
    )


def _no_mpiio_verdict(m: dict, spec: PromptSpec) -> Verdict:
    if m.get("uses_mpiio"):
        return Verdict(
            Severity.OK,
            f"The application performs its I/O through MPI-IO "
            f"({format_count(m['mpiio_ops'])} MPI-IO operations recorded).",
        )
    if m.get("posix_ranks", 0) <= 1 or m.get("nprocs", 1) <= 1:
        return Verdict(
            Severity.OK,
            "Only a single rank performs I/O; MPI-IO would bring no "
            "aggregation benefit.",
        )
    return Verdict(
        Severity.WARNING,
        f"The application is only using POSIX I/O calls "
        f"({format_count(m['posix_ops'])} operations from "
        f"{m['posix_ranks']} ranks) and is not employing MPI-IO, despite "
        "the presence of multiple ranks performing I/O; it could benefit "
        "from MPI-IO's collective and non-blocking operations.",
    )


_register(
    IssueSpec(
        issue=IssueType.NO_MPIIO,
        title="POSIX-only I/O Despite Multiple Ranks",
        modules=("POSIX", "MPI-IO"),
        context="""
On HPC systems, multi-rank applications that perform their I/O through
raw POSIX calls forgo every optimization the MPI-IO layer provides:
collective buffering (two-phase I/O), data sieving, request
aggregation across ranks, and filesystem-specific hints. The presence
of POSIX activity from several ranks with no MPI-IO records at all
indicates the application (or the I/O library configuration) bypasses
MPI-IO; moving to MPI-IO collective or non-blocking operations is the
standard recommendation, especially for shared files and small or
strided requests.

Key metrics: number of ranks issuing POSIX reads/writes; presence and
operation counts of MPI-IO records (MPIIO_INDEP_*, MPIIO_COLL_*) for
the same job.
""".strip(),
        steps=_no_mpiio_steps,
        code=_no_mpiio_code,
        verdict=_no_mpiio_verdict,
        markers=("MPIIO_INDEP_", "POSIX"),
        recommendation=(
            "adopt MPI-IO (or a high-level library such as HDF5/PnetCDF) for "
            "multi-rank I/O"
        ),
        keywords=("mpi-io", "mpiio", "posix"),
    )
)


# -- MPI-IO without collectives ------------------------------------------------------


def _no_coll_steps(spec: PromptSpec) -> list[str]:
    return [
        "Sum collective, independent and non-blocking MPI-IO operation "
        "counters.",
        "Count MPI-IO files opened by more than one rank.",
        "Flag independent-only MPI-IO on shared files as an unused "
        "collective-buffering opportunity.",
    ]


def _no_coll_code(spec: PromptSpec) -> str:
    return codegen.no_collective_code(
        spec.file_path("MPI-IO"), spec.param_int("nprocs", 1)
    )


def _no_coll_verdict(m: dict, spec: PromptSpec) -> Verdict:
    if not m.get("mpiio_present") or (
        m.get("independent_ops", 0) + m.get("nonblocking_ops", 0) == 0
        and m.get("collective_ops", 0) == 0
    ):
        return Verdict(
            Severity.OK,
            "No MPI-IO activity to assess for collective usage.",
        )
    if m.get("collective_ops", 0) > 0:
        return Verdict(
            Severity.OK,
            f"Collective MPI-IO operations are in use "
            f"({format_count(m['collective_ops'])} collective versus "
            f"{format_count(m['independent_ops'])} independent operations).",
        )
    if m.get("nprocs", 1) <= 1:
        return Verdict(Severity.OK, "Single-rank job; collectives do not apply.")
    return Verdict(
        Severity.WARNING,
        f"The application issues {format_count(m['independent_ops'])} "
        "independent MPI-IO operations but no collective operations"
        + (
            f" while sharing {m['shared_mpiio_files']} file(s) across ranks"
            if m.get("shared_mpiio_files")
            else ""
        )
        + "; enabling collective buffering would let aggregator ranks merge "
        "these requests into large, aligned transfers.",
    )


_register(
    IssueSpec(
        issue=IssueType.NO_COLLECTIVE,
        title="MPI-IO Without Collective Operations",
        modules=("MPI-IO",),
        context="""
Applications already using MPI-IO may still issue only INDEPENDENT
operations (MPIIO_INDEP_READS / MPIIO_INDEP_WRITES), leaving collective
buffering unused. Collective operations let a few aggregator ranks
merge everyone's requests into large, aligned, stripe-friendly
transfers — precisely the cure for many small or misaligned per-rank
accesses on shared files. Independent-only MPI-IO with many ranks on a
shared file is therefore a missed optimization; non-blocking
operations (MPIIO_NB_*) can additionally overlap I/O with computation.

Key metrics: MPIIO_COLL_READS + MPIIO_COLL_WRITES versus
MPIIO_INDEP_READS + MPIIO_INDEP_WRITES + MPIIO_NB_*; number of ranks;
whether files are shared across ranks.
""".strip(),
        steps=_no_coll_steps,
        code=_no_coll_code,
        verdict=_no_coll_verdict,
        markers=("MPIIO_COLL_", "MPIIO_INDEP_"),
        recommendation=(
            "switch independent MPI-IO operations to their collective "
            "counterparts"
        ),
        keywords=("collective",),
    )
)


# -- Rank 0 bottleneck ------------------------------------------------------------------


def _rank0_steps(spec: PromptSpec) -> list[str]:
    return [
        "Sum bytes, time and operations per rank.",
        "Compare rank 0 against the mean of all other ranks.",
        "Flag rank 0 when it both dominates total bytes and exceeds the "
        "other-rank mean by an order of magnitude.",
    ]


def _rank0_code(spec: PromptSpec) -> str:
    return codegen.rank_zero_code(spec.file_path("POSIX"))


def _rank0_verdict(m: dict, spec: PromptSpec) -> Verdict:
    if m.get("ranks", 0) < 2:
        return Verdict(Severity.OK, "Single-rank job; rank-0 skew does not apply.")
    ratio = m.get("rank0_byte_ratio", 0.0)
    share = m.get("rank0_bytes_share", 0.0)
    if share < 0.30 or ratio < 3.0:
        return Verdict(
            Severity.OK,
            f"Rank 0 moves {format_percent(share)} of all bytes "
            f"({ratio:.1f}x the mean of other ranks); no rank-0 "
            "serialization is evident.",
        )
    severity = Severity.CRITICAL if ratio >= 10.0 else Severity.WARNING
    return Verdict(
        severity,
        f"Rank 0 is a serialization point: it transferred "
        f"{format_size(m['rank0_bytes'])} "
        f"({format_percent(share)} of all bytes, {ratio:.0f}x the mean of "
        f"the other {m['ranks'] - 1} ranks) and spent {m['rank0_time']:.2f}s "
        "in I/O; the pattern matches one rank writing headers or fill "
        "values on behalf of the whole application.",
    )


_register(
    IssueSpec(
        issue=IssueType.RANK_ZERO_BOTTLENECK,
        title="Rank 0 Bottleneck",
        modules=("POSIX",),
        context="""
A common serialization anti-pattern funnels I/O work through rank 0:
writing file headers, pre-filling datasets with fill values, or
gathering and writing everyone's data. The job then runs at the speed
of one rank. The signature is rank 0 moving far more bytes, issuing
far more operations, or spending far more I/O time than the average of
all other ranks — often orders of magnitude more.

Key metrics: rank 0's POSIX_BYTES_WRITTEN + POSIX_BYTES_READ and
summed I/O time versus the mean over the other ranks; rank 0's share
of total operations; which files rank 0 dominates.
""".strip(),
        steps=_rank0_steps,
        code=_rank0_code,
        verdict=_rank0_verdict,
        markers=("rank 0", "POSIX_BYTES_"),
        recommendation=(
            "eliminate rank-0 serialization (e.g. disable dataset pre-fill or "
            "parallelize header writes)"
        ),
        keywords=("rank 0", "rank0", "rank zero"),
    )
)
