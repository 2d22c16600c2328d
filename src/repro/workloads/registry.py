"""Named catalog of the paper's trace configurations.

``FIGURE2_WORKLOADS`` are the six IO500-derived controlled traces of
Figure 2; ``FIGURE3_WORKLOADS`` are the four real-application replays
of Figure 3.  :func:`make_workload` builds a fresh workload instance by
name, with the paper's parameters baked in; callers (``iogen --set``,
the journey executor) may override individual config knobs, with value
coercion and the workload's own validation applied.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

from repro.util.errors import WorkloadConfigError
from repro.util.units import KIB, MIB, parse_size
from repro.workloads.base import Workload, apply_config_changes, config_knobs
from repro.workloads.e2e import E2eBaseline, E2eOptimized
from repro.workloads.ior import IOR_HARD_TRANSFER, IorConfig, IorWorkload
from repro.workloads.mdworkbench import MdWorkbenchConfig, MdWorkbenchWorkload
from repro.workloads.openpmd import OpenPmdBaseline, OpenPmdOptimized
from repro.workloads.stdio_logger import StdioLoggerWorkload


def _ior_easy(name: str, transfer_size: int, file_per_process: bool) -> Workload:
    return IorWorkload(
        config=IorConfig(
            mode="easy", api="POSIX", nprocs=4, transfer_size=transfer_size,
            segments=1024, file_per_process=file_per_process,
            file_name="/lustre/ior-easy/ior_file_easy",
        ),
        name=name,
    )


def _ior_hard() -> Workload:
    return IorWorkload(
        config=IorConfig(
            mode="hard", api="POSIX", nprocs=4,
            transfer_size=IOR_HARD_TRANSFER, segments=100_000,
            file_name="/lustre/ior-hard/IOR_file",
        ),
        name="ior-hard",
    )


def _ior_rnd4k() -> Workload:
    return IorWorkload(
        config=IorConfig(
            mode="random", api="POSIX", nprocs=4, transfer_size=4 * KIB,
            segments=35_900, file_name="/lustre/ior-rnd/IOR_file_random",
        ),
        name="ior-rnd4k",
    )


def _md_workbench() -> Workload:
    return MdWorkbenchWorkload(config=MdWorkbenchConfig())


def _ior_easy_mixed() -> Workload:
    """Bulk 2 MiB transfers with a 64 KiB bookkeeping record every 4th
    op — a fractional small-I/O ratio (25%) that exposes the ratio
    dimension of Drishti's thresholds (ABL3)."""
    return IorWorkload(
        config=IorConfig(
            mode="easy", api="POSIX", nprocs=4, transfer_size=2 * MIB,
            minor_transfer_size=64 * KIB, minor_every=4, segments=512,
            file_per_process=True,
            file_name="/lustre/ior-mixed/ior_file_mixed",
        ),
        name="ior-easy-mixed",
    )


@dataclass(frozen=True)
class WorkloadInfo:
    """One registry entry: name, what it models, and its factory."""

    name: str
    description: str
    factory: Callable[[], Workload]


_REGISTRY: dict[str, WorkloadInfo] = {
    info.name: info
    for info in (
        WorkloadInfo(
            "ior-easy-2k-shared",
            "IOR easy with tiny 2 KiB transfers into one shared file: "
            "small, misaligned POSIX I/O from every rank.",
            partial(_ior_easy, "ior-easy-2k-shared", 2 * KIB, False),
        ),
        WorkloadInfo(
            "ior-easy-1m-shared",
            "IOR easy with 1 MiB transfers into one shared file: "
            "well-formed bulk I/O, still POSIX-only.",
            partial(_ior_easy, "ior-easy-1m-shared", MIB, False),
        ),
        WorkloadInfo(
            "ior-easy-1m-fpp",
            "IOR easy with 1 MiB transfers, file-per-process: the "
            "contention-free variant of the shared run.",
            partial(_ior_easy, "ior-easy-1m-fpp", MIB, True),
        ),
        WorkloadInfo(
            "ior-hard",
            "IOR hard: interleaved 47008-byte records from all ranks "
            "into one shared file — small, misaligned, contended.",
            _ior_hard,
        ),
        WorkloadInfo(
            "ior-rnd4k",
            "IOR random: 4 KiB transfers at shuffled offsets — the "
            "random-access pathology.",
            _ior_rnd4k,
        ),
        WorkloadInfo(
            "md-workbench",
            "md-workbench replay: metadata-heavy create/stat/delete "
            "churn over many small files.",
            _md_workbench,
        ),
        WorkloadInfo(
            "ior-easy-mixed",
            "IOR easy with 2 MiB bulk transfers plus a 64 KiB "
            "bookkeeping record every 4th op (25% small ratio).",
            _ior_easy_mixed,
        ),
        WorkloadInfo(
            "stdio-logger",
            "Rank-0 STDIO logger: one rank appends log lines while "
            "others compute — rank-0 bottleneck material.",
            StdioLoggerWorkload,
        ),
        WorkloadInfo(
            "openpmd-baseline",
            "openPMD particle dump replay, naive settings: per-rank "
            "small writes without collective buffering.",
            OpenPmdBaseline,
        ),
        WorkloadInfo(
            "openpmd-optimized",
            "openPMD particle dump replay after tuning: collective "
            "MPI-IO with aggregated large writes.",
            OpenPmdOptimized,
        ),
        WorkloadInfo(
            "e2e-baseline",
            "End-to-end application replay, untuned: mixed small I/O, "
            "shared-file contention and metadata churn.",
            E2eBaseline,
        ),
        WorkloadInfo(
            "e2e-optimized",
            "End-to-end application replay after the paper's "
            "optimization journey: the cleaned-up counterpart.",
            E2eOptimized,
        ),
    )
}

FIGURE2_WORKLOADS: tuple[str, ...] = (
    "ior-easy-2k-shared",
    "ior-easy-1m-shared",
    "ior-easy-1m-fpp",
    "ior-hard",
    "ior-rnd4k",
    "md-workbench",
)

FIGURE3_WORKLOADS: tuple[str, ...] = (
    "openpmd-baseline",
    "openpmd-optimized",
    "e2e-baseline",
    "e2e-optimized",
)

#: Workloads beyond the paper's figures (ablation/extension material).
EXTRA_WORKLOADS: tuple[str, ...] = ("ior-easy-mixed", "stdio-logger")


def workload_names() -> list[str]:
    """Every registered workload name."""
    return list(_REGISTRY)


def workload_info(name: str) -> WorkloadInfo:
    """The registry entry for one workload name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown workload {name!r}; known: {known}") from None


def workload_knobs(name: str) -> dict[str, object]:
    """The tunable config knobs of a workload, name -> default value."""
    return config_knobs(workload_info(name).factory())


def _coerce_override(name: str, current: object, raw: object):
    """Coerce a raw (usually string) override to the knob's type.

    Booleans are checked before ints — ``bool`` is an ``int`` subclass.
    Integer knobs accept size suffixes (``4MiB``) via :func:`parse_size`.
    """
    if not isinstance(raw, str):
        return raw
    if isinstance(current, bool):
        lowered = raw.strip().lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise WorkloadConfigError(
            f"{name}: expected a boolean, got {raw!r}"
        )
    if isinstance(current, int):
        try:
            return int(raw)
        except ValueError:
            pass
        try:
            return parse_size(raw)
        except ValueError as exc:
            raise WorkloadConfigError(
                f"{name}: expected an integer or size, got {raw!r}"
            ) from exc
    if isinstance(current, float):
        try:
            return float(raw)
        except ValueError as exc:
            raise WorkloadConfigError(
                f"{name}: expected a number, got {raw!r}"
            ) from exc
    return raw


def make_workload(
    name: str, overrides: dict[str, object] | None = None
) -> Workload:
    """Build a fresh workload instance by registry name.

    ``overrides`` patches individual config knobs (``iogen --set``);
    string values are coerced to the knob's type and the patched config
    passes through the workload's own validation.
    """
    workload = workload_info(name).factory()
    if not overrides:
        return workload
    knobs = config_knobs(workload)
    unknown = sorted(set(overrides) - set(knobs))
    if unknown:
        raise WorkloadConfigError(
            f"unknown config knob(s) {', '.join(unknown)} for workload "
            f"{name!r}; known: {', '.join(sorted(knobs))}"
        )
    coerced = {
        key: _coerce_override(key, knobs[key], value)
        for key, value in overrides.items()
    }
    patched, _ = apply_config_changes(workload, coerced)
    return patched
