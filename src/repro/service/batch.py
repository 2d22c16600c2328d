"""Batch diagnosis: fan a campaign of traces across a worker pool.

The single-trace :class:`~repro.ion.pipeline.IoNavigator` answers "what
is wrong with this run?"; a production deployment answers that question
for *queues* of traces — nightly sweeps over every job on a system,
ablation campaigns, regression farms.  :class:`BatchNavigator`
schedules N traces over a bounded thread pool, every worker diagnosing
through one shared :class:`~repro.ion.pipeline.IoNavigator` (and so
through the shared content-addressed cache when one is attached), and
collects per-trace successes *and failures* without ever aborting the
rest of the campaign.

The result is a :class:`CampaignSummary`: per-trace timing, cache
hits, issue counts and errors, plus a snapshot of every pipeline
metric.
"""

from __future__ import annotations

import time
import traceback as traceback_module
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable

# Unused here; kept bound because perfbench/layers.py wraps this name.
from repro.darshan.binformat import read_log  # noqa: F401
from repro.darshan.log import DarshanLog
from repro.ion.analyzer import AnalyzerConfig
from repro.ion.extractor import ExtractionResult
from repro.ion.issues import DiagnosisReport
from repro.ion.pipeline import IoNavigator
from repro.llm.client import LLMClient
from repro.service.cache import CacheStats, ExtractionCache
from repro.util.errors import BatchError
from repro.util.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.journey.executor import JourneyConfig
    from repro.journey.model import JourneyReport
    from repro.workloads.base import Workload


@dataclass
class BatchConfig:
    """Tunables of a batch campaign."""

    #: Bound on concurrently diagnosed traces (pool threads sharing
    #: the campaign's one navigator).
    max_workers: int = 4
    analyzer: AnalyzerConfig = field(default_factory=AnalyzerConfig)
    #: Abort the whole campaign on the first per-trace failure instead
    #: of recording it and continuing.
    fail_fast: bool = False

    def __post_init__(self) -> None:
        if self.max_workers < 1:
            raise BatchError("max_workers must be at least 1")


@dataclass
class _Outcome:
    """What happened to one job of a campaign."""

    index: int
    name: str
    error: str | None = None
    #: Full worker traceback of a FAILED outcome (None on success) —
    #: ``error`` keeps the one-line summary for tables, this keeps the
    #: frames a post-mortem needs.
    traceback: str | None = None
    duration_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None

    def fail(self, exc: Exception) -> None:
        """Record ``exc``; call from inside the block handling it."""
        self.error = f"{type(exc).__name__}: {exc}"
        self.traceback = traceback_module.format_exc()


@dataclass
class TraceOutcome(_Outcome):
    """What happened to one trace of the campaign."""

    report: DiagnosisReport | None = None
    extraction: ExtractionResult | None = None
    cache_hit: bool = False

    @property
    def issue_count(self) -> int:
        """Issues flagged as affecting performance (0 on failure)."""
        if self.report is None:
            return 0
        return sum(1 for d in self.report.diagnoses if d.detected)

    @property
    def degraded_count(self) -> int:
        """Per-issue diagnoses served by a degraded-mode fallback."""
        if self.report is None:
            return 0
        return sum(1 for d in self.report.diagnoses if d.degraded)


@dataclass
class _Summary:
    """Outcomes of one campaign, in submission order."""

    outcomes: list
    elapsed_seconds: float

    @property
    def succeeded(self) -> list:
        return [o for o in self.outcomes if o.ok]

    @property
    def failed(self) -> list:
        return [o for o in self.outcomes if not o.ok]


@dataclass
class CampaignSummary(_Summary):
    """Aggregate result of one :meth:`BatchNavigator.run` call."""

    cache: CacheStats | None = None
    metrics: dict[str, float] = field(default_factory=dict)
    #: Final state of the circuit breaker shared by the worker pool.
    breaker_state: str = "closed"

    @property
    def degraded(self) -> list[TraceOutcome]:
        """Successful outcomes that contain degraded-mode diagnoses."""
        return [o for o in self.succeeded if o.degraded_count > 0]

    @property
    def cache_hit_rate(self) -> float:
        done = self.succeeded
        if not done:
            return 0.0
        return sum(1 for o in done if o.cache_hit) / len(done)

    def health_summary(self) -> dict[str, object]:
        """Aggregate LLM-pipeline health across every per-trace report."""
        healths = [
            o.report.health
            for o in self.outcomes
            if o.report is not None and o.report.health is not None
        ]
        return {
            "queries": sum(h.queries for h in healths),
            "attempts": sum(h.attempts for h in healths),
            "retries": sum(h.retries for h in healths),
            "degraded_queries": sum(h.degraded for h in healths),
            "drishti_fallbacks": sum(h.fallbacks for h in healths),
            "breaker_trips": sum(h.breaker_trips for h in healths),
            "breaker_state": self.breaker_state,
            "degraded_traces": len(self.degraded),
        }

    def render(self) -> str:
        """One-line-per-trace campaign table plus totals."""
        lines = []
        width = max([len(o.name) for o in self.outcomes] + [5])
        for outcome in self.outcomes:
            if outcome.ok:
                status = f"{outcome.issue_count} issue(s)"
                if outcome.degraded_count:
                    status += f", {outcome.degraded_count} DEGRADED"
                cached = "hit " if outcome.cache_hit else "miss"
            else:
                status = f"FAILED: {outcome.error}"
                cached = "-   "
            lines.append(
                f"  {outcome.name:<{width}}  cache={cached}  "
                f"{outcome.duration_seconds:7.3f}s  {status}"
            )
        lines.append(
            f"{len(self.succeeded)}/{len(self.outcomes)} traces diagnosed "
            f"in {self.elapsed_seconds:.3f}s "
            f"(cache hit rate {self.cache_hit_rate:.0%})"
        )
        health = self.health_summary()
        if health["degraded_queries"] or health["retries"]:
            lines.append(
                f"health: {health['retries']} retried and "
                f"{health['degraded_queries']} degraded quer(ies) across "
                f"{health['degraded_traces']} trace(s); "
                f"breaker {health['breaker_state']}"
                + (
                    f" after {health['breaker_trips']} trip(s)"
                    if health["breaker_trips"]
                    else ""
                )
            )
        return "\n".join(lines)


@dataclass
class JourneyOutcome(_Outcome):
    """What happened to one workload's optimization journey."""

    report: "JourneyReport | None" = None

    @property
    def status(self) -> str:
        """Journey status value, or ``"failed"`` for errored journeys."""
        if self.report is None:
            return "failed"
        return self.report.status.value

    @property
    def applied_count(self) -> int:
        if self.report is None:
            return 0
        return len(self.report.applied_actions)


@dataclass
class JourneyCampaignSummary(_Summary):
    """Aggregate result of one :meth:`BatchNavigator.run_journeys` call."""

    metrics: dict[str, float] = field(default_factory=dict)
    breaker_state: str = "closed"

    def render(self) -> str:
        """One-line-per-workload campaign table plus totals."""
        lines = []
        width = max([len(o.name) for o in self.outcomes] + [5])
        for outcome in self.outcomes:
            if outcome.ok and outcome.report is not None:
                ratio = outcome.report.overall_delta.bandwidth_ratio
                status = (
                    f"{outcome.status}  "
                    f"{outcome.applied_count} applied  {ratio:.2f}x bandwidth"
                )
            else:
                status = f"FAILED: {outcome.error}"
            lines.append(
                f"  {outcome.name:<{width}}  "
                f"{outcome.duration_seconds:7.3f}s  {status}"
            )
        lines.append(
            f"{len(self.succeeded)}/{len(self.outcomes)} journeys finished "
            f"in {self.elapsed_seconds:.3f}s"
        )
        return "\n".join(lines)


class BatchNavigator:
    """Bounded-concurrency diagnosis over many traces.

    Accepts the same trace shapes everywhere: a ``(name, DarshanLog)``
    pair, a workload ``TraceBundle`` (anything with ``.name`` and
    ``.log``), a bare :class:`DarshanLog`, or a path to a binary
    ``.darshan`` file.
    """

    def __init__(
        self,
        client: LLMClient | None = None,
        config: BatchConfig | None = None,
        cache: ExtractionCache | None = None,
        metrics: MetricsRegistry | None = None,
        interpreter_factory=None,
        tracer=None,
    ) -> None:
        self.config = config or BatchConfig()
        # Shared by every worker, breaker included: sustained LLM-backend
        # failure trips the whole pool at once.
        self.navigator = IoNavigator(
            client=client,
            config=self.config.analyzer,
            cache=cache,
            metrics=metrics,
            interpreter_factory=interpreter_factory,
            tracer=tracer,
        )
        self.metrics = self.navigator.metrics
        self.tracer = self.navigator.tracer
        self.interpreter_factory = interpreter_factory
        self.breaker = self.navigator.analyzer.breaker

    def close(self) -> None:
        """Remove the batch scratch space (cache entries are kept)."""
        self.navigator.close()

    def __enter__(self) -> "BatchNavigator":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- campaign -----------------------------------------------------

    def run(self, traces) -> CampaignSummary:
        """Diagnose every trace; never let one failure sink the batch."""
        jobs = [
            (index, *self._coerce(trace)) for index, trace in enumerate(traces)
        ]
        if not jobs:
            raise BatchError("batch campaign received no traces")
        outcomes, elapsed = self._campaign(
            jobs,
            self._run_one,
            kind="trace",
            attributes={"kind": "traces", "traces": len(jobs)},
            thread_name_prefix="ion-batch",
        )
        return CampaignSummary(
            outcomes=outcomes,
            elapsed_seconds=elapsed,
            cache=getattr(self.navigator.cache, "stats", None),
            metrics=self.metrics.snapshot(),
            breaker_state=self.breaker.state.value,
        )

    def run_files(self, paths) -> CampaignSummary:
        """Convenience wrapper over :meth:`run` for on-disk logs."""
        return self.run(list(paths))

    def run_journeys(
        self,
        workloads,
        journey_config: "JourneyConfig | None" = None,
    ) -> JourneyCampaignSummary:
        """Drive an optimization journey over every workload.

        ``workloads`` is an iterable of registry names or
        :class:`~repro.workloads.base.Workload` instances.  Journeys
        share the campaign's LLM client, metrics and circuit breaker —
        a dead backend trips once for the whole fleet, and every
        journey continues on Drishti-heuristic recommendations.
        """
        # Imported lazily: repro.journey imports the workload layer,
        # which the service layer must not pull in at import time.
        from repro.journey.executor import JourneyConfig as _JourneyConfig
        from repro.workloads.registry import make_workload

        config = journey_config or _JourneyConfig()
        jobs: list[tuple[int, str, "Workload"]] = []
        for index, item in enumerate(workloads):
            workload = make_workload(item) if isinstance(item, str) else item
            jobs.append(
                (index, getattr(workload, "name", f"workload-{index}"), workload)
            )
        if not jobs:
            raise BatchError("journey campaign received no workloads")
        outcomes, elapsed = self._campaign(
            jobs,
            lambda job: self._run_one_journey(job, config),
            kind="journey",
            attributes={"kind": "journeys", "workloads": len(jobs)},
            thread_name_prefix="ion-journey",
        )
        return JourneyCampaignSummary(
            outcomes=outcomes,
            elapsed_seconds=elapsed,
            metrics=self.metrics.snapshot(),
            breaker_state=self.breaker.state.value,
        )

    def _campaign(
        self,
        jobs: list,
        run_one: Callable,
        kind: str,
        attributes: dict,
        thread_name_prefix: str,
    ) -> tuple[list, float]:
        """Run every job on the pool under one ``batch.campaign`` root."""
        started = time.perf_counter()
        with self.tracer.span(
            "batch.campaign", attributes=attributes, new_trace=True
        ) as campaign:
            with ThreadPoolExecutor(
                max_workers=self.config.max_workers,
                thread_name_prefix=thread_name_prefix,
            ) as pool:
                outcomes = list(pool.map(run_one, jobs))
            campaign.set_attribute(
                "failed", sum(1 for o in outcomes if not o.ok)
            )
        elapsed = time.perf_counter() - started
        if self.config.fail_fast:
            for outcome in outcomes:
                if not outcome.ok:
                    raise BatchError(
                        f"{kind} {outcome.name!r} failed: {outcome.error}"
                    )
        return outcomes, elapsed

    def _run_one_journey(
        self, job: tuple[int, str, "Workload"], config: "JourneyConfig"
    ) -> JourneyOutcome:
        from repro.journey.executor import JourneyNavigator

        index, name, workload = job
        outcome = JourneyOutcome(index=index, name=name)
        started = time.perf_counter()
        with self.tracer.span(
            "batch.job", attributes={"kind": "journey", "workload": name},
            new_trace=True,
        ) as span:
            try:
                with JourneyNavigator(
                    client=self.navigator.client,
                    analyzer_config=self.config.analyzer,
                    journey_config=config,
                    metrics=self.metrics,
                    interpreter_factory=self.interpreter_factory,
                    breaker=self.breaker,
                    tracer=self.tracer,
                ) as navigator:
                    outcome.report = navigator.navigate(workload)
            except Exception as exc:  # noqa: BLE001 — isolate per-journey faults
                outcome.fail(exc)
                span.set_status("error", outcome.error)
        outcome.duration_seconds = time.perf_counter() - started
        return outcome

    def _run_one(self, job: tuple[int, str, "DarshanLog | Path"]) -> TraceOutcome:
        index, name, log = job
        outcome = TraceOutcome(index=index, name=name)
        started = time.perf_counter()
        # Each job is the root of its own trace; the span's status is
        # the job's outcome, which the metrics count.
        with self.tracer.span(
            "batch.job", attributes={"kind": "trace", "trace": name},
            new_trace=True,
        ) as span:
            try:
                # A path is read on the worker, so one unreadable log
                # is an outcome, not a campaign abort.
                result = self.navigator.diagnose(log, name)
                outcome.report = result.report
                outcome.extraction = result.extraction
                outcome.cache_hit = result.cache_hit
            except Exception as exc:  # noqa: BLE001 — isolate per-trace faults
                outcome.fail(exc)
                span.set_status("error", outcome.error)
        outcome.duration_seconds = time.perf_counter() - started
        return outcome

    # -- input coercion -----------------------------------------------

    def _coerce(self, trace) -> tuple[str, "DarshanLog | Path"]:
        if isinstance(trace, DarshanLog):
            return f"trace-{id(trace):x}", trace
        if isinstance(trace, (str, Path)):
            path = Path(trace)
            return path.stem, path
        if isinstance(trace, tuple) and len(trace) == 2:
            name, log = trace
            if not isinstance(log, DarshanLog):
                raise BatchError(
                    f"trace pair {name!r} does not carry a DarshanLog"
                )
            return str(name), log
        name = getattr(trace, "name", None)
        log = getattr(trace, "log", None)
        if name is not None and isinstance(log, DarshanLog):
            return str(name), log
        raise BatchError(
            f"cannot interpret {type(trace).__name__} as a trace; pass a "
            "path, a DarshanLog, a (name, log) pair, or a TraceBundle"
        )
