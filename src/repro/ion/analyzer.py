"""The ION Analyzer: prompt dispatch, completion parsing, summarization.

For every issue type the Analyzer formats a prompt (issue context +
system parameters + filtered file descriptions + output format), runs
it against the LLM through an Assistants-style run with a code
interpreter attached, and parses the completion into a
:class:`~repro.ion.issues.Diagnosis` — steps, executed code, measured
evidence, severity and mitigation notes.  Prompts are dispatched in
parallel, as in the paper.  Finally a summarization prompt combines
all per-issue conclusions into the global summary.

Every logical query runs inside a resilience envelope: retry with
exponential backoff and jitter, a per-query deadline, and a circuit
breaker shared across queries (and, in batch mode, across worker
analyzers).  A query that exhausts its budget does not abort the
report — it degrades to the deterministic Drishti heuristic fallback
(:mod:`repro.ion.degraded`) and the report's
:class:`~repro.ion.issues.ReportHealth` records what happened.
"""

from __future__ import annotations

import random
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.darshan.binformat import LogFile
from repro.darshan.log import DarshanLog
from repro.ion.degraded import DrishtiFallback, compose_degraded_summary
from repro.ion.extractor import ExtractionResult
from repro.ion.issues import (
    Diagnosis,
    DiagnosisReport,
    IssueType,
    MitigationNote,
    ReportHealth,
    Severity,
)
from repro.ion.prompts import (
    ASSISTANT_INSTRUCTIONS,
    build_issue_prompt,
    build_summary_prompt,
)
from repro.llm.assistants import Assistant, Run, RunStatus, Thread
from repro.llm.client import LLMClient
from repro.ion.specs import IssueSpec, spec_for
from repro.llm.expert.model import (
    SimulatedExpertLLM,
    parse_conclusions,
    parse_tool_output,
)
from repro.llm.interpreter import CodeInterpreter
from repro.sca.policy import GuardPolicy
from repro.llm.messages import Message
from repro.llm.resilience import BackoffPolicy, CircuitBreaker, query_deadline
from repro.obs.trace import NullTracer, Span
from repro.util.errors import AnalysisError, CircuitOpenError, LLMError

_SEVERITY_RE = re.compile(r"\[severity=(\w+)\]")
_MITIGATIONS_RE = re.compile(r"\[mitigations=([\w,\s]+)\]")
_STEP_RE = re.compile(r"^\s*\d+\.\s+(.*\S)", flags=re.MULTILINE)

#: ``Diagnosis.fallback_source`` of an issue whose analysis read
#: ``DXT.csv`` and failed, and whose answer came from a retry that read
#: only the counters.
DXT_RUN_FAILED = "counters: DXT run failed"

#: Failures the resilience envelope absorbs; anything else is a
#: programming error and propagates.
_RETRYABLE = (LLMError, AnalysisError)


@dataclass
class ResilienceConfig:
    """Retry, deadline, breaker and degradation tunables of the analyzer."""

    #: Total tries per logical query (1 = no retries).
    max_attempts: int = 3
    #: Backoff doubles from ``backoff_base`` up to ``backoff_max``, with
    #: :class:`BackoffPolicy`'s default jitter.
    backoff_base: float = 0.05
    backoff_max: float = 1.0
    #: Wall-clock budget for one logical query including retries and
    #: their delays; None disables the deadline.
    query_deadline: float | None = 30.0
    #: Consecutive query failures that trip the circuit breaker.
    breaker_failure_threshold: int = 5
    #: Seconds the breaker stays open before letting a probe through.
    breaker_recovery_seconds: float = 30.0
    #: True (default): a query that exhausts its budget yields a
    #: DEGRADED diagnosis (Drishti fallback when the trace is known).
    #: False: the failure propagates and aborts the report (strict
    #: mode, the pre-resilience behaviour).
    degrade: bool = True

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise AnalysisError("max_attempts must be at least 1")
        if self.query_deadline is not None and self.query_deadline <= 0:
            raise AnalysisError("query_deadline must be positive when set")
        # Delegate the remaining bounds checks to BackoffPolicy /
        # CircuitBreaker so one validation story covers both layers.
        try:
            self.policy()
            self.breaker()
        except LLMError as exc:
            raise AnalysisError(f"invalid resilience config: {exc}") from exc

    def policy(self) -> BackoffPolicy:
        """The backoff policy this configuration describes."""
        return BackoffPolicy(
            max_attempts=self.max_attempts,
            base_delay=self.backoff_base,
            max_delay=max(self.backoff_max, self.backoff_base),
            deadline=self.query_deadline,
        )

    def breaker(self) -> CircuitBreaker:
        """A fresh circuit breaker with these thresholds."""
        return CircuitBreaker(
            failure_threshold=self.breaker_failure_threshold,
            recovery_time=self.breaker_recovery_seconds,
        )


@dataclass
class AnalyzerConfig:
    """Tunables of the analysis pipeline."""

    strategy: str = "divide"  # "divide" (paper) or "monolithic" (ABL1)
    include_context: bool = True  # False reproduces ABL2
    include_dxt: bool = True  # False forces counters-only analysis
    #: "static" uses the fixed per-issue contexts; "retrieval" builds
    #: each prompt's context from knowledge-base passages (RAG mode).
    context_source: str = "static"
    retrieval_k: int = 3
    issues: tuple[IssueType, ...] = field(
        default_factory=lambda: tuple(IssueType)
    )
    max_tool_rounds: int = 6
    #: Size of the analyzer's thread pool dispatching per-issue
    #: prompts; 1 runs the prompts sequentially.
    parallel_prompts: int = 4
    summarize: bool = True
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)
    #: Static vetting of model-generated code before execution:
    #: "off", "warn" (count but execute), or "enforce" (reject BLOCK
    #: verdicts with traceback-style feedback).  Enforce is the default.
    guard: GuardPolicy | str = GuardPolicy.ENFORCE

    def __post_init__(self) -> None:
        if self.strategy not in ("divide", "monolithic"):
            raise AnalysisError(f"unknown strategy {self.strategy!r}")
        try:
            self.guard = GuardPolicy.parse(self.guard)
        except ValueError as exc:
            raise AnalysisError(str(exc)) from None
        if self.parallel_prompts < 1:
            raise AnalysisError("parallel_prompts must be at least 1")
        if self.max_tool_rounds < 1:
            raise AnalysisError("max_tool_rounds must be at least 1")
        if self.context_source not in ("static", "retrieval"):
            raise AnalysisError(
                f"unknown context source {self.context_source!r}"
            )
        if self.retrieval_k < 1:
            raise AnalysisError("retrieval_k must be at least 1")
        if not self.issues:
            raise AnalysisError("at least one issue type must be analyzed")


def _dxt_run_failed(run: Run, extraction: ExtractionResult) -> bool:
    """Whether code that read ``DXT.csv`` failed in ``run`` and the run's
    last clean execution read no ``DXT.csv``: it answered from counters."""
    path = extraction.csv_paths.get("DXT")
    if path is None:
        return False
    failed = answered_without = False
    for step in run.steps:
        if step.execution is None:
            continue
        reads = str(path) in step.completion.code_call.code
        if not step.execution.ok:
            failed = failed or reads
        else:
            answered_without = not reads
    return failed and answered_without


class Analyzer:
    """Runs the full per-issue diagnosis over one extraction.

    With ``parallel_prompts > 1`` the analyzer owns one prompt thread
    pool, started by the first divide-strategy :meth:`analyze` and
    shared by every later call, concurrent ones included.
    :meth:`close` stops it.
    """

    def __init__(
        self,
        client: LLMClient | None = None,
        config: AnalyzerConfig | None = None,
        interpreter_factory: Callable[[Path], CodeInterpreter] | None = None,
        breaker: CircuitBreaker | None = None,
        sleep: Callable[[float], None] = time.sleep,
        tracer=None,
    ) -> None:
        self.client = client or SimulatedExpertLLM()
        self.config = config or AnalyzerConfig()
        self.tracer = tracer or NullTracer()
        self.interpreter_factory = interpreter_factory or self._default_interpreter
        #: Shared across every query of this analyzer; batch deployments
        #: pass one breaker to all worker analyzers so sustained backend
        #: failure trips the whole fleet, not one worker at a time.
        self.breaker = breaker or self.config.resilience.breaker()
        self._sleep = sleep
        # Jitter source: seeded so retry schedules are reproducible.
        self._rng = random.Random(0)
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()

    def close(self) -> None:
        """Stop the prompt threads; a later :meth:`analyze` starts new ones."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown()

    def _prompt_pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.config.parallel_prompts,
                    thread_name_prefix="ion-prompt",
                )
            return self._pool

    def _default_interpreter(self, workdir: Path) -> CodeInterpreter:
        # Threads the guard policy and tracer into every
        # sandbox the analyzer spins up; custom factories (fault
        # shims, tests) bypass this and configure their own.
        return CodeInterpreter(
            workdir,
            guard=self.config.guard,
            tracer=self.tracer,
        )

    # -- public API ------------------------------------------------------

    def analyze(
        self,
        extraction: ExtractionResult,
        trace_name: str = "trace",
        log: DarshanLog | LogFile | None = None,
    ) -> DiagnosisReport:
        """Produce the full diagnosis report for one extracted trace.

        ``log`` (optional) enables the Drishti heuristic fallback for
        queries that degrade; without it a degraded issue is reported
        as unexamined.  A :class:`LogFile` is read only if a query
        degrades.
        """
        with self.tracer.span(
            "analyzer.analyze",
            attributes={"trace": trace_name, "strategy": self.config.strategy},
        ) as span:
            trips_before = self.breaker.trips
            fallback = DrishtiFallback(log, trace_name)
            if self.config.strategy == "divide":
                diagnoses, queries = self._analyze_divide(
                    extraction, trace_name, fallback
                )
            else:
                diagnoses, queries = self._analyze_monolithic(
                    extraction, trace_name, fallback
                )
            report = DiagnosisReport(trace_name=trace_name, diagnoses=diagnoses)
            if self.config.summarize:
                report.summary, summary = self._summarize(trace_name, diagnoses)
                queries.append(summary)
            report.health = self._health_from(queries, trips_before, diagnoses)
            span.set_attribute("queries", report.health.queries)
            span.set_attribute("retries", report.health.retries)
            span.set_attribute("degraded_queries", report.health.degraded)
            span.set_attribute(
                "dxt_fallbacks",
                sum(d.fallback_source == DXT_RUN_FAILED for d in diagnoses),
            )
        return report

    # -- resilience envelope ---------------------------------------------

    def _with_resilience(self, span, label, attempt_fn):
        """Run ``attempt_fn`` with retry/backoff/deadline/breaker.

        Returns ``(value, "")`` on success or ``(None, reason)`` once the
        budget is exhausted or the breaker refuses the call.  Only
        LLM-path failures (:data:`_RETRYABLE`) are absorbed.  ``span``
        is the query's: it records the attempts, the retries scheduled
        (a breaker refusal can follow one) and breaker events as they
        happen.
        """
        policy = self.config.resilience.policy()
        started = time.perf_counter()
        # The tool loop and the sandbox inside an attempt honour the
        # deadline too, so one attempt cannot overrun it.
        deadline_at = None if policy.deadline is None else started + policy.deadline
        attempts = retries = 0
        span.set_attribute("attempts", attempts)
        reason = ""
        last_delay = 0.0
        for attempt in range(1, policy.max_attempts + 1):
            if not self.breaker.allow():
                span.add_event(
                    "breaker.short_circuit",
                    label=label,
                    breaker=self.breaker.state.value,
                )
                short = CircuitOpenError(
                    f"circuit breaker open; {label} not attempted"
                )
                reason = f"{type(short).__name__}: {short}"
                break
            attempts += 1
            span.set_attribute("attempts", attempts)
            if attempts > 1:
                # One event per re-attempt: the backoff delay that just
                # elapsed and the breaker state letting the call through.
                span.add_event(
                    "retry",
                    attempt=attempts,
                    delay=round(last_delay, 9),
                    breaker=self.breaker.state.value,
                )
            try:
                with query_deadline(deadline_at):
                    value = attempt_fn()
            except _RETRYABLE as exc:
                trips_before = self.breaker.trips
                self.breaker.record_failure()
                if self.breaker.trips > trips_before:
                    span.add_event(
                        "breaker.opened",
                        label=label,
                        trips=self.breaker.trips,
                    )
                reason = f"{type(exc).__name__}: {exc}"
                elapsed = time.perf_counter() - started
                deadline = policy.deadline
                if deadline is not None and elapsed >= deadline:
                    reason += " (query deadline exhausted)"
                    break
                if attempt < policy.max_attempts:
                    delay = policy.delay(attempt, self._rng)
                    if deadline is not None:
                        delay = min(delay, max(deadline - elapsed, 0.0))
                    if delay > 0:
                        self._sleep(delay)
                    last_delay = delay
                    retries += 1
                    span.set_attribute("retries_scheduled", retries)
                continue
            self.breaker.record_success()
            return value, ""
        return None, reason

    def _query(self, span_context, label, prompt, attempt, on_failure):
        """Run one logical query (issue, monolithic or summary) in a span.

        Returns the query's value and its span.  ``span_context`` is the
        unopened ``tracer.span(...)`` the query records into.
        ``on_failure(reason, span)`` handles a query that exhausted its
        budget: it raises in strict mode, or adds one ``degraded`` event
        to the span per answer it degrades and returns ``(value,
        fallback)`` where ``fallback`` is the span's ``fallback``
        attribute (None sets none).
        """
        with span_context as span:
            span.set_attribute("prompt.chars", len(prompt))
            value, reason = self._with_resilience(span, label, attempt)
            if value is None:
                value, fallback = on_failure(reason, span)
                span.set_attribute("degraded", True)
                if fallback is not None:
                    span.set_attribute("fallback", fallback)
                span.set_attribute("reason", reason)
        return value, span

    def _degrade_or_raise(
        self,
        issue: IssueType,
        fallback: DrishtiFallback,
        reason: str,
        span,
    ) -> Diagnosis:
        if not self.config.resilience.degrade:
            raise AnalysisError(
                f"query for {issue.title!r} failed without degraded mode: "
                f"{reason}"
            )
        diagnosis = fallback.diagnosis_for(issue, reason)
        span.add_event(
            "degraded",
            issue=issue.value,
            fallback=diagnosis.fallback_source or "none",
        )
        return diagnosis

    def _health_from(
        self, queries: list[Span], trips_before: int, diagnoses: list[Diagnosis]
    ) -> ReportHealth:
        """The report's health, read off its query spans."""
        degraded = [q.attributes for q in queries if q.attributes.get("degraded")]
        notes = [f"query:{a.get('issue', 'summary')}: {a['reason']}" for a in degraded]
        notes += [
            f"query:{d.issue.value}: {DXT_RUN_FAILED}"
            for d in diagnoses
            if d.fallback_source == DXT_RUN_FAILED
        ]
        attempts = [q.attributes["attempts"] for q in queries]
        return ReportHealth(
            queries=len(queries),
            attempts=sum(attempts),
            retries=sum(max(a - 1, 0) for a in attempts),
            degraded=len(degraded),
            fallbacks=sum(a.get("fallback") == "drishti" for a in degraded),
            breaker_state=self.breaker.state.value,
            breaker_trips=self.breaker.trips - trips_before,
            notes=notes,
        )

    # -- strategies ----------------------------------------------------------

    def _specs(self, extraction: ExtractionResult) -> list[IssueSpec]:
        if self.config.context_source == "retrieval":
            from repro.ion.retrieval import ContextRetriever

            retriever = ContextRetriever()
            return [
                retriever.retrieve(issue, extraction, k=self.config.retrieval_k)
                for issue in self.config.issues
            ]
        return [spec_for(issue) for issue in self.config.issues]

    def _analyze_divide(
        self,
        extraction: ExtractionResult,
        trace_name: str,
        fallback: DrishtiFallback,
    ) -> tuple[list[Diagnosis], list[Span]]:
        specs = self._specs(extraction)
        # Captured before the pool: worker threads have no ambient span
        # context, so the per-issue query spans take their parent by
        # explicit handoff across the thread boundary.
        parent = self.tracer.current_span()

        def run_one(spec: IssueSpec) -> tuple[Diagnosis, Span]:
            prompt = build_issue_prompt(
                trace_name, spec, extraction,
                include_context=self.config.include_context,
                include_dxt=self.config.include_dxt,
            )

            def attempt() -> Diagnosis:
                run = self._run_prompt(prompt, extraction)
                diagnosis = self._diagnosis_from_run(spec.issue, run)
                if _dxt_run_failed(run, extraction):
                    diagnosis.fallback_source = DXT_RUN_FAILED
                return diagnosis

            def degrade(reason: str, span) -> tuple[Diagnosis, str]:
                diagnosis = self._degrade_or_raise(
                    spec.issue, fallback, reason, span
                )
                return diagnosis, diagnosis.fallback_source or "none"

            return self._query(
                self.tracer.span(
                    "analyzer.query",
                    attributes={"issue": spec.issue.value},
                    parent=parent,
                ),
                f"query:{spec.issue.value}", prompt, attempt, degrade,
            )

        if self.config.parallel_prompts > 1:
            pool = self._prompt_pool()
            futures = [pool.submit(run_one, spec) for spec in specs]
            # Every query ends before a failure propagates: none of this
            # report's work is left running in the shared pool.
            wait(futures)
            results = [future.result() for future in futures]
        else:
            results = [run_one(spec) for spec in specs]
        return [d for d, _ in results], [s for _, s in results]

    def _analyze_monolithic(
        self,
        extraction: ExtractionResult,
        trace_name: str,
        fallback: DrishtiFallback,
    ) -> tuple[list[Diagnosis], list[Span]]:
        prompt = build_issue_prompt(
            trace_name, self._specs(extraction), extraction,
            include_context=self.config.include_context,
            include_dxt=self.config.include_dxt,
        )

        def attempt() -> list[Diagnosis]:
            run = self._run_prompt(prompt, extraction)
            conclusions = parse_conclusions(run.final_text)
            evidence = self._evidence_by_issue(run)
            dxt_failed = _dxt_run_failed(run, extraction)
            diagnoses = []
            for issue in self.config.issues:
                body = conclusions.get(issue.title)
                if body is None:
                    diagnoses.append(
                        Diagnosis(
                            issue=issue,
                            severity=Severity.OK,
                            conclusion=(
                                "(the model did not address this issue in its "
                                "combined completion)"
                            ),
                        )
                    )
                    continue
                diagnosis = self._diagnosis_from_body(
                    issue, body, run, evidence.get(issue)
                )
                if dxt_failed and spec_for(issue).dxt:
                    diagnosis.fallback_source = DXT_RUN_FAILED
                diagnoses.append(diagnosis)
            return diagnoses

        def degrade(reason: str, span) -> tuple[list[Diagnosis], str]:
            # The one combined query failed: every issue degrades.
            diagnoses = [
                self._degrade_or_raise(issue, fallback, reason, span)
                for issue in self.config.issues
            ]
            drishti = any(d.fallback_source == "drishti" for d in diagnoses)
            return diagnoses, "drishti" if drishti else "none"

        diagnoses, query = self._query(
            self.tracer.span("analyzer.query", attributes={"issue": "monolithic"}),
            "query:monolithic", prompt, attempt, degrade,
        )
        return diagnoses, [query]

    # -- plumbing ---------------------------------------------------------------

    def _run_prompt(self, prompt: str, extraction: ExtractionResult) -> Run:
        with self.tracer.span(
            "llm.prompt", attributes={"prompt.chars": len(prompt)}
        ) as span:
            interpreter = self.interpreter_factory(extraction.directory)
            assistant = Assistant(
                client=self.client,
                instructions=ASSISTANT_INSTRUCTIONS,
                interpreter=interpreter,
                max_tool_rounds=self.config.max_tool_rounds,
                tracer=self.tracer,
            )
            thread = Thread()
            thread.add(Message.user(prompt))
            run = assistant.run(thread)
            span.set_attribute("rounds", len(run.steps))
            span.set_attribute("completion.chars", len(run.final_text))
            if run.status != RunStatus.COMPLETED:
                raise AnalysisError(
                    "analysis run failed to complete within the tool budget"
                )
        return run

    def _diagnosis_from_run(self, issue: IssueType, run: Run) -> Diagnosis:
        conclusions = parse_conclusions(run.final_text)
        body = conclusions.get(issue.title, run.final_text)
        evidence = self._evidence_by_issue(run).get(issue)
        return self._diagnosis_from_body(issue, body, run, evidence)

    def _diagnosis_from_body(
        self, issue: IssueType, body: str, run: Run, evidence: dict | None
    ) -> Diagnosis:
        severity = Severity.OK
        match = _SEVERITY_RE.search(body)
        if match:
            try:
                severity = Severity(match.group(1))
            except ValueError as exc:
                raise AnalysisError(
                    f"model produced unknown severity {match.group(1)!r}"
                ) from exc
        mitigations: list[MitigationNote] = []
        match = _MITIGATIONS_RE.search(body)
        if match:
            for token in match.group(1).split(","):
                token = token.strip()
                if not token:
                    continue
                try:
                    mitigations.append(MitigationNote(token))
                except ValueError as exc:
                    raise AnalysisError(
                        f"model produced unknown mitigation {token!r}"
                    ) from exc
        conclusion = _SEVERITY_RE.sub("", body)
        conclusion = _MITIGATIONS_RE.sub("", conclusion).strip()
        steps = self._steps_from_run(run)
        return Diagnosis(
            issue=issue,
            severity=severity,
            conclusion=conclusion,
            steps=steps,
            code="\n\n".join(run.code_blocks),
            code_output=run.tool_outputs[-1] if run.tool_outputs else "",
            evidence=evidence or {},
            mitigations=mitigations,
        )

    def _steps_from_run(self, run: Run) -> list[str]:
        for step in run.steps:
            content = step.completion.content
            if "Diagnosis Steps:" in content:
                return _STEP_RE.findall(content)
        return []

    def _evidence_by_issue(self, run: Run) -> dict[IssueType, dict]:
        """Recover per-issue metrics from the last successful tool output.

        Metrics printed under no issue marker belong to the analyzed
        issue when the analyzer runs exactly one.
        """
        issues = self.config.issues
        default = issues[0] if len(issues) == 1 else None
        evidence: dict[IssueType, dict] = {}
        for step in run.steps:
            if step.execution is not None and step.execution.ok:
                evidence.update(parse_tool_output(step.execution.stdout, default))
        return evidence

    # -- summary -------------------------------------------------------------------

    def _summarize(
        self, trace_name: str, diagnoses: list[Diagnosis]
    ) -> tuple[str, Span]:
        conclusions = [
            (
                diagnosis.issue,
                f"{diagnosis.conclusion} [severity={diagnosis.severity.value}]",
            )
            for diagnosis in diagnoses
        ]
        prompt = build_summary_prompt(trace_name, conclusions)

        def attempt() -> str:
            return self.client.complete([Message.user(prompt)]).content

        def degrade(reason: str, span) -> tuple[str, None]:
            if not self.config.resilience.degrade:
                raise AnalysisError(
                    f"summarization query failed without degraded mode: "
                    f"{reason}"
                )
            span.add_event("degraded", issue="summary", fallback="none")
            return compose_degraded_summary(trace_name, diagnoses, reason), None

        return self._query(
            self.tracer.span("analyzer.summarize"),
            "query:summary", prompt, attempt, degrade,
        )
