"""Chaos-matrix tests: the pipeline must survive every injected fault.

Every cell of {timeout, transient error, malformed completion,
interpreter crash} x {first issue query, summarization, interactive
Q&A} runs the full pipeline under a deterministic fault plan and
asserts the same contract: a complete report comes back, no exception
escapes, and no scratch directory leaks.  Targeted tests then pin down
the stronger guarantees — full outages degrade every diagnosis onto
the Drishti heuristics, a 30% transient fault rate is fully absorbed
by retries, the circuit breaker trips and short-circuits under
sustained failure, and both CLIs exit 0 under a 100% fault plan.
"""

from __future__ import annotations

import dataclasses
import tempfile
import time
from pathlib import Path

import pytest

from repro.darshan.binformat import write_log
from repro.ion import cli as ion_cli
from repro.ion.analyzer import Analyzer, AnalyzerConfig, ResilienceConfig
from repro.ion.issues import IssueType
from repro.ion.pipeline import IoNavigator
from repro.llm.expert.model import SimulatedExpertLLM
from repro.llm.faults import (
    INTERPRETER_FAULT_KINDS,
    FaultKind,
    FaultPlan,
    FaultyCodeInterpreter,
    FaultyLLMClient,
)
from repro.llm import interpreter as interpreter_module
from repro.llm.interpreter import CodeInterpreter
from repro.llm.messages import CodeCall, Completion
from repro.obs.trace import NullTracer
from repro.sca.policy import SANDBOX_POLICY
from repro.service import cli as batch_cli
from repro.util.errors import AnalysisError
from repro.util.metrics import MetricsRegistry

#: Prompt headers that target one pipeline stage for injection.
STAGE_HEADERS = {
    "first-query": "# ION I/O Diagnosis Request",
    "summarization": "# ION Summary Request",
    "interactive-qa": "# ION Interactive Question",
}

MATRIX_KINDS = (
    FaultKind.TIMEOUT,
    FaultKind.TRANSIENT,
    FaultKind.MALFORMED,
    FaultKind.INTERPRETER_CRASH,
    FaultKind.GUARD_REJECT,
)


def counting_tracer(metrics: MetricsRegistry) -> NullTracer:
    """A tracer whose spans ``metrics`` counts."""
    tracer = NullTracer()
    tracer.fold_into(metrics)
    return tracer


def fast_resilience(**overrides) -> ResilienceConfig:
    """Retry instantly so chaos tests never sleep."""
    defaults = dict(backoff_base=0.0, backoff_max=0.0)
    defaults.update(overrides)
    return ResilienceConfig(**defaults)


def scratch_dirs() -> set:
    return {
        str(path)
        for path in Path(tempfile.gettempdir()).glob("ion-*")
        if path.is_dir()
    }


@pytest.fixture(scope="module")
def trace_path(easy_2k_bundle, tmp_path_factory):
    directory = tmp_path_factory.mktemp("chaos-traces")
    return str(write_log(easy_2k_bundle.log, directory / "easy.darshan"))


class TestChaosMatrix:
    @pytest.mark.parametrize("kind", MATRIX_KINDS, ids=lambda k: k.value)
    @pytest.mark.parametrize("stage", sorted(STAGE_HEADERS))
    def test_cell_always_yields_a_report(self, easy_2k_bundle, stage, kind):
        # The first call of the targeted stage faults; everything else
        # runs clean.  The pipeline must absorb the fault (retry or
        # degrade), answer a follow-up question, and clean up after
        # itself.
        client = SimulatedExpertLLM()
        interpreter_factory = None
        if kind in INTERPRETER_FAULT_KINDS:
            # The interpreter only runs during issue queries, so the
            # stage dimension collapses: inject into the sandbox.
            plan = FaultPlan.first(1, kind)
            interpreter_factory = lambda workdir: FaultyCodeInterpreter(
                CodeInterpreter(workdir), plan
            )
        else:
            client = FaultyLLMClient(
                client,
                FaultPlan.first(1, kind),
                only_matching=STAGE_HEADERS[stage],
            )
        before = scratch_dirs()
        with IoNavigator(
            client=client,
            config=AnalyzerConfig(resilience=fast_resilience()),
            interpreter_factory=interpreter_factory,
        ) as navigator:
            result = navigator.diagnose(easy_2k_bundle.log, "chaos-cell")
            answer = result.session.ask("what should I fix first?")
        report = result.report
        assert {d.issue for d in report.diagnoses} == set(IssueType)
        assert report.summary
        assert report.health is not None
        assert report.health.queries == len(IssueType) + 1
        assert isinstance(answer, str) and answer
        assert scratch_dirs() == before, "leaked ion-* scratch directory"

    def test_faulted_stage_recovers_or_degrades_visibly(self, easy_2k_bundle):
        # Same cell shape, but pin down *how* a transient fault at each
        # stage is absorbed: issue/summary queries retry, Q&A degrades.
        header = STAGE_HEADERS["interactive-qa"]
        client = FaultyLLMClient(
            SimulatedExpertLLM(),
            FaultPlan.always(FaultKind.TRANSIENT),
            only_matching=header,
        )
        with IoNavigator(
            client=client,
            config=AnalyzerConfig(resilience=fast_resilience()),
        ) as navigator:
            result = navigator.diagnose(easy_2k_bundle.log, "qa-outage")
            answer = result.session.ask("anything?")
        assert result.report.health.degraded == 0  # diagnosis untouched
        assert "degraded answer" in answer
        assert result.session.degraded_answers == 1


class TestTotalOutage:
    def _outage_report(self, easy_extraction, log, **resilience):
        metrics = MetricsRegistry()
        analyzer = Analyzer(
            client=FaultyLLMClient(
                SimulatedExpertLLM(), FaultPlan.always(FaultKind.TRANSIENT)
            ),
            config=AnalyzerConfig(
                parallel_prompts=1,
                resilience=fast_resilience(max_attempts=2, **resilience),
            ),
            tracer=counting_tracer(metrics),
        )
        return analyzer.analyze(easy_extraction, "outage", log=log), metrics

    def test_every_diagnosis_degrades_onto_drishti(
        self, easy_extraction, easy_2k_bundle
    ):
        report, metrics = self._outage_report(
            easy_extraction, easy_2k_bundle.log
        )
        assert all(d.degraded for d in report.diagnoses)
        assert all(d.fallback_source == "drishti" for d in report.diagnoses)
        assert "degraded summary" in report.summary
        health = report.health
        assert health.degraded == health.queries == len(IssueType) + 1
        assert not health.healthy
        assert (
            metrics.counter_value("analyzer.queries.degraded")
            == health.degraded
        )
        assert (
            metrics.counter_value("analyzer.fallback.drishti")
            == len(IssueType)
        )

    def test_outage_without_a_log_degrades_without_drishti(
        self, easy_extraction
    ):
        report, _ = self._outage_report(easy_extraction, None)
        assert all(d.degraded for d in report.diagnoses)
        assert all(d.fallback_source == "none" for d in report.diagnoses)
        assert all("NOT examined" in d.conclusion for d in report.diagnoses)

    def test_strict_mode_propagates_the_failure(
        self, easy_extraction, easy_2k_bundle
    ):
        analyzer = Analyzer(
            client=FaultyLLMClient(
                SimulatedExpertLLM(), FaultPlan.always(FaultKind.TRANSIENT)
            ),
            config=AnalyzerConfig(
                parallel_prompts=1,
                resilience=fast_resilience(max_attempts=1, degrade=False),
            ),
        )
        with pytest.raises(AnalysisError, match="without degraded mode"):
            analyzer.analyze(easy_extraction, "strict", log=easy_2k_bundle.log)


class TestTransientRecovery:
    def test_thirty_percent_fault_rate_fully_recovers(
        self, easy_extraction, easy_2k_bundle
    ):
        # The Bresenham ratio plan never faults twice in a row below
        # rate 0.5, so the default retry budget absorbs a 30% transient
        # fault rate completely: zero degraded diagnoses, deterministic
        # retry counters.
        plan = FaultPlan.ratio(0.3, FaultKind.TRANSIENT)
        metrics = MetricsRegistry()
        analyzer = Analyzer(
            client=FaultyLLMClient(SimulatedExpertLLM(), plan),
            config=AnalyzerConfig(
                parallel_prompts=1, resilience=fast_resilience()
            ),
            tracer=counting_tracer(metrics),
        )
        report = analyzer.analyze(
            easy_extraction, "flaky", log=easy_2k_bundle.log
        )
        health = report.health
        assert health.degraded == 0
        assert health.retries == plan.faults_injected > 0
        assert health.attempts == health.queries + health.retries
        assert health.breaker_state == "closed"
        assert (
            metrics.counter_value("analyzer.queries.retries")
            == health.retries
        )
        assert (
            metrics.counter_value("analyzer.queries.attempts")
            == health.attempts
        )
        assert metrics.counter_value("analyzer.queries.degraded") == 0
        # The recovered report is indistinguishable from a clean run.
        clean = Analyzer(
            config=AnalyzerConfig(parallel_prompts=1)
        ).analyze(easy_extraction, "flaky", log=easy_2k_bundle.log)
        for faulted, reference in zip(report.diagnoses, clean.diagnoses):
            assert faulted.severity == reference.severity
            assert faulted.conclusion == reference.conclusion


class TestGuardRejectRecovery:
    def test_smuggled_import_repaired_without_degradation(
        self, easy_extraction, easy_2k_bundle
    ):
        # The injected fault taints the first snippet with `import os`;
        # the static guard rejects it pre-execution and the expert's
        # debug turn strips the import and resubmits.  The diagnosis
        # must come back clean-equivalent, not degraded.
        plan = FaultPlan.first(1, FaultKind.GUARD_REJECT)
        metrics = MetricsRegistry()
        analyzer = Analyzer(
            config=AnalyzerConfig(
                parallel_prompts=1, resilience=fast_resilience()
            ),
            tracer=counting_tracer(metrics),
            interpreter_factory=lambda workdir: FaultyCodeInterpreter(
                CodeInterpreter(workdir, metrics=metrics), plan
            ),
        )
        report = analyzer.analyze(
            easy_extraction, "smuggler", log=easy_2k_bundle.log
        )
        assert plan.faults_injected == 1
        assert metrics.counter_value("sca.vet.rejected") == 1
        assert report.health.degraded == 0
        clean = Analyzer(
            config=AnalyzerConfig(parallel_prompts=1)
        ).analyze(easy_extraction, "smuggler", log=easy_2k_bundle.log)
        for faulted, reference in zip(report.diagnoses, clean.diagnoses):
            assert faulted.severity == reference.severity
            assert faulted.conclusion == reference.conclusion

    def test_ion_guard_reject_spec(self, trace_path, capsys):
        # Below rate 0.5 the Bresenham plan never faults twice in a
        # row, so every rejected snippet's debug retry lands clean.
        code = ion_cli.main(
            [trace_path, "--inject-faults", "guard_reject:0.3"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "ION diagnosis report" in out
        assert "DEGRADED" not in out


class RunawayModel:
    """A model whose every analysis snippet loops without end.

    The loop's bound is not a literal, so CodeGuard passes it: only
    the sandbox worker's wall-clock budget can stop it.
    """

    def complete(self, messages):
        return Completion(
            content="I will now run the analysis code.",
            code_call=CodeCall("for i in range(int('9' * 12)):\n    pass"),
        )


class TestRunawaySnippet:
    def test_runaway_analysis_degrades_within_the_query_deadline(
        self, easy_extraction, easy_2k_bundle, monkeypatch
    ):
        monkeypatch.setattr(
            interpreter_module,
            "SANDBOX_POLICY",
            dataclasses.replace(SANDBOX_POLICY, run_wall_seconds=0.5),
        )
        resilience = fast_resilience(max_attempts=2)
        analyzer = Analyzer(
            client=RunawayModel(),
            config=AnalyzerConfig(
                issues=(IssueType.SMALL_IO,),
                max_tool_rounds=2,
                summarize=False,
                resilience=resilience,
            ),
        )
        started = time.perf_counter()
        report = analyzer.analyze(
            easy_extraction, "runaway", log=easy_2k_bundle.log
        )
        elapsed = time.perf_counter() - started
        (diagnosis,) = report.diagnoses
        assert diagnosis.degraded
        assert diagnosis.fallback_source == "drishti"
        assert "tool budget" in diagnosis.degraded_reason
        assert report.health.attempts == 2
        assert elapsed < resilience.query_deadline

    def test_query_deadline_bounds_a_single_attempt(
        self, easy_extraction, easy_2k_bundle, monkeypatch
    ):
        # Six rounds of 3 s snippets fit the tool budget, so only the
        # query deadline can end the first attempt early.
        monkeypatch.setattr(
            interpreter_module,
            "SANDBOX_POLICY",
            dataclasses.replace(SANDBOX_POLICY, run_wall_seconds=3.0),
        )
        analyzer = Analyzer(
            client=RunawayModel(),
            config=AnalyzerConfig(
                issues=(IssueType.SMALL_IO,),
                max_tool_rounds=6,
                summarize=False,
                resilience=fast_resilience(max_attempts=3, query_deadline=1.0),
            ),
        )
        started = time.perf_counter()
        report = analyzer.analyze(
            easy_extraction, "runaway", log=easy_2k_bundle.log
        )
        elapsed = time.perf_counter() - started
        (diagnosis,) = report.diagnoses
        assert diagnosis.degraded
        assert diagnosis.fallback_source == "drishti"
        assert "query deadline exhausted" in diagnosis.degraded_reason
        assert report.health.attempts == 1
        assert elapsed < 2.0


class TestCircuitBreaker:
    def test_sustained_failure_trips_and_short_circuits(
        self, easy_extraction, easy_2k_bundle
    ):
        metrics = MetricsRegistry()
        analyzer = Analyzer(
            client=FaultyLLMClient(
                SimulatedExpertLLM(), FaultPlan.always(FaultKind.TRANSIENT)
            ),
            config=AnalyzerConfig(
                parallel_prompts=1,
                resilience=fast_resilience(
                    max_attempts=1,
                    breaker_failure_threshold=2,
                    breaker_recovery_seconds=3600.0,
                ),
            ),
            tracer=counting_tracer(metrics),
        )
        report = analyzer.analyze(
            easy_extraction, "meltdown", log=easy_2k_bundle.log
        )
        health = report.health
        assert health.breaker_state == "open"
        assert health.breaker_trips == 1
        # Two real attempts tripped the breaker; every later query was
        # refused without touching the backend.
        assert metrics.counter_value("analyzer.queries.attempts") == 2
        assert metrics.counter_value("analyzer.breaker.opened") == 1
        assert (
            metrics.counter_value("analyzer.breaker.short_circuited")
            == health.queries - 2
        )
        assert any("CircuitOpenError" in note for note in health.notes)
        assert all(d.degraded for d in report.diagnoses)


class TestChaosCli:
    def test_ion_exits_zero_under_total_outage(self, trace_path, capsys):
        before = scratch_dirs()
        code = ion_cli.main(
            [trace_path, "--inject-faults", "transient", "--max-attempts", "1",
             "--ask", "is anything left?"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "DEGRADED" in out
        assert "Drishti heuristic fallback" in out
        assert "--- Pipeline health ---" in out
        assert "degraded answer" in out
        assert scratch_dirs() == before

    def test_ion_interpreter_crash_spec(self, trace_path, capsys):
        code = ion_cli.main(
            [trace_path, "--inject-faults", "interpreter",
             "--max-attempts", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "DEGRADED" in out

    def test_ion_partial_fault_rate_still_succeeds(self, trace_path, capsys):
        code = ion_cli.main([trace_path, "--inject-faults", "transient:0.3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "ION diagnosis report" in out
        assert "--- Pipeline health ---" in out

    def test_ion_rejects_bad_fault_spec(self, trace_path, capsys):
        assert ion_cli.main([trace_path, "--inject-faults", "gremlins"]) == 1
        assert "error" in capsys.readouterr().err

    def test_ion_batch_exits_zero_under_total_outage(
        self, trace_path, tmp_path, capsys
    ):
        out_json = tmp_path / "summary.json"
        code = batch_cli.main(
            [trace_path, trace_path, "--workers", "2",
             "--inject-faults", "transient", "--max-attempts", "1",
             "--json", str(out_json)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "2/2 traces diagnosed" in out
        assert "DEGRADED" in out
        assert "health:" in out

        import json

        payload = json.loads(out_json.read_text())
        assert payload["health"]["degraded_queries"] > 0
        assert payload["health"]["degraded_traces"] == 2
        for trace in payload["traces"]:
            assert trace["ok"]
            assert trace["degraded_count"] == len(IssueType)
            assert trace["traceback"] is None


class TestDxtFallbackIsVisible:
    """A DXT analysis that fails and is answered from counters is marked."""

    @pytest.mark.parametrize("strategy", ["divide", "monolithic"])
    def test_failed_dxt_run_sets_fallback_source(self, easy_2k_bundle, strategy):
        from repro.ion.analyzer import DXT_RUN_FAILED

        # The first sandbox run is random_access's DXT analysis; the
        # expert's debug retry drops DXT.csv and reads the counters.
        plan = FaultPlan.first(1, FaultKind.TIMEOUT)
        metrics = MetricsRegistry()
        config = AnalyzerConfig(
            issues=(IssueType.RANDOM_ACCESS, IssueType.SMALL_IO),
            strategy=strategy,
            parallel_prompts=1,
            resilience=fast_resilience(),
        )
        with IoNavigator(
            config=config,
            metrics=metrics,
            interpreter_factory=lambda workdir: FaultyCodeInterpreter(
                CodeInterpreter(workdir), plan
            ),
        ) as navigator:
            report = navigator.diagnose(easy_2k_bundle.log, "dxt-fallback").report
        assert [event.index for event in plan.events] == [0]
        by_issue = {d.issue: d for d in report.diagnoses}
        random_access = by_issue[IssueType.RANDOM_ACCESS]
        assert random_access.evidence["source"] == "counters"
        assert random_access.fallback_source == DXT_RUN_FAILED
        assert not random_access.degraded
        assert by_issue[IssueType.SMALL_IO].fallback_source == ""
        assert report.health.notes == [f"query:random_access: {DXT_RUN_FAILED}"]
        assert metrics.counter_value("analyzer.fallback.dxt") == 1

    def test_clean_run_reports_dxt(self, easy_2k_bundle):
        metrics = MetricsRegistry()
        config = AnalyzerConfig(issues=(IssueType.RANDOM_ACCESS,))
        with IoNavigator(config=config, metrics=metrics) as navigator:
            report = navigator.diagnose(easy_2k_bundle.log, "dxt-clean").report
        (diagnosis,) = report.diagnoses
        assert diagnosis.evidence["source"] == "dxt"
        assert diagnosis.fallback_source == ""
        assert report.health.notes == []
        assert metrics.counter_value("analyzer.fallback.dxt") == 0
