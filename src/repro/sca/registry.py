"""Registered observability names enforced by ``ion-lint``.

Every span opened through :class:`repro.obs.trace.Tracer` and every
metric registered on :class:`repro.util.metrics.MetricsRegistry` in
the pipeline must use a **string literal** drawn from these sets.
That single constraint is what keeps the trace summary
(:mod:`repro.obs.summary`), the Prometheus exposition, dashboards and
golden files stable: a misspelled or dynamically-built name would
silently fork a time series instead of failing review.

Adding an instrumentation point is a two-line change: use the new
literal at the call site and register it here — ``ion-lint`` fails
CI until both halves land.
"""

from __future__ import annotations

#: Every span name the pipeline may open.
SPAN_NAMES = frozenset(
    {
        "analyzer.analyze",
        "analyzer.query",
        "analyzer.summarize",
        "batch.campaign",
        "batch.job",
        "cache.clear",
        "cache.insert",
        "cache.lookup",
        "extractor.extract",
        "journey.attempt",
        "journey.navigate",
        "journey.observe",
        "llm.prompt",
        "llm.round",
        "pipeline.diagnose",
        "sandbox.exec",
        "sandbox.memo",
        "sca.vet",
        "session.ask",
        "simulate",
    }
)

#: Every metric name the pipeline may register.
METRIC_NAMES = frozenset(
    {
        "analyzer.breaker.opened",
        "analyzer.breaker.short_circuited",
        "analyzer.completion.chars",
        "analyzer.fallback.drishti",
        "analyzer.fallback.dxt",
        "analyzer.prompt.chars",
        "analyzer.prompts",
        "analyzer.queries.attempts",
        "analyzer.queries.degraded",
        "analyzer.queries.retries",
        "analyzer.reports",
        "batch.campaigns",
        "batch.journey_campaigns",
        "batch.journeys.failed",
        "batch.journeys.ok",
        "batch.traces.failed",
        "batch.traces.ok",
        "cache.bytes",
        "cache.evictions",
        "cache.hits",
        "cache.misses",
        "extractor.extractions",
        "extractor.rows",
        "sandbox.memo.hits",
        "sca.vet.blocked",
        "sca.vet.checks",
        "sca.vet.rejected",
        "sca.vet.walks",
        "sca.vet.warnings",
    }
)
