"""Pipeline observability: counters, gauges and histograms.

A :class:`MetricsRegistry` answers for a campaign after the fact: how
many traces hit the extraction cache, how many prompts were
dispatched, how large they were.  The pipeline never writes to it
directly.  Every counted fact is a span attribute, status or event,
and a tracer folds each span it finishes into the registries attached
to it (:meth:`repro.obs.trace.Tracer.fold_into`).  :data:`FOLD` is the
one table that says which span fact feeds which metric, so the trace
and the registry cannot disagree.  The registry is thread-safe: spans
finish on the batch pool's and the prompt pool's threads at once.

Stage durations are not metrics: spans (:mod:`repro.obs.trace`) are
the only stopwatch, and the Prometheus exporter derives one
``<span>.seconds`` histogram per span name from them.

Metrics are named with dotted paths (``cache.hits``,
``analyzer.prompt.chars``); :meth:`MetricsRegistry.snapshot`
flattens everything into one plain dict for JSON output or test
assertions.
"""

from __future__ import annotations

import bisect
import threading
from typing import Callable


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (default 1) to the counter."""
        if amount < 0:
            raise ValueError("counters only increase; use a Gauge instead")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Gauge:
    """A point-in-time value that can move in both directions."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += float(delta)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


#: Default histogram buckets, tuned for sub-second pipeline latencies.
LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0,
)

#: Default buckets for payload sizes (prompt/completion characters).
SIZE_BUCKETS = (
    64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0, 262144.0, 1048576.0,
)


class Histogram:
    """Fixed-bucket histogram with cheap p50/p90/p99 estimates.

    Observations land in the first bucket whose upper edge is >= the
    value; anything beyond the last edge goes to an implicit overflow
    bucket.  Quantiles are estimated by linear interpolation inside
    the containing bucket (the overflow bucket reports the observed
    maximum), which is exact enough for dashboards and deterministic
    for tests.
    """

    __slots__ = ("_lock", "buckets", "_counts", "count", "sum", "min", "max")

    def __init__(self, buckets: tuple[float, ...] = LATENCY_BUCKETS) -> None:
        edges = tuple(float(edge) for edge in buckets)
        if not edges:
            raise ValueError("histogram needs at least one bucket edge")
        if list(edges) != sorted(set(edges)):
            raise ValueError("bucket edges must be strictly increasing")
        if edges[0] <= 0:
            raise ValueError("bucket edges must be positive")
        self._lock = threading.Lock()
        self.buckets = edges
        self._counts = [0] * (len(edges) + 1)  # +1 overflow
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        if value < 0:
            raise ValueError("histogram observations cannot be negative")
        index = bisect.bisect_left(self.buckets, value)
        with self._lock:
            self._counts[index] += 1
            self.count += 1
            self.sum += value
            self.min = min(self.min, value)
            self.max = max(self.max, value)

    def bucket_counts(self) -> list[tuple[float, int]]:
        """Cumulative ``(upper_edge, count)`` pairs, ending at +inf."""
        with self._lock:
            counts = list(self._counts)
        out: list[tuple[float, int]] = []
        cumulative = 0
        for edge, count in zip(self.buckets, counts):
            cumulative += count
            out.append((edge, cumulative))
        out.append((float("inf"), cumulative + counts[-1]))
        return out

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (0.0 when empty)."""
        if not 0 <= q <= 1:
            raise ValueError("quantiles lie in [0, 1]")
        with self._lock:
            counts = list(self._counts)
            count = self.count
            maximum = self.max
        if count == 0:
            return 0.0
        target = q * count
        cumulative = 0.0
        lower = 0.0
        for edge, bucket_count in zip(self.buckets, counts):
            if bucket_count:
                if cumulative + bucket_count >= target:
                    fraction = (target - cumulative) / bucket_count
                    return lower + (edge - lower) * fraction
                cumulative += bucket_count
            lower = edge
        return maximum


def _ok(span) -> bool:
    return span.status == "ok"


def _kind(span) -> object:
    return span.attributes.get("kind")


def _events(span, name: str, **match: object) -> int:
    return sum(
        e.name == name and e.attributes.items() >= match.items() for e in span.events
    )


#: What a query span (issue, monolithic or summary) counts.
_QUERY = (
    ("analyzer.queries.attempts", "attempts"),
    ("analyzer.queries.retries", "retries_scheduled"),
    ("analyzer.queries.degraded", lambda s: _events(s, "degraded")),
    ("analyzer.fallback.drishti", lambda s: _events(s, "degraded", fallback="drishti")),
    ("analyzer.breaker.opened", lambda s: _events(s, "breaker.opened")),
    ("analyzer.breaker.short_circuited", lambda s: _events(s, "breaker.short_circuit")),
)

#: Span name -> ``(metric, value)`` pairs: the one place a span fact
#: becomes a metric.  ``value`` names a span attribute or maps the span
#: to what it adds to a counter (True adds 1; None, False and 0 add
#: nothing), sets a gauge to or a histogram observes (None: nothing).
#: What ``_ok`` guards is not counted for a span that ended in an
#: error: that work never returned.
FOLD = {
    "analyzer.analyze": (
        ("analyzer.reports", _ok),
        ("analyzer.fallback.dxt", "dxt_fallbacks"),
    ),
    "analyzer.query": _QUERY,
    "analyzer.summarize": _QUERY,
    "llm.prompt": (
        ("analyzer.prompts", lambda s: 1),
        ("analyzer.prompt.chars", "prompt.chars"),
        ("analyzer.completion.chars", "completion.chars"),
    ),
    "batch.campaign": (
        ("batch.campaigns", lambda s: _ok(s) and _kind(s) == "traces"),
        ("batch.journey_campaigns", lambda s: _ok(s) and _kind(s) == "journeys"),
    ),
    "batch.job": (
        ("batch.traces.ok", lambda s: _kind(s) == "trace" and _ok(s)),
        ("batch.traces.failed", lambda s: _kind(s) == "trace" and not _ok(s)),
        ("batch.journeys.ok", lambda s: _kind(s) == "journey" and _ok(s)),
        ("batch.journeys.failed", lambda s: _kind(s) == "journey" and not _ok(s)),
    ),
    "cache.lookup": (("cache.hits", "hit"), ("cache.bytes", "bytes")),
    "cache.insert": (
        ("cache.misses", lambda s: 1),
        ("cache.evictions", "evictions"),
        ("cache.bytes", "bytes"),
    ),
    "cache.clear": (("cache.bytes", lambda s: 0),),
    "extractor.extract": (
        ("extractor.extractions", _ok),
        ("extractor.rows", lambda s: _ok(s) and s.attributes.get("rows")),
    ),
    "sandbox.memo": (("sandbox.memo.hits", "hit"),),
    "sca.vet": (
        ("sca.vet.checks", _ok),
        ("sca.vet.walks", lambda s: _ok(s) and not s.attributes.get("cached")),
        ("sca.vet.blocked", lambda s: _ok(s) and s.attributes.get("blocked")),
        ("sca.vet.warnings", lambda s: _ok(s) and s.attributes.get("warnings")),
        ("sca.vet.rejected", lambda s: _ok(s) and s.attributes.get("blocked")
            and s.attributes.get("mode") == "enforce"),
    ),
}

#: The metrics of :data:`FOLD` that are not counters.
GAUGES = frozenset({"cache.bytes"})
HISTOGRAMS = frozenset({"analyzer.prompt.chars", "analyzer.completion.chars"})


class MetricsRegistry:
    """Named metrics, created on first use, safe for concurrent writers."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- accessors ----------------------------------------------------

    def counter(self, name: str) -> Counter:
        """Get (or lazily create) the counter called ``name``."""
        return self._get(self._counters, name, Counter)

    def gauge(self, name: str) -> Gauge:
        """Get (or lazily create) the gauge called ``name``."""
        return self._get(self._gauges, name, Gauge)

    def histogram(
        self, name: str, buckets: tuple[float, ...] | None = None
    ) -> Histogram:
        """Get (or lazily create) the histogram called ``name``.

        ``buckets`` only matters on first creation; later calls return
        the existing histogram unchanged.
        """
        edges = buckets if buckets is not None else LATENCY_BUCKETS
        return self._get(self._histograms, name, lambda: Histogram(edges))

    def _get(self, kind: dict, name: str, make: Callable[[], object]):
        with self._lock:
            metric = kind.get(name)
            if metric is None:
                kinds = (self._counters, self._gauges, self._histograms)
                if any(name in other for other in kinds):
                    raise ValueError(
                        f"metric {name!r} already registered with a different type"
                    )
                metric = kind[name] = make()
            return metric

    def fold(self, span) -> None:
        """Add what one finished span counts, per :data:`FOLD`."""
        for name, value in FOLD.get(span.name, ()):
            amount = value(span) if callable(value) else span.attributes.get(value)
            if amount is None:
                continue
            if name in GAUGES:
                self.gauge(name).set(amount)
            elif name in HISTOGRAMS:
                self.histogram(name, SIZE_BUCKETS).observe(amount)
            elif amount:
                self.counter(name).inc(amount)

    # -- reading ------------------------------------------------------

    def counter_value(self, name: str) -> int:
        """The current value of a counter (0 if never touched)."""
        with self._lock:
            metric = self._counters.get(name)
        return metric.value if metric is not None else 0

    def gauge_value(self, name: str) -> float:
        """The current value of a gauge (0.0 if never touched)."""
        with self._lock:
            metric = self._gauges.get(name)
        return metric.value if metric is not None else 0.0

    def collect(self) -> list[tuple[str, str, object]]:
        """Every metric as sorted ``(name, kind, metric)`` triples.

        ``kind`` is one of ``"counter"``, ``"gauge"``, ``"histogram"``
        — the typed view exporters need (the flat :meth:`snapshot`
        loses the type).
        """
        with self._lock:
            triples: list[tuple[str, str, object]] = [
                *((name, "counter", m) for name, m in self._counters.items()),
                *((name, "gauge", m) for name, m in self._gauges.items()),
                *((name, "histogram", m) for name, m in self._histograms.items()),
            ]
        return sorted(triples, key=lambda item: item[0])

    def snapshot(self) -> dict[str, float]:
        """Flatten every metric into one ``name -> number`` dict.

        Histograms expand into ``<name>.count`` / ``.sum`` / ``.p50`` /
        ``.p90`` / ``.p99`` entries.
        """
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        out: dict[str, float] = {}
        for name, counter in counters.items():
            out[name] = counter.value
        for name, gauge in gauges.items():
            out[name] = gauge.value
        for name, histogram in histograms.items():
            out[f"{name}.count"] = histogram.count
            out[f"{name}.sum"] = round(histogram.sum, 9)
            out[f"{name}.p50"] = round(histogram.quantile(0.50), 9)
            out[f"{name}.p90"] = round(histogram.quantile(0.90), 9)
            out[f"{name}.p99"] = round(histogram.quantile(0.99), 9)
        return out

    def reset(self) -> None:
        """Drop every metric (mainly for tests)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
