"""Span/Tracer core: causally-linked timing records for the pipeline.

A :class:`Span` is one timed unit of work (an extraction, one LLM
query, one code-interpreter round) carrying a ``trace_id`` shared by
everything that happened on behalf of the same top-level request, a
``span_id``, a ``parent_id`` link, free-form attributes, and a list of
point-in-time :class:`SpanEvent` records (retry attempts, backoff
delays, per-module CSV emits).

Context propagation uses :mod:`contextvars`: ``tracer.span(...)``
parents new spans under the active one automatically within a thread.
Worker pools do not inherit context, so code that fans out captures
``tracer.current_span()`` before submitting and passes it explicitly
as ``parent=`` — the analyzer's prompt pool does this.  The batch
scheduler relies on the same fact the other way round: each job's
``batch.job`` span opens on a pool thread with no active span, so it
roots a new trace.

Spans are always built; a tracer keeps them only when ``enabled``.
:class:`NullTracer` (tracing off) folds each finished span into its
metrics registries and drops it, so every pipeline metric is derived
from spans whether or not a trace is written.

Determinism: the clock and the ID source are constructor-injectable.
The default ID source is a process-local sequential counter, so two
identical serial runs produce identical span trees; tests additionally
inject a fixed-step clock to freeze durations.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextvars import ContextVar
from typing import Callable, Iterable

_CURRENT: ContextVar["Span | None"] = ContextVar("ion_current_span", default=None)

#: Sentinel distinguishing "inherit the context parent" from an
#: explicit ``parent=None`` (which forces a root span).
_INHERIT = object()


class SpanEvent:
    """One timestamped point inside a span (a retry, a CSV emit...)."""

    __slots__ = ("name", "time", "attributes")

    def __init__(self, name: str, time: float, attributes: dict | None = None):
        self.name = name
        self.time = time
        self.attributes = attributes or {}

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "time": round(self.time, 9),
            "attributes": self.attributes,
        }


class Span:
    """One timed, attributed unit of work inside a trace.

    A tracer builds live spans, each its own context manager;
    :func:`repro.obs.export.load_spans` builds finished ones (``end``
    and ``thread`` given) from a file.
    """

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "start",
        "end",
        "attributes",
        "events",
        "status",
        "status_detail",
        "thread",
        "_clock",
        "_tracer",
        "_token",
    )

    def __init__(
        self,
        trace_id: str,
        span_id: str,
        parent_id: str | None,
        name: str,
        start: float,
        clock: Callable[[], float] = time.perf_counter,
        attributes: dict | None = None,
        end: float | None = None,
        thread: str | None = None,
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end = end
        self.attributes: dict = dict(attributes) if attributes else {}
        self.events: list[SpanEvent] = []
        self.status = "ok"
        self.status_detail = ""
        self.thread = threading.current_thread().name if thread is None else thread
        self._clock = clock

    def __enter__(self) -> "Span":
        self._token = _CURRENT.set(self)
        return self

    def __exit__(self, exc_type, exc, _tb) -> bool:
        self.end = self._clock()
        if exc is not None and self.status == "ok":
            self.set_status("error", f"{exc_type.__name__}: {exc}")
        _CURRENT.reset(self._token)
        self._tracer._record(self)
        return False

    # -- recording -----------------------------------------------------

    def set_attribute(self, key: str, value: object) -> None:
        self.attributes[key] = value

    def add_event(self, name: str, **attributes: object) -> None:
        self.events.append(SpanEvent(name, self._clock(), attributes))

    def set_status(self, status: str, detail: str = "") -> None:
        self.status = status
        self.status_detail = detail

    # -- reading -------------------------------------------------------

    @property
    def duration(self) -> float:
        if self.end is None:
            return 0.0
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": round(self.start, 9),
            "end": round(self.end, 9) if self.end is not None else None,
            "duration": round(self.duration, 9),
            "attributes": self.attributes,
            "events": [event.to_dict() for event in self.events],
            "status": self.status,
            "status_detail": self.status_detail,
            "thread": self.thread,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, trace={self.trace_id}, "
            f"span={self.span_id}, parent={self.parent_id})"
        )


def _sequential_ids() -> Callable[[], str]:
    """Deterministic process-local IDs (zero-padded hex); ``next`` on a
    :func:`itertools.count` is atomic, so threads never share one."""
    counter = itertools.count(1)
    return lambda: f"{next(counter):016x}"


class Tracer:
    """Records spans into an in-memory buffer, thread-safe.

    ``clock`` defaults to :func:`time.perf_counter`; ``ids`` to a
    sequential counter.  Inject both for byte-deterministic traces.

    Each finished span is folded into every metrics registry attached
    with :meth:`fold_into` (see :meth:`MetricsRegistry.fold
    <repro.util.metrics.MetricsRegistry.fold>`), whether or not the
    tracer keeps it.
    """

    #: Whether finished spans are kept for :meth:`spans`.
    enabled = True

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        ids: Callable[[], str] | None = None,
    ) -> None:
        self._clock = clock
        self._ids = ids or _sequential_ids()
        self._lock = threading.Lock()
        self._finished: list[Span] = []
        self._registries: tuple = ()

    def fold_into(self, registry) -> None:
        """Fold every span this tracer finishes from now on into
        ``registry``; attaching a registry twice folds it once."""
        with self._lock:
            if not any(known is registry for known in self._registries):
                self._registries += (registry,)

    # -- recording -----------------------------------------------------

    def span(
        self,
        name: str,
        attributes: dict | None = None,
        parent: object = _INHERIT,
        new_trace: bool = False,
    ) -> Span:
        """Open a span as a context manager.

        ``parent`` defaults to the context-active span of the calling
        thread; pass an explicit :class:`Span` to hand context across a
        worker-pool boundary, or ``None`` to force a root span.
        ``new_trace=True`` ignores any ambient context and starts a
        fresh trace (one diagnosed trace = one trace ID, even when the
        worker thread's context is stale).
        """
        if new_trace:
            parent = None
        elif parent is _INHERIT:
            parent = _CURRENT.get()
        if parent is not None:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        else:
            trace_id = self._ids()
            parent_id = None
        span = Span(
            trace_id=trace_id,
            span_id=self._ids(),
            parent_id=parent_id,
            name=name,
            start=self._clock(),
            clock=self._clock,
            attributes=attributes,
            # Only a kept span is ever exported with its thread.
            thread=None if self.enabled else "",
        )
        span._tracer = self
        return span

    def current_span(self) -> Span | None:
        """The context-active span, or None when none is."""
        return _CURRENT.get()

    def _record(self, span: Span) -> None:
        for registry in self._registries:
            registry.fold(span)
        if self.enabled:
            with self._lock:
                self._finished.append(span)

    # -- reading -------------------------------------------------------

    def spans(self) -> list[Span]:
        """Snapshot of every finished span, in completion order."""
        with self._lock:
            return list(self._finished)

    def clear(self) -> None:
        """Drop every recorded span (mainly for tests)."""
        with self._lock:
            self._finished.clear()


class NullTracer(Tracer):
    """Tracing off: builds and folds every span, keeps none.

    Components build one each when given no tracer, so the metrics of
    a component never include another's spans.
    """

    enabled = False


def ticking_clock(step: float = 0.001, start: float = 0.0) -> Callable[[], float]:
    """A deterministic clock advancing ``step`` per call (for tests).

    Thread-safe so concurrency tests can share one; note that under
    real thread interleaving the *order* of ticks is scheduling-
    dependent — only serial runs produce byte-identical traces.
    """
    lock = threading.Lock()
    state = {"now": start}

    def clock() -> float:
        with lock:
            now = state["now"]
            state["now"] = now + step
            return now

    return clock


def spans_in_trace(spans: Iterable, trace_id: str) -> list:
    """Filter ``spans`` down to one trace, preserving order."""
    return [span for span in spans if span.trace_id == trace_id]
