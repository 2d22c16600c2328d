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
``pipeline.diagnose`` opens on a pool thread with no active span, so
it roots a new trace.

Determinism: the clock and the ID source are constructor-injectable.
The default ID source is a process-local sequential counter, so two
identical serial runs produce identical span trees; tests additionally
inject a fixed-step clock to freeze durations.
"""

from __future__ import annotations

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
    """One timed, attributed unit of work inside a trace."""

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
    )

    def __init__(
        self,
        trace_id: str,
        span_id: str,
        parent_id: str | None,
        name: str,
        start: float,
        clock: Callable[[], float],
        attributes: dict | None = None,
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end: float | None = None
        self.attributes: dict = dict(attributes) if attributes else {}
        self.events: list[SpanEvent] = []
        self.status = "ok"
        self.status_detail = ""
        self.thread = threading.current_thread().name
        self._clock = clock

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


class _NullSpan:
    """Absorbs every recording call; what disabled tracing hands out."""

    __slots__ = ()

    trace_id = ""
    span_id = ""
    parent_id = None
    name = ""
    start = 0.0
    end = 0.0
    duration = 0.0
    status = "ok"
    status_detail = ""
    thread = ""

    @property
    def attributes(self) -> dict:
        return {}

    @property
    def events(self) -> list:
        return []

    def set_attribute(self, key: str, value: object) -> None:
        pass

    def add_event(self, name: str, **attributes: object) -> None:
        pass

    def set_status(self, status: str, detail: str = "") -> None:
        pass


NULL_SPAN = _NullSpan()


class _NullSpanContext:
    """Reusable, stateless no-op context manager."""

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return NULL_SPAN

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NULL_CONTEXT = _NullSpanContext()


class NullTracer:
    """The zero-overhead default: records nothing, allocates nothing."""

    enabled = False

    def span(
        self,
        name: str,
        attributes: dict | None = None,
        parent: object = _INHERIT,
        new_trace: bool = False,
    ) -> _NullSpanContext:
        return _NULL_CONTEXT

    def current_span(self) -> _NullSpan:
        return NULL_SPAN

    def spans(self) -> list:
        return []


#: Shared no-op tracer every instrumented component defaults to.
NULL_TRACER = NullTracer()


class _SpanContext:
    """Context manager handling one live span's lifecycle."""

    __slots__ = ("_tracer", "_span", "_token")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span
        self._token = None

    def __enter__(self) -> Span:
        self._token = _CURRENT.set(self._span)
        return self._span

    def __exit__(self, exc_type, exc, _tb) -> bool:
        span = self._span
        span.end = self._tracer._clock()
        if exc is not None and span.status == "ok":
            span.set_status("error", f"{exc_type.__name__}: {exc}")
        _CURRENT.reset(self._token)
        self._tracer._record(span)
        return False


class _SequentialIds:
    """Deterministic process-local ID source (zero-padded hex)."""

    __slots__ = ("_lock", "_next")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._next = 0

    def __call__(self) -> str:
        with self._lock:
            self._next += 1
            return f"{self._next:016x}"


class Tracer:
    """Records spans into an in-memory buffer, thread-safe.

    ``clock`` defaults to :func:`time.perf_counter`; ``ids`` to a
    sequential counter.  Inject both for byte-deterministic traces.
    """

    enabled = True

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        ids: Callable[[], str] | None = None,
    ) -> None:
        self._clock = clock
        self._ids = ids or _SequentialIds()
        self._lock = threading.Lock()
        self._finished: list[Span] = []

    # -- recording -----------------------------------------------------

    def span(
        self,
        name: str,
        attributes: dict | None = None,
        parent: object = _INHERIT,
        new_trace: bool = False,
    ) -> _SpanContext:
        """Open a span as a context manager.

        ``parent`` defaults to the context-active span of the calling
        thread; pass an explicit :class:`Span` to hand context across a
        worker-pool boundary, or ``None`` to force a root span.
        ``new_trace=True`` ignores any ambient context and starts a
        fresh trace (one diagnosed trace = one trace ID, even when the
        worker thread's context is stale).
        """
        if new_trace:
            resolved_parent = None
        elif parent is _INHERIT:
            resolved_parent = _CURRENT.get()
        else:
            resolved_parent = parent if isinstance(parent, Span) else None
        if resolved_parent is not None:
            trace_id = resolved_parent.trace_id
            parent_id = resolved_parent.span_id
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
        )
        return _SpanContext(self, span)

    def current_span(self) -> "Span | _NullSpan":
        """The context-active span, or the null span when none is."""
        span = _CURRENT.get()
        return span if span is not None else NULL_SPAN

    def _record(self, span: Span) -> None:
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
