"""Retry, backoff and circuit-breaking primitives for the LLM path.

The ION analyzer dispatches one LLM query per issue plus a
summarization query; in a service deployment any of those calls can
fail transiently (rate limits, dropped connections, interpreter
crashes).  This module supplies the two deterministic building blocks
the analyzer's resilience layer is made of:

- :class:`BackoffPolicy` — an exponential backoff schedule with
  bounded jitter and a total-delay deadline, pure enough to property
  test (caps are monotone non-decreasing, jittered delays stay within
  the cap, cumulative delay never exceeds the deadline);
- :class:`CircuitBreaker` — a classic three-state breaker (closed /
  open / half-open) with an injectable clock, so heavy sustained
  failure stops burning retries and heals itself after a cooldown.

A third, :func:`query_deadline`, scopes a query's wall-clock deadline
to the calling context; the assistant's tool loop and the sandbox
read :func:`time_left` so that no single attempt outlives it.

Neither class knows anything about LLMs; the analyzer wires them to
its query loop, whose spans the metrics registry folds.
"""

from __future__ import annotations

import enum
import random
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.util.errors import LLMError


@dataclass(frozen=True)
class BackoffPolicy:
    """Exponential backoff with bounded jitter and a delay deadline.

    Attempt ``n`` (1-based) is followed by a delay drawn from
    ``[cap(n) * (1 - jitter), cap(n)]`` where
    ``cap(n) = min(base_delay * multiplier**(n-1), max_delay)``.
    Jitter only ever *shrinks* a delay, so the cap sequence is a hard
    upper envelope and the sum of all delays is bounded by
    ``deadline`` when one is set.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 1.0
    jitter: float = 0.1
    #: Upper bound on the *cumulative* delay across all retries; the
    #: schedule is truncated (last delay clipped) to honour it.
    deadline: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise LLMError("max_attempts must be at least 1")
        if self.base_delay < 0:
            raise LLMError("base_delay cannot be negative")
        if self.multiplier < 1:
            raise LLMError("multiplier must be at least 1")
        if self.max_delay < self.base_delay:
            raise LLMError("max_delay must be at least base_delay")
        if not 0 <= self.jitter <= 1:
            raise LLMError("jitter must lie in [0, 1]")
        if self.deadline is not None and self.deadline < 0:
            raise LLMError("deadline cannot be negative")

    def cap(self, attempt: int) -> float:
        """The deterministic upper bound on the delay after ``attempt``."""
        if attempt < 1:
            raise LLMError("attempts are numbered from 1")
        return min(self.base_delay * self.multiplier ** (attempt - 1), self.max_delay)

    def delay(self, attempt: int, rng: random.Random) -> float:
        """One jittered delay after ``attempt`` (within ``[cap*(1-j), cap]``)."""
        cap = self.cap(attempt)
        if self.jitter == 0:
            return cap
        return cap * (1.0 - self.jitter * rng.random())

    def schedule(self, rng: random.Random | None = None) -> list[float]:
        """Every delay of a worst-case retry sequence, deadline-clipped.

        The list has at most ``max_attempts - 1`` entries (no delay
        follows the final attempt) and its sum never exceeds
        ``deadline``.
        """
        rng = rng or random.Random(0)
        delays: list[float] = []
        total = 0.0
        for attempt in range(1, self.max_attempts):
            delay = self.delay(attempt, rng)
            if self.deadline is not None:
                remaining = self.deadline - total
                if remaining <= 0:
                    break
                delay = min(delay, remaining)
            delays.append(delay)
            total += delay
        return delays


class BreakerState(enum.Enum):
    """The three circuit-breaker states."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class CircuitBreaker:
    """Thread-safe three-state circuit breaker.

    ``failure_threshold`` *consecutive* failures trip the breaker
    open; after ``recovery_time`` seconds the next :meth:`allow` lets
    one probe through (half-open).  ``half_open_successes`` successful
    probes close it again; any half-open failure re-opens it and
    restarts the cooldown.  The clock is injectable so tests (and
    hypothesis state machines) can drive time deterministically.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        recovery_time: float = 30.0,
        half_open_successes: int = 1,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise LLMError("failure_threshold must be at least 1")
        if recovery_time < 0:
            raise LLMError("recovery_time cannot be negative")
        if half_open_successes < 1:
            raise LLMError("half_open_successes must be at least 1")
        self.failure_threshold = failure_threshold
        self.recovery_time = recovery_time
        self.half_open_successes = half_open_successes
        self._clock = clock
        self._lock = threading.Lock()
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._probe_successes = 0
        self._opened_at = 0.0
        self._trips = 0

    # -- state ---------------------------------------------------------

    @property
    def state(self) -> BreakerState:
        """Current state (cooldown expiry is applied lazily by allow())."""
        with self._lock:
            return self._state

    @property
    def trips(self) -> int:
        """How many times the breaker has transitioned to OPEN."""
        with self._lock:
            return self._trips

    # -- protocol ------------------------------------------------------

    def allow(self) -> bool:
        """Whether a call may proceed right now.

        Transitions OPEN -> HALF_OPEN once the cooldown has elapsed;
        the caller must report the call's outcome via
        :meth:`record_success` / :meth:`record_failure`.
        """
        with self._lock:
            if self._state is BreakerState.OPEN:
                if self._clock() - self._opened_at >= self.recovery_time:
                    self._state = BreakerState.HALF_OPEN
                    self._probe_successes = 0
                    return True
                return False
            return True

    def record_success(self) -> None:
        with self._lock:
            if self._state is BreakerState.HALF_OPEN:
                self._probe_successes += 1
                if self._probe_successes >= self.half_open_successes:
                    self._state = BreakerState.CLOSED
                    self._consecutive_failures = 0
            else:
                self._consecutive_failures = 0

    def record_failure(self) -> None:
        with self._lock:
            if self._state is BreakerState.HALF_OPEN:
                self._trip()
                return
            self._consecutive_failures += 1
            if (
                self._state is BreakerState.CLOSED
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._trip()

    def _trip(self) -> None:
        # Called with the lock held.
        self._state = BreakerState.OPEN
        self._opened_at = self._clock()
        self._consecutive_failures = 0
        self._probe_successes = 0
        self._trips += 1


#: The ``time.perf_counter()`` reading by which the current query must
#: end; None when it has no deadline.
_QUERY_DEADLINE: ContextVar[float | None] = ContextVar(
    "query_deadline", default=None
)


@contextmanager
def query_deadline(at: float | None) -> Iterator[None]:
    """Make ``at``, a ``time.perf_counter()`` reading, this context's deadline.

    None means no deadline.
    """
    token = _QUERY_DEADLINE.set(at)
    try:
        yield
    finally:
        _QUERY_DEADLINE.reset(token)


def time_left() -> float | None:
    """Seconds before the current query's deadline; None when unbounded."""
    at = _QUERY_DEADLINE.get()
    return None if at is None else at - time.perf_counter()
