"""Per-layer instrumentation for the traced benchmark run.

The traced run records one ``bench.<layer>`` span around every call
into a layer, from this file only: the program under test is not
edited.  Where the program has an injection point the benchmark passes
a timing object through it (``client=``, ``interpreter_factory=``,
``cache=``, ``tracer=``); elsewhere :meth:`Traced.patched` wraps the
public function or method for the duration of one traced pass and
restores it afterwards.  The program's own spans (``sca.vet`` and the
rest) land in the same :class:`repro.obs.trace.Tracer`, so an exported
benchmark trace reads in ``ion-trace`` like any other.

:func:`pass_metrics` turns the spans of one pass (a set-up or an
iteration, each under a ``bench.setup`` / ``bench.iteration`` root)
into per-layer values; :func:`layer_metrics` takes their medians over
a run, for every metric named in :data:`PER_LAYER`.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import threading
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

import repro.ion.pipeline
import repro.service.batch
import repro.service.cache
from repro.darshan.binformat import write_log
from repro.ion.analyzer import Analyzer
from repro.ion.extractor import Extractor
from repro.journey.model import Verdict
from repro.llm.expert.model import SimulatedExpertLLM
from repro.llm.interpreter import CodeInterpreter
from repro.obs.trace import Tracer
from repro.service.cache import ExtractionCache
from repro.workloads.registry import make_workload, workload_names

PREFIX = "bench."

#: Per-layer metric name -> unit, in the order BENCHMARK.json lists them.
PER_LAYER: dict[str, str] = {
    "workloads.run.calls": "count",
    "workloads.run.s": "s",
    "workloads.run.cpu_s": "s",
    "workloads.run.ops_per_s": "1/s",
    "darshan.read_log.s": "s",
    "darshan.read_log.cpu_s": "s",
    "darshan.read_log.mb_per_s": "MB/s",
    "darshan.write_log.s": "s",
    "extractor.extract.calls": "count",
    "extractor.extract.s": "s",
    "extractor.extract.cpu_s": "s",
    "extractor.rows_per_s": "1/s",
    "cache.lookup.s": "s",
    "cache.lookup.cpu_s": "s",
    "cache.digest.s": "s",
    "cache.hit_ratio": "ratio",
    "analyzer.analyze.calls": "count",
    "analyzer.analyze.self_s": "s",
    "analyzer.queries": "count",
    "analyzer.attempts": "count",
    "analyzer.useful_ratio": "ratio",
    "analyzer.overlap": "ratio",
    "llm.complete.calls": "count",
    "llm.complete.s": "s",
    "sandbox.run.calls": "count",
    "sandbox.run.s": "s",
    "sandbox.run.cpu_s": "s",
    "sandbox.error_ratio": "ratio",
    "sca.vet.calls": "count",
    "sca.vet.s": "s",
    "batch.run.s": "s",
    "batch.busy_frac": "ratio",
    "journey.navigate.self_s": "s",
    "journey.attempts": "count",
    "journey.verified_ratio": "ratio",
    "obs.trace_overhead_frac": "ratio",
    "obs.unattributed_frac": "ratio",
    "iteration.wall_s": "s",
    "host.sample_s": "s",
}

#: The program's own spans that count as layer spans.
_PROGRAM_LAYER_SPANS = frozenset({"sca.vet"})


# -- timing objects passed through injection points --------------------


@contextmanager
def layer_span(tracer: Tracer, layer: str, **attributes):
    """A ``bench.<layer>`` span that also records its thread's CPU time.

    Under the GIL a span's wall time includes waiting for the lock
    while other threads run; ``cpu_s`` is the calling thread's own
    work.
    """
    cpu = time.thread_time()
    with tracer.span(PREFIX + layer, attributes=attributes) as span:
        try:
            yield span
        finally:
            span.set_attribute("cpu_s", time.thread_time() - cpu)


class TimedClient:
    """An LLM client that times every ``complete`` call."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self.inner = inner
        self.tracer = tracer

    def complete(self, messages):
        with layer_span(self.tracer, "llm.complete"):
            return self.inner.complete(messages)


class TimedInterpreter(CodeInterpreter):
    """A code interpreter that times every ``run`` call."""

    def run(self, code: str):
        with layer_span(self.tracer, "sandbox.run") as span:
            result = super().run(code)
            span.set_attribute("error", not result.ok)
        return result


class TimedCache(ExtractionCache):
    """An extraction cache that times every lookup."""

    def __init__(self, root, tracer: Tracer, **kwargs) -> None:
        super().__init__(root, **kwargs)
        self.tracer = tracer

    def get_or_extract(self, log, extractor):
        with layer_span(self.tracer, "cache.lookup") as span:
            result, hit = super().get_or_extract(log, extractor)
            span.set_attribute("hit", hit)
        return result, hit


# -- untraced and traced probes ----------------------------------------


class Untraced:
    """What an untraced pass hands the program: its own defaults."""

    tracer = None

    def client(self):
        return None

    def interpreter_factory(self, config, metrics):
        return None

    def cache(self, root: Path, metrics):
        return ExtractionCache(root, metrics=metrics)

    def span(self, layer: str, **attributes):
        return nullcontext(_NoAttributes())

    def patched(self):
        return nullcontext()

    def write_log(self, log, path: Path) -> Path:
        return write_log(log, path)


class _NoAttributes:
    def set_attribute(self, key, value) -> None:
        pass


class Traced:
    """Timing objects and wrappers recording into one fresh Tracer.

    ``ids`` is shared by every pass of a run, so the passes' spans can
    be written to one trace file without their IDs colliding.
    """

    def __init__(self, ids) -> None:
        self.tracer = Tracer(ids=ids)

    def client(self):
        return TimedClient(SimulatedExpertLLM(), self.tracer)

    def interpreter_factory(self, config, metrics):
        """Builds what ``Analyzer._default_interpreter`` builds, timed.

        Same guard policy, metrics registry and tracer: the traced run
        vets every snippet exactly as the untraced one does.
        """
        tracer = self.tracer

        def factory(workdir: Path) -> CodeInterpreter:
            return TimedInterpreter(
                workdir, guard=config.guard, metrics=metrics, tracer=tracer
            )

        return factory

    def cache(self, root: Path, metrics):
        return TimedCache(root, tracer=self.tracer, metrics=metrics)

    def span(self, layer: str, **attributes):
        return layer_span(self.tracer, layer, **attributes)

    def write_log(self, log, path: Path) -> Path:
        with self.span("darshan.write_log"):
            return write_log(log, path)

    @contextmanager
    def patched(self):
        """Wrap the layer entry points that have no injection point."""
        patches = [
            (repro.ion.pipeline, "read_log", self._timed_read_log),
            (repro.service.batch, "read_log", self._timed_read_log),
            (repro.service.cache, "log_digest", self._timed("cache.digest")),
            (Extractor, "extract", self._timed_extract),
            (Analyzer, "analyze", self._timed_analyze),
        ]
        for cls in WORKLOAD_CLASSES:
            patches.append((cls, "run", self._timed_workload_run))
        originals = []
        try:
            for owner, attribute, wrap in patches:
                original = owner.__dict__[attribute]
                originals.append((owner, attribute, original))
                setattr(owner, attribute, wrap(original))
            yield self
        finally:
            for owner, attribute, original in reversed(originals):
                setattr(owner, attribute, original)

    def _timed(self, layer: str):
        def wrap(function):
            @functools.wraps(function)
            def timed(*args, **kwargs):
                with self.span(layer):
                    return function(*args, **kwargs)

            return timed

        return wrap

    def _timed_read_log(self, function):
        @functools.wraps(function)
        def timed(path):
            with self.span("darshan.read_log") as span:
                span.set_attribute("bytes", Path(path).stat().st_size)
                return function(path)

        return timed

    def _timed_extract(self, function):
        @functools.wraps(function)
        def timed(extractor, log, out_dir):
            with self.span("extractor.extract") as span:
                result = function(extractor, log, out_dir)
                span.set_attribute("rows", sum(result.row_counts.values()))
            return result

        return timed

    def _timed_analyze(self, function):
        @functools.wraps(function)
        def timed(analyzer, *args, **kwargs):
            with self.span("analyzer.analyze") as span:
                report = function(analyzer, *args, **kwargs)
                health = report.health
                span.set_attribute("queries", health.queries)
                span.set_attribute("attempts", health.attempts)
                span.set_attribute("degraded", health.degraded)
            return report

        return timed

    def _timed_workload_run(self, function):
        @functools.wraps(function)
        def timed(workload, *args, **kwargs):
            with self.span("workloads.run") as span:
                bundle = function(workload, *args, **kwargs)
                span.set_attribute("ops", len(bundle.log.dxt_segments))
            return bundle

        return timed


def _workload_classes() -> list[type]:
    """Every registered workload class that defines its own ``run``."""
    classes = {type(make_workload(name)) for name in workload_names()}
    return sorted(
        (cls for cls in classes if "run" in cls.__dict__),
        key=lambda cls: cls.__qualname__,
    )


WORKLOAD_CLASSES = _workload_classes()


def journey_attributes(span, report) -> None:
    """Record a journey's attempt counts on its ``bench`` span."""
    attempts = [a for step in report.steps for a in step.attempts]
    span.set_attribute("attempts", len(attempts))
    span.set_attribute(
        "verified", sum(1 for a in attempts if a.verdict is Verdict.VERIFIED)
    )


def span_ids():
    """A thread-safe sequential span-ID source for :class:`Traced`."""
    counter = itertools.count(1)
    lock = threading.Lock()

    def next_id() -> str:
        with lock:
            return f"{next(counter):016x}"

    return next_id


# -- spans -> per-layer metrics ----------------------------------------


def _is_layer(span) -> bool:
    return span.name.startswith(PREFIX) or span.name in _PROGRAM_LAYER_SPANS


def _layer(span) -> str:
    return span.name[len(PREFIX):] if span.name.startswith(PREFIX) else span.name


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


class PassSpans:
    """The layer spans of one traced pass, each linked to its layer parent.

    A layer span's parent is its nearest layer-span ancestor.  Where the
    program starts a new trace (the batch pool's ``trace.diagnose`` and
    ``journey.navigate`` roots), the chain ends early; it continues at
    the innermost layer span of the same thread whose interval contains
    that root, else at the innermost one on the pass's own thread.
    """

    def __init__(self, spans: list) -> None:
        by_id = {span.span_id: span for span in spans}
        self.layer_spans = [span for span in spans if _is_layer(span)]
        roots = [s for s in self.layer_spans if s.name == PREFIX + "setup"]
        roots += [s for s in self.layer_spans if s.name == PREFIX + "iteration"]
        if len(roots) != 1:
            raise ValueError(f"a pass has one root span, found {len(roots)}")
        self.root = roots[0]
        self.parent: dict[str, object] = {}
        for span in self.layer_spans:
            if span is self.root:
                continue
            node = by_id.get(span.parent_id)
            last = span
            while node is not None and not _is_layer(node):
                last = node
                node = by_id.get(node.parent_id)
            self.parent[span.span_id] = node or self._container(span, last)

    def _container(self, span, root):
        def innermost(thread):
            candidates = [
                c for c in self.layer_spans
                if c is not span and c.thread == thread
                and c.start <= root.start and root.end <= c.end
            ]
            return min(candidates, key=lambda c: c.duration, default=None)

        return innermost(root.thread) or innermost(self.root.thread) or self.root

    def children(self, span) -> list:
        return [
            s for s in self.layer_spans
            if self.parent.get(s.span_id) is span
        ]

    def self_time(self, span) -> float:
        covered = [
            (max(c.start, span.start), min(c.end, span.end))
            for c in self.children(span)
        ]
        return span.duration - _union_length(
            [(s, e) for s, e in covered if e > s]
        )

    def outermost(self, layer: str) -> list:
        """Spans of ``layer`` not nested in another span of the same layer."""
        return [
            s for s in self.layer_spans
            if _layer(s) == layer
            and _layer(self.parent.get(s.span_id, self.root)) != layer
        ]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def pass_metrics(spans: list) -> dict[str, float]:
    """The per-layer metrics of one traced pass, for the layers it used."""
    tree = PassSpans(spans)
    out: dict[str, float] = {}

    def total(layer, attribute=None):
        found = tree.outermost(layer)
        if attribute is None:
            return sum(s.duration for s in found)
        return sum(s.attributes.get(attribute, 0) for s in found)

    def calls(layer):
        return len(tree.outermost(layer))

    if calls("workloads.run"):
        seconds = total("workloads.run")
        out["workloads.run.calls"] = calls("workloads.run")
        out["workloads.run.s"] = seconds
        out["workloads.run.cpu_s"] = total("workloads.run", "cpu_s")
        out["workloads.run.ops_per_s"] = _ratio(total("workloads.run", "ops"), seconds)
    if calls("darshan.read_log"):
        seconds = total("darshan.read_log")
        out["darshan.read_log.s"] = seconds
        out["darshan.read_log.cpu_s"] = total("darshan.read_log", "cpu_s")
        out["darshan.read_log.mb_per_s"] = _ratio(
            total("darshan.read_log", "bytes") / 1e6, seconds
        )
    if calls("darshan.write_log"):
        out["darshan.write_log.s"] = total("darshan.write_log")
    if calls("extractor.extract"):
        seconds = total("extractor.extract")
        out["extractor.extract.calls"] = calls("extractor.extract")
        out["extractor.extract.s"] = seconds
        out["extractor.extract.cpu_s"] = total("extractor.extract", "cpu_s")
        out["extractor.rows_per_s"] = _ratio(total("extractor.extract", "rows"), seconds)
    if calls("cache.lookup"):
        lookups = tree.outermost("cache.lookup")
        out["cache.lookup.s"] = total("cache.lookup")
        out["cache.lookup.cpu_s"] = total("cache.lookup", "cpu_s")
        out["cache.digest.s"] = total("cache.digest")
        out["cache.hit_ratio"] = _ratio(
            sum(1 for s in lookups if s.attributes.get("hit")), len(lookups)
        )
    analyses = tree.outermost("analyzer.analyze")
    if analyses:
        wall = sum(s.duration for s in analyses)
        busy = sum(c.duration for s in analyses for c in tree.children(s))
        out["analyzer.analyze.calls"] = len(analyses)
        out["analyzer.analyze.self_s"] = sum(tree.self_time(s) for s in analyses)
        out["analyzer.queries"] = total("analyzer.analyze", "queries")
        out["analyzer.attempts"] = total("analyzer.analyze", "attempts")
        out["analyzer.useful_ratio"] = _ratio(
            out["analyzer.queries"] - total("analyzer.analyze", "degraded"),
            out["analyzer.attempts"],
        )
        out["analyzer.overlap"] = _ratio(busy, wall)
    if calls("llm.complete"):
        out["llm.complete.calls"] = calls("llm.complete")
        out["llm.complete.s"] = total("llm.complete")
    if calls("sandbox.run"):
        runs = tree.outermost("sandbox.run")
        out["sandbox.run.calls"] = len(runs)
        out["sandbox.run.s"] = total("sandbox.run")
        out["sandbox.run.cpu_s"] = total("sandbox.run", "cpu_s")
        out["sandbox.error_ratio"] = _ratio(
            sum(1 for s in runs if s.attributes.get("error")), len(runs)
        )
    if calls("sca.vet"):
        out["sca.vet.calls"] = calls("sca.vet")
        out["sca.vet.s"] = total("sca.vet")
    for span in tree.outermost("batch.run"):
        out["batch.run.s"] = span.duration
        out["batch.busy_frac"] = _ratio(
            span.attributes["busy"], span.attributes["workers"] * span.duration
        )
    journeys = tree.outermost("journey.navigate")
    if journeys:
        attempts = total("journey.navigate", "attempts")
        out["journey.navigate.self_s"] = sum(tree.self_time(s) for s in journeys)
        out["journey.attempts"] = attempts
        out["journey.verified_ratio"] = _ratio(
            total("journey.navigate", "verified"), attempts
        )
    if tree.root.name == PREFIX + "iteration":
        out["obs.unattributed_frac"] = _ratio(
            tree.self_time(tree.root), tree.root.duration
        )
    return out


def layer_metrics(
    passes: list[dict[str, float]],
    traced_walls: list[float],
    untraced_walls: list[float],
    host_sample_s: float,
) -> dict[str, float]:
    """Median of each metric over the passes where its layer did work.

    A layer that did no timed work in any pass reports 0.  Beside them,
    in seconds: the median wall time of the untraced iterations and the
    trimmed mean host-speed sample taken during them.
    """
    out = {}
    for name in PER_LAYER:
        values = [p[name] for p in passes if name in p]
        out[name] = statistics.median(values) if values else 0.0
    untraced = statistics.median(untraced_walls)
    out["obs.trace_overhead_frac"] = (
        statistics.median(traced_walls) - untraced
    ) / untraced
    out["iteration.wall_s"] = untraced
    out["host.sample_s"] = host_sample_s
    return out
