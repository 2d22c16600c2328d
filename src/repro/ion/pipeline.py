"""The IoNavigator facade: one call from trace to report.

Ties the Extractor, Analyzer and interactive session together, exactly
following Figure 1 of the paper: binary Darshan log -> module CSVs ->
parallel per-issue prompts -> diagnoses -> global summary -> Q&A.

The navigator *owns* its scratch space: when no ``workdir`` is given,
extraction CSVs land in one private temp directory that ``close()``
(or use as a context manager) removes.  Passing an
:class:`~repro.service.cache.ExtractionCache` instead routes
extractions through the content-addressed cache, so repeated
diagnoses of byte-identical traces skip the extraction stage
entirely; a log file the cache has parsed before is not even parsed
again on a hit.
"""

from __future__ import annotations

import shutil
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.darshan.binformat import LogFile, read_log
from repro.darshan.log import DarshanLog
from repro.ion.analyzer import Analyzer, AnalyzerConfig
from repro.ion.extractor import ExtractionResult, Extractor
from repro.ion.interactive import IonSession
from repro.ion.issues import DiagnosisReport
from repro.llm.client import LLMClient
from repro.llm.expert.model import SimulatedExpertLLM
from repro.llm.resilience import CircuitBreaker
from repro.obs.trace import NULL_TRACER
from repro.util.metrics import MetricsRegistry
from repro.util.units import MIB

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.service.cache import ExtractionCache


@dataclass
class IonResult:
    """Everything one diagnosis produced."""

    report: DiagnosisReport
    extraction: ExtractionResult
    session: IonSession
    cache_hit: bool = False


class IoNavigator:
    """End-to-end ION pipeline over a Darshan trace.

    The only code that reads a log, extracts and analyzes: the batch
    and journey navigators compose one and call :meth:`run`.  Its
    analyzer keeps one prompt thread pool for every diagnosis;
    :meth:`close` stops it with the scratch space.
    """

    def __init__(
        self,
        client: LLMClient | None = None,
        config: AnalyzerConfig | None = None,
        workdir: str | Path | None = None,
        rpc_size: int = 4 * MIB,
        cache: "ExtractionCache | None" = None,
        metrics: MetricsRegistry | None = None,
        interpreter_factory=None,
        tracer=None,
        breaker: CircuitBreaker | None = None,
    ) -> None:
        self.client = client or SimulatedExpertLLM()
        self.config = config or AnalyzerConfig()
        self.metrics = metrics or MetricsRegistry()
        self.tracer = tracer or NULL_TRACER
        self.extractor = Extractor(
            rpc_size=rpc_size, metrics=self.metrics, tracer=self.tracer
        )
        # Shared by concurrent callers: the Analyzer's only mutable
        # state is its seeded backoff-jitter generator.
        self.analyzer = Analyzer(
            client=self.client,
            config=self.config,
            metrics=self.metrics,
            interpreter_factory=interpreter_factory,
            breaker=breaker,
            tracer=self.tracer,
        )
        self.cache = cache
        self._workdir = Path(workdir) if workdir else None
        self._scratch: Path | None = None
        self._scratch_lock = threading.Lock()

    # -- scratch ownership --------------------------------------------

    def _extraction_dir(self, trace_name: str) -> Path:
        if self._workdir is not None:
            path = self._workdir / trace_name
            path.mkdir(parents=True, exist_ok=True)
            return path
        with self._scratch_lock:
            if self._scratch is None:
                self._scratch = Path(tempfile.mkdtemp(prefix="ion-"))
            root = self._scratch
        # A fresh directory per extraction, so two traces sharing a
        # name (or two threads) cannot cross-pollute.
        return Path(tempfile.mkdtemp(prefix=f"{trace_name}-", dir=root))

    def close(self) -> None:
        """Stop the analyzer's prompt threads and remove the scratch dir.

        User-supplied ``workdir`` contents and cache entries are left
        alone — the navigator only deletes what it created.  Safe to
        call more than once.
        """
        self.analyzer.close()
        with self._scratch_lock:
            scratch, self._scratch = self._scratch, None
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)

    def __enter__(self) -> "IoNavigator":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- diagnosis ----------------------------------------------------

    def run(
        self, log: DarshanLog | str | Path, trace_name: str = "trace"
    ) -> IonResult:
        """Read (if given a path), extract and analyze; opens no span.

        With a cache, a path goes to the cache as a :class:`LogFile`,
        parsed only when the cache or the Drishti fallback needs it.
        """
        if self.cache is not None:
            if not isinstance(log, DarshanLog):
                log = LogFile(log, read_log)
            extraction, hit = self.cache.get_or_extract(log, self.extractor)
        else:
            if not isinstance(log, DarshanLog):
                log = read_log(log)
            directory = self._extraction_dir(trace_name)
            extraction, hit = self.extractor.extract(log, directory), False
        report = self.analyzer.analyze(extraction, trace_name, log=log)
        return IonResult(
            report=report,
            extraction=extraction,
            session=IonSession(
                report=report, client=self.client, tracer=self.tracer
            ),
            cache_hit=hit,
        )

    def diagnose(
        self, log: DarshanLog | str | Path, trace_name: str = "trace"
    ) -> IonResult:
        """Diagnose an in-memory Darshan log or a binary log file."""
        with self.tracer.span(
            "pipeline.diagnose", attributes={"trace": trace_name}
        ) as span:
            result = self.run(log, trace_name)
            span.set_attribute("cache.hit", result.cache_hit)
            return result

    def diagnose_file(self, log_path: str | Path) -> IonResult:
        """Diagnose a binary Darshan log file."""
        return self.diagnose(log_path, Path(log_path).stem)
