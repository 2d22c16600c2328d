"""Content-addressed extraction cache.

Extracting a Darshan log into module CSVs is the most I/O-heavy stage
of the ION pipeline, and campaigns re-diagnose the same traces over
and over (ablations, consistency checks, prompt refactors).  This
module caches extraction results keyed by a *content digest* of the
log — the job header, name table, module records and DXT segments in
their canonical binary encoding — so two byte-identical traces share
one extraction no matter where their files live, while changing a
single counter value produces a different key.

Layout under the cache root::

    <root>/objects/<key[:2]>/<key>/
        POSIX.csv  MPI-IO.csv  DXT.csv ...
        manifest.json        # columns, row counts, system params, size
    <root>/objects/<key[:2]>/<key>.prekeys.json   # pre-key -> log digest

A log *file* can be looked up without parsing it.  Its *pre-key* is
its size plus the sha256 of its bytes
(:func:`repro.darshan.binformat.file_prekey`).  Each parse of a file
the cache does records the pre-key's log digest, in memory and beside
the entry, so a re-indexed root keeps it.  A file with a known pre-key
whose entry is indexed is a hit that runs neither ``read_log`` nor
:func:`log_digest`.

Any other file is parsed, and on a miss extracted, in a pre-started
*extraction worker* process, off the calling process's interpreter
lock: the batch threads that share that lock keep it for analysis.
The worker replies with the log's digest, the cache looks the key up,
and only a miss asks the same worker to extract the log it holds into
a staging directory; a file whose content is cached under another
path costs one parse and no extraction.  The pre-key check, the
index, the manifest, sealing and insertion stay in the caller.
Extraction workers run no analysis code, as the sandbox's workers
(:mod:`repro.llm.interpreter`, whose pool class they share) extract
nothing.  A log already in memory is extracted in the caller.

Entries are evicted least-recently-used by total byte size when the
cache exceeds its budget.  An entry evicted while a diagnosis inside
:meth:`ExtractionCache.in_use` still reads it leaves the index at once
and keeps its files until that diagnosis ends.  All bookkeeping is
thread-safe; concurrent misses on the same key race benignly (one
extraction wins, the other is discarded).

An entry is never rewritten, and the same key always names the same
bytes, so every entry directory the cache hands out is *sealed*
(:func:`repro.llm.interpreter.seal_directory`) while it stays indexed:
analysis runs over it are memoized, and a cached re-diagnosis executes
no snippet a second time.  Eviction, :meth:`ExtractionCache.clear` and
the cache's own garbage collection unseal its entries.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
import threading
import time
import weakref
from collections import Counter, OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing.connection import Connection
from pathlib import Path

from repro.darshan.binformat import (
    LogFile,
    content_digest,
    file_prekey,
    iter_sections,
    read_log,
)
from repro.darshan.log import DarshanLog
from repro.ion.extractor import ExtractionResult, Extractor, record_extraction
from repro.llm.interpreter import _WorkerPool, seal_directory, unseal_directories
from repro.util.errors import CacheError, ReproError
from repro.util.metrics import MetricsRegistry

_MANIFEST = "manifest.json"
_MANIFEST_VERSION = 1
_PREKEYS = ".prekeys.json"


def log_digest(log: DarshanLog) -> str:
    """SHA-256 content digest of a Darshan log.

    Hashes the same canonical section payloads the binary format
    writes (before compression), so the digest is stable across
    serialization round-trips and across identical re-generations of a
    trace, and changes whenever any counter, fcounter, name, DXT
    segment or job field changes.
    """
    return content_digest(iter_sections(log))


def extraction_key(digest: str, extractor: Extractor) -> str:
    """Cache key for one (trace digest, extractor configuration) pair.

    Extraction output depends on extractor parameters (the RPC size
    enters the system-parameter block), so the key folds them in: the
    same trace extracted under two RPC sizes occupies two entries.
    """
    hasher = hashlib.sha256(digest.encode("ascii"))
    hasher.update(f"|rpc={extractor.rpc_size}".encode("ascii"))
    return hasher.hexdigest()


@dataclass(frozen=True)
class CacheStats:
    """Point-in-time accounting of one cache."""

    hits: int
    misses: int
    evictions: int
    entries: int
    total_bytes: int

    @property
    def hit_rate(self) -> float:
        looked = self.hits + self.misses
        return self.hits / looked if looked else 0.0


class ExtractionCache:
    """Content-addressed store of extraction results with LRU eviction.

    Parameters
    ----------
    root:
        Directory the cache owns.  Created if missing; existing entries
        found under it are re-indexed (oldest-touched first), so a
        cache root persists across processes.
    max_bytes:
        Total size budget for cached CSVs.  ``None`` means unbounded.
        When an insertion pushes the cache over budget, the
        least-recently-used entries are removed until it fits.
    metrics:
        Registry attached to the tracer of every extractor the cache
        serves.  A lookup is one ``cache.lookup`` span on that tracer
        (so a miss's ``extractor.extract`` nests in it), and its
        ``cache.*`` metrics reach every registry attached there.

    Every entry directory handed out is sealed while it stays indexed:
    its files do not change, so sandbox runs over it are memoized (see
    :mod:`repro.llm.interpreter`).  Evicting an entry, :meth:`clear`
    and collecting the cache unseal what it sealed.

    Pre-keys of the log files it parsed map to their log digests, so a
    repeat lookup of a file parses nothing on a hit.  An entry's
    pre-keys are forgotten with it.
    """

    def __init__(
        self,
        root: str | Path,
        max_bytes: int | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if max_bytes is not None and max_bytes <= 0:
            raise CacheError("max_bytes must be positive (or None for unbounded)")
        self.root = Path(root).expanduser().resolve()
        self.max_bytes = max_bytes
        self.metrics = metrics
        # The tracers of the extractors served: clear() reports to them.
        self._tracers: weakref.WeakSet = weakref.WeakSet()
        self._objects = self.root / "objects"
        self._objects.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        # key -> entry size in bytes; insertion order is LRU order
        # (oldest first).  Seeded from disk so restarts keep the cache.
        self._index: OrderedDict[str, int] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        # Pre-key -> log digest, and the pre-keys recorded beside each
        # entry (dropped with it).
        self._prekeys: dict[str, str] = {}
        self._entry_prekeys: dict[str, dict[str, str]] = {}
        # Entry dirs this cache has sealed; unsealed when it is collected.
        self._sealed: set[Path] = set()
        weakref.finalize(self, unseal_directories, self._sealed)
        # Keys handed out inside in_use() blocks, per block still open;
        # the removed ones keep their files until their last block ends.
        self._holds: Counter[str] = Counter()
        self._removed: set[str] = set()
        self._local = threading.local()
        self._reindex()

    # -- public API ---------------------------------------------------

    def get_or_extract(
        self,
        log: DarshanLog | LogFile,
        extractor: Extractor,
    ) -> tuple[ExtractionResult, bool]:
        """Return ``(extraction, was_hit)`` for ``log``.

        ``log`` is a parsed log or a :class:`LogFile`.  On a hit the
        cached CSVs are reused without touching the extractor, and a
        file whose pre-key is known is not even parsed.  On a miss the
        log is extracted into a fresh entry directory (a file's in an
        extraction worker), registered, and eviction is applied.
        """
        tracer = extractor.tracer
        if self.metrics is not None:
            tracer.fold_into(self.metrics)
        with self._lock:
            self._tracers.add(tracer)
        locked = False
        try:
            with tracer.span("cache.lookup") as span:
                result, hit = self._get_or_extract(log, extractor, span)
                if hit:
                    # Read and folded under the lock, as an insertion's
                    # is, so ``cache.bytes`` reports sizes in order.
                    self._lock.acquire()
                    locked = True
                    span.set_attribute("bytes", sum(self._index.values()))
            return result, hit
        finally:
            if locked:
                self._lock.release()

    @contextmanager
    def in_use(self):
        """Keep the files of every entry this thread is handed, until
        the block ends.

        An entry evicted or cleared meanwhile leaves the index at once;
        its directory goes when the last block holding it ends.  The
        navigator holds each entry for the diagnosis that reads it.
        """
        outer = getattr(self._local, "held", None)
        held = self._local.held = []
        try:
            yield
        finally:
            self._local.held = outer
            with self._lock:
                for key in held:
                    self._holds[key] -= 1
                    if not self._holds[key]:
                        del self._holds[key]
                        if key in self._removed:
                            self._removed.discard(key)
                            shutil.rmtree(self._entry_dir(key), ignore_errors=True)

    def _get_or_extract(self, log, extractor: Extractor, span):
        if isinstance(log, LogFile):
            return self._get_or_extract_file(log.path, extractor, span)
        key = extraction_key(log_digest(log), extractor)
        found = self._lookup(span, key)
        if found is not None:
            return found, True
        return self._miss(
            span, key, extractor, lambda staging: extractor.extract(log, staging)
        )

    def _get_or_extract_file(self, path: Path, extractor: Extractor, span):
        """A known pre-key's hit, else a worker's parse and, on a miss,
        its extraction, recorded on an ``extractor.extract`` span."""
        known = file_prekey(path.read_bytes())
        with self._lock:
            digest = self._prekeys.get(known)
        if digest is not None:
            found = self._lookup(span, extraction_key(digest, extractor))
            if found is not None:
                return found, True
        with _EXTRACTORS.lease() as (worker, queue_wait):
            (prekey, digest, read_s), parse_cpu_s = _ask(worker, "parse", str(path))
            key = extraction_key(digest, extractor)
            found = self._lookup(span, key, prekey, digest)
            if found is not None:
                _ask(worker, "drop")
                return found, True

            def extract(staging: Path) -> ExtractionResult:
                with extractor.tracer.span("extractor.extract") as extraction:
                    result, cpu_s = _ask(
                        worker, "extract", str(staging), extractor.rpc_size
                    )
                    record_extraction(extraction, result)
                    extraction.set_attribute("queue_wait_s", round(queue_wait, 6))
                    extraction.set_attribute("read_log_s", round(read_s, 6))
                    extraction.set_attribute(
                        "worker_cpu_s", round(parse_cpu_s + cpu_s, 6)
                    )
                return result

            return self._miss(span, key, extractor, extract, prekey, digest)

    def _miss(
        self,
        span,
        key: str,
        extractor: Extractor,
        extract,
        prekey: str | None = None,
        digest: str = "",
    ) -> tuple[ExtractionResult, bool]:
        """Extract a miss on ``key`` with ``extract(staging dir)`` and
        insert it (outside the lock: extraction dominates the cost, and
        serializing it would defeat the batch scheduler)."""
        span.set_attribute("hit", False)
        staging = Path(
            tempfile.mkdtemp(prefix=f"staging-{key[:8]}-", dir=self._objects)
        )
        try:
            result = extract(staging)
            self._write_manifest(staging, key, result)
            size = _tree_size(staging)
            entry = self._entry_dir(key)
            entry.parent.mkdir(parents=True, exist_ok=True)
            with self._lock:
                # A concurrent miss on the same key inserted first, or
                # an evicted entry is still in use: either holds these
                # bytes, so it stays (and is no longer to be removed).
                self._removed.discard(key)
                try:
                    staging.rename(entry)
                except OSError:
                    pass
                # Opened and closed under the lock, so the ``cache.bytes``
                # each insertion reports reaches the registries in order.
                with extractor.tracer.span("cache.insert") as insert:
                    self._misses += 1
                    if key not in self._index:
                        self._index[key] = size
                    self._index.move_to_end(key)
                    insert.set_attribute("evictions", self._evict_locked(keep=key))
                    insert.set_attribute("bytes", sum(self._index.values()))
                self._seal_locked(entry)
                self._record_locked(key, prekey, digest)
                self._hold_locked(key)
                return self._load(key, entry), False
        finally:
            shutil.rmtree(staging, ignore_errors=True)

    def contains(self, log: DarshanLog, extractor: Extractor) -> bool:
        """Whether ``log`` (under this extractor config) is cached."""
        key = extraction_key(log_digest(log), extractor)
        with self._lock:
            return key in self._index

    @property
    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                entries=len(self._index),
                total_bytes=sum(self._index.values()),
            )

    def clear(self) -> None:
        """Remove every entry and reset accounting."""
        with self._lock:
            for key in list(self._index):
                self._remove_locked(key)
            self._hits = self._misses = self._evictions = 0
            for tracer in list(self._tracers):
                with tracer.span("cache.clear"):
                    pass  # the span reports ``cache.bytes`` 0

    # -- entry management ---------------------------------------------

    def _lookup(
        self, span, key: str, prekey: str | None = None, digest: str = ""
    ) -> ExtractionResult | None:
        """The entry of ``key`` if it is indexed, a hit on ``span``."""
        entry = self._entry_dir(key)
        with self._lock:
            if key not in self._index:
                return None
            self._index.move_to_end(key)
            self._hits += 1
            span.set_attribute("hit", True)
            self._touch(entry)
            self._seal_locked(entry)
            self._record_locked(key, prekey, digest)
            self._hold_locked(key)
            return self._load(key, entry)

    def _hold_locked(self, key: str) -> None:
        """Count ``key`` as held by this thread's :meth:`in_use` block."""
        held = getattr(self._local, "held", None)
        if held is not None:
            held.append(key)
            self._holds[key] += 1

    def _remove_locked(self, key: str) -> None:
        """Drop ``key`` from the index; its files go now or, while an
        :meth:`in_use` block holds it, when the last such block ends."""
        del self._index[key]
        entry = self._entry_dir(key)
        unseal_directories([entry])
        self._sealed.discard(entry)
        self._forget_prekeys_locked(key)
        if self._holds[key]:
            self._removed.add(key)
        else:
            shutil.rmtree(entry, ignore_errors=True)

    def _entry_dir(self, key: str) -> Path:
        return self._objects / key[:2] / key

    def _prekeys_file(self, key: str) -> Path:
        return self._objects / key[:2] / (key + _PREKEYS)

    def _record_locked(self, key: str, prekey: str | None, digest: str) -> None:
        """Remember that ``prekey``'s file has log digest ``digest``."""
        if prekey is None or prekey in self._prekeys:
            return
        self._prekeys[prekey] = digest
        recorded = self._entry_prekeys.setdefault(key, {})
        recorded[prekey] = digest
        try:
            _write_json(self._prekeys_file(key), recorded)
        except OSError:
            pass  # kept in memory only; a re-indexed root parses the file again

    def _forget_prekeys_locked(self, key: str) -> None:
        for prekey in self._entry_prekeys.pop(key, {}):
            self._prekeys.pop(prekey, None)
        try:
            self._prekeys_file(key).unlink(missing_ok=True)
        except OSError:
            pass  # best effort, as the entry's own removal is

    def _write_manifest(self, entry: Path, key: str, result: ExtractionResult) -> None:
        manifest = {
            "version": _MANIFEST_VERSION,
            "key": key,
            "csv": {module: path.name for module, path in result.csv_paths.items()},
            "columns": result.columns,
            "row_counts": result.row_counts,
            "system": result.system,
        }
        _write_json(entry / _MANIFEST, manifest)

    def _load(self, key: str, entry: Path) -> ExtractionResult:
        manifest_path = entry / _MANIFEST
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise CacheError(f"cache entry {key} is corrupt: {exc}") from exc
        if manifest.get("version") != _MANIFEST_VERSION:
            raise CacheError(
                f"cache entry {key} written by an incompatible version"
            )
        return ExtractionResult(
            directory=entry,
            csv_paths={
                module: entry / name for module, name in manifest["csv"].items()
            },
            columns={m: list(c) for m, c in manifest["columns"].items()},
            row_counts={m: int(n) for m, n in manifest["row_counts"].items()},
            system=dict(manifest["system"]),
        )

    def _seal_locked(self, entry: Path) -> None:
        seal_directory(entry)
        self._sealed.add(entry)

    def _touch(self, entry: Path) -> None:
        try:
            os.utime(entry / _MANIFEST)
        except OSError:
            pass

    def _evict_locked(self, keep: str) -> int:
        """Evict least-recently-used entries over budget; how many went."""
        evicted = 0
        if self.max_bytes is None:
            return evicted
        total = sum(self._index.values())
        while total > self.max_bytes and len(self._index) > 1:
            key, size = next(iter(self._index.items()))
            if key == keep:
                # The protected entry is the oldest; nothing older to
                # evict, so stop rather than drop what we just made.
                break
            self._remove_locked(key)
            total -= size
            self._evictions += 1
            evicted += 1
        return evicted

    def _reindex(self) -> None:
        """Rebuild the LRU index from entries already on disk."""
        found: list[tuple[float, str, int]] = []
        for manifest_path in self._objects.glob(f"*/*/{_MANIFEST}"):
            entry = manifest_path.parent
            if entry.name.startswith("staging-"):
                continue
            try:
                mtime = manifest_path.stat().st_mtime
            except OSError:
                continue
            found.append((mtime, entry.name, _tree_size(entry)))
        for _, key, size in sorted(found):
            self._index[key] = size
            try:
                recorded = json.loads(self._prekeys_file(key).read_text("utf-8"))
            except (OSError, ValueError):
                continue
            if isinstance(recorded, dict):
                recorded = {
                    prekey: digest
                    for prekey, digest in recorded.items()
                    if isinstance(digest, str) and digest.isascii()
                }
                self._entry_prekeys[key] = recorded
                self._prekeys.update(recorded)


# -- extraction workers --------------------------------------------------


def _worker_main(fd: int) -> None:
    """An extraction worker: serve parse and extract requests on pipe ``fd``.

    ``("parse", path)`` reads a log file and replies ``(pre-key, log
    digest, read seconds)``; the worker keeps that log for one
    ``("extract", out_dir, rpc_size)``, which replies the
    :class:`ExtractionResult`, or until ``("drop",)``.  A reply is
    ``(True, value, cpu seconds)``, or ``(False, exception, cpu
    seconds)`` when the request raised a library error
    (``DarshanFormatError``, ``ExtractionError``) or an ``OSError``.
    Any other exception is a bug: it ends the worker with its
    traceback, and the caller reports the worker's death.
    """
    conn = Connection(fd)
    log = None
    try:
        conn.send("ready")
        while (request := conn.recv()) is not None:
            started = time.process_time()
            kind, *args = request
            try:
                if kind == "parse":
                    log = None
                    wall = time.perf_counter()
                    log = read_log(*args)
                    value = (log.source.prekey, log.source.digest,
                             time.perf_counter() - wall)
                elif kind == "extract":
                    out_dir, rpc_size = args
                    parsed, log = log, None
                    value = Extractor(rpc_size=rpc_size).extract(parsed, out_dir)
                else:
                    log = value = None
                reply = (True, value, time.process_time() - started)
            except (ReproError, OSError) as exc:  # the caller raises it
                reply = (False, exc, time.process_time() - started)
            conn.send(reply)
    except (EOFError, OSError):
        pass  # the parent went away


def _ask(worker, *request):
    """Send ``request`` to an extraction worker: ``(value, cpu seconds)``,
    or the worker's exception raised here."""
    ok, value, cpu_s = worker.call(request)
    if not ok:
        raise value
    return value, cpu_s


#: The process-wide extraction workers, one per usable CPU, started by
#: the first miss on a log file.  They run no analysis code.
_EXTRACTORS = _WorkerPool(__name__, "extraction worker")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")


def _tree_size(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())
