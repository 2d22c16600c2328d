"""Tests for the content-addressed extraction cache.

Covers the digest contract (stable across serialization round-trips,
sensitive to any content change), hit/miss accounting, persistence of
the on-disk store across cache instances, LRU eviction under a byte
budget, and pre-keys: a log file the cache parsed before is a hit
without a parse.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.darshan.binformat import LogFile, read_log, write_log
from repro.ion import pipeline as pipeline_module
from repro.ion.analyzer import AnalyzerConfig, ResilienceConfig
from repro.ion.extractor import Extractor
from repro.ion.pipeline import IoNavigator
from repro.ion.serialize import report_to_dict
from repro.llm.expert.model import SimulatedExpertLLM
from repro.llm.faults import FaultKind, FaultPlan, FaultyLLMClient
from repro.service import cache as cache_module
from repro.service.cache import ExtractionCache, extraction_key, log_digest
from repro.util.errors import CacheError, DarshanFormatError
from repro.util.metrics import MetricsRegistry
from repro.util.units import KIB
from repro.workloads.ior import IorConfig, IorWorkload


def tiny_log(transfer_size: int = KIB, segments: int = 8, nprocs: int = 2):
    """A tiny but complete trace; distinct parameters -> distinct logs."""
    workload = IorWorkload(
        config=IorConfig(
            mode="easy", api="POSIX", nprocs=nprocs,
            transfer_size=transfer_size, segments=segments,
            file_per_process=False,
            file_name="/lustre/tiny/ior_file",
        ),
        name=f"tiny-{transfer_size}-{segments}",
    )
    return workload.run(scale=1.0).log


class TestLogDigest:
    def test_stable_across_serialization_round_trip(self, tmp_path):
        log = tiny_log()
        before = log_digest(log)
        path = write_log(log, tmp_path / "t.darshan")
        assert log_digest(read_log(path)) == before

    def test_stable_across_identical_regeneration(self):
        # The workloads are seeded, so regenerating the same
        # configuration must produce the same content digest.
        assert log_digest(tiny_log()) == log_digest(tiny_log())

    def test_changes_when_any_counter_changes(self):
        log = tiny_log()
        mutated = copy.deepcopy(log)
        record = mutated.records["POSIX"][0]
        name = next(iter(record.counters))
        record.counters[name] += 1
        assert log_digest(mutated) != log_digest(log)

    def test_changes_when_an_fcounter_changes(self):
        log = tiny_log()
        mutated = copy.deepcopy(log)
        record = mutated.records["POSIX"][0]
        name = next(iter(record.fcounters))
        record.fcounters[name] += 1e-6
        assert log_digest(mutated) != log_digest(log)

    def test_changes_when_a_file_name_changes(self):
        log = tiny_log()
        mutated = copy.deepcopy(log)
        record_id = next(iter(mutated.name_records))
        mutated.name_records[record_id].path = "/lustre/tiny/renamed"
        assert log_digest(mutated) != log_digest(log)

    def test_changes_when_job_header_changes(self):
        log = tiny_log()
        mutated = copy.deepcopy(log)
        mutated.job.nprocs += 1
        assert log_digest(mutated) != log_digest(log)

    def test_distinct_workload_parameters_distinct_digests(self):
        assert log_digest(tiny_log(segments=8)) != log_digest(
            tiny_log(segments=9)
        )


class TestExtractionKey:
    def test_key_folds_in_extractor_parameters(self):
        digest = log_digest(tiny_log())
        assert extraction_key(digest, Extractor(rpc_size=KIB)) != extraction_key(
            digest, Extractor(rpc_size=2 * KIB)
        )

    def test_key_deterministic(self):
        digest = log_digest(tiny_log())
        extractor = Extractor()
        assert extraction_key(digest, extractor) == extraction_key(
            digest, extractor
        )


class TestExtractionCache:
    def test_hit_skips_re_extraction(self, tmp_path):
        metrics = MetricsRegistry()
        extractor = Extractor(metrics=metrics)
        cache = ExtractionCache(tmp_path / "cache", metrics=metrics)
        log = tiny_log()

        first, hit1 = cache.get_or_extract(log, extractor)
        second, hit2 = cache.get_or_extract(log, extractor)

        assert (hit1, hit2) == (False, True)
        # The extractor ran exactly once; the hit came off disk.
        assert metrics.counter_value("extractor.extractions") == 1
        assert metrics.counter_value("cache.hits") == 1
        assert metrics.counter_value("cache.misses") == 1
        assert second.directory == first.directory
        assert second.row_counts == first.row_counts
        assert second.columns == first.columns
        assert second.system == first.system
        for module, path in second.csv_paths.items():
            assert path.exists(), module

    def test_round_trip_preserves_extraction_result(self, tmp_path):
        extractor = Extractor()
        cache = ExtractionCache(tmp_path / "cache")
        log = tiny_log()
        plain = extractor.extract(log, tmp_path / "plain")
        cached, _ = cache.get_or_extract(log, extractor)
        cached_again, _ = cache.get_or_extract(log, extractor)
        for result in (cached, cached_again):
            assert result.row_counts == plain.row_counts
            assert result.columns == plain.columns
            assert result.system == plain.system
            for module, path in plain.csv_paths.items():
                assert result.path_for(module).read_bytes() == path.read_bytes()

    def test_distinct_logs_distinct_entries(self, tmp_path):
        extractor = Extractor()
        cache = ExtractionCache(tmp_path / "cache")
        a, _ = cache.get_or_extract(tiny_log(segments=8), extractor)
        b, _ = cache.get_or_extract(tiny_log(segments=16), extractor)
        assert a.directory != b.directory
        assert cache.stats.entries == 2

    def test_persists_across_cache_instances(self, tmp_path):
        extractor = Extractor()
        log = tiny_log()
        first = ExtractionCache(tmp_path / "cache")
        first.get_or_extract(log, extractor)

        reopened = ExtractionCache(tmp_path / "cache")
        assert reopened.contains(log, extractor)
        _, hit = reopened.get_or_extract(log, extractor)
        assert hit
        assert reopened.stats.hits == 1
        assert reopened.stats.misses == 0

    @staticmethod
    def _entry_sizes(tmp_path, extractor, logs):
        """Byte size of each log's cache entry, measured via a probe."""
        probe = ExtractionCache(tmp_path / "probe")
        sizes = []
        previous = 0
        for log in logs:
            probe.get_or_extract(log, extractor)
            total = probe.stats.total_bytes
            sizes.append(total - previous)
            previous = total
        return sizes

    def test_eviction_under_tiny_budget(self, tmp_path):
        extractor = Extractor()
        logs = [tiny_log(segments=n) for n in (8, 16, 24)]
        sizes = self._entry_sizes(tmp_path, extractor, logs)
        assert all(size > 0 for size in sizes)

        # Budget holds exactly the two newest entries: inserting the
        # third must evict the least recently used (oldest) one.
        cache = ExtractionCache(
            tmp_path / "cache", max_bytes=sizes[1] + sizes[2]
        )
        for log in logs:
            cache.get_or_extract(log, extractor)

        stats = cache.stats
        assert stats.evictions == 1
        assert stats.entries == 2
        assert stats.total_bytes <= sizes[1] + sizes[2]
        assert not cache.contains(logs[0], extractor)
        assert cache.contains(logs[1], extractor)
        assert cache.contains(logs[2], extractor)

    def test_eviction_is_lru_not_fifo(self, tmp_path):
        extractor = Extractor()
        first = tiny_log(segments=8)
        second = tiny_log(segments=16)
        third = tiny_log(segments=24)
        sizes = self._entry_sizes(tmp_path, extractor, [first, second, third])

        cache = ExtractionCache(
            tmp_path / "cache", max_bytes=sizes[0] + sizes[2]
        )
        cache.get_or_extract(first, extractor)
        cache.get_or_extract(second, extractor)
        # Touch the older entry, making `second` the LRU victim.
        cache.get_or_extract(first, extractor)
        cache.get_or_extract(third, extractor)
        assert cache.contains(first, extractor)
        assert not cache.contains(second, extractor)
        assert cache.contains(third, extractor)

    def test_never_evicts_the_entry_just_inserted(self, tmp_path):
        extractor = Extractor()
        # Budget smaller than a single entry: the sole entry stays.
        cache = ExtractionCache(tmp_path / "cache", max_bytes=1)
        log = tiny_log()
        cache.get_or_extract(log, extractor)
        assert cache.contains(log, extractor)
        assert cache.stats.entries == 1

    def test_clear_empties_the_store(self, tmp_path):
        extractor = Extractor()
        cache = ExtractionCache(tmp_path / "cache")
        log = tiny_log()
        cache.get_or_extract(log, extractor)
        cache.clear()
        assert cache.stats.entries == 0
        assert not cache.contains(log, extractor)
        _, hit = cache.get_or_extract(log, extractor)
        assert not hit

    def test_corrupt_manifest_raises_cache_error(self, tmp_path):
        extractor = Extractor()
        cache = ExtractionCache(tmp_path / "cache")
        log = tiny_log()
        result, _ = cache.get_or_extract(log, extractor)
        (result.directory / "manifest.json").write_text("not json")
        with pytest.raises(CacheError):
            cache.get_or_extract(log, extractor)

    def test_invalid_budget_rejected(self, tmp_path):
        with pytest.raises(CacheError):
            ExtractionCache(tmp_path / "cache", max_bytes=0)

    def test_stats_hit_rate(self, tmp_path):
        extractor = Extractor()
        cache = ExtractionCache(tmp_path / "cache")
        log = tiny_log()
        cache.get_or_extract(log, extractor)
        cache.get_or_extract(log, extractor)
        cache.get_or_extract(log, extractor)
        assert cache.stats.hit_rate == pytest.approx(2 / 3)


# -- pre-keys: a known log file is a hit without a parse ---------------


def unread(path):
    raise AssertionError(f"{path} was parsed")


def reading(reads):
    """A ``LogFile`` reader that records each path it parses."""

    def reader(path):
        reads.append(path)
        return read_log(path)

    return reader


@pytest.fixture()
def counted(monkeypatch):
    """Calls of the pipeline's ``read_log`` and the cache's ``log_digest``."""
    calls = {"read_log": 0, "log_digest": 0}
    for module, name in (
        (pipeline_module, "read_log"),
        (cache_module, "log_digest"),
    ):
        real = getattr(module, name)

        def counting(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(module, name, counting)
    return calls


class TestPreKeys:
    def test_a_known_file_hits_without_read_log_or_log_digest(
        self, tmp_path, counted
    ):
        path = write_log(tiny_log(), tmp_path / "t.darshan")
        with IoNavigator(cache=ExtractionCache(tmp_path / "cache")) as navigator:
            first = navigator.run(path)
            assert counted == {"read_log": 1, "log_digest": 0}
            second = navigator.run(path)
        assert (first.cache_hit, second.cache_hit) == (False, True)
        assert counted == {"read_log": 1, "log_digest": 0}
        assert report_to_dict(second.report) == report_to_dict(first.report)

    def test_a_reindexed_root_keeps_its_prekeys(self, tmp_path):
        path = write_log(tiny_log(), tmp_path / "t.darshan")
        extractor = Extractor()
        ExtractionCache(tmp_path / "cache").get_or_extract(LogFile(path), extractor)
        reopened = ExtractionCache(tmp_path / "cache")
        _, hit = reopened.get_or_extract(LogFile(path, unread), extractor)
        assert hit
        assert reopened.stats.hits == 1

    def test_a_file_without_a_prekey_is_parsed_then_known(self, tmp_path):
        log = tiny_log()
        path = write_log(log, tmp_path / "t.darshan")
        extractor = Extractor()
        cache = ExtractionCache(tmp_path / "cache")
        cache.get_or_extract(log, extractor)  # cached from memory: no pre-key
        reads = []
        _, hit = cache.get_or_extract(LogFile(path, reading(reads)), extractor)
        assert hit and reads == [path]
        _, hit = cache.get_or_extract(LogFile(path, unread), extractor)
        assert hit

    def test_a_changed_file_is_parsed_again(self, tmp_path):
        path = tmp_path / "t.darshan"
        extractor = Extractor()
        cache = ExtractionCache(tmp_path / "cache")
        write_log(tiny_log(segments=8), path)
        first, _ = cache.get_or_extract(LogFile(path), extractor)
        write_log(tiny_log(segments=16), path)
        reads = []
        second, hit = cache.get_or_extract(LogFile(path, reading(reads)), extractor)
        assert not hit and reads == [path]
        assert second.directory != first.directory

    def test_an_evicted_entry_forgets_its_prekeys(self, tmp_path):
        extractor = Extractor()
        root = tmp_path / "cache"
        cache = ExtractionCache(root, max_bytes=1)
        a = write_log(tiny_log(segments=8), tmp_path / "a.darshan")
        b = write_log(tiny_log(segments=16), tmp_path / "b.darshan")
        cache.get_or_extract(LogFile(a), extractor)
        cache.get_or_extract(LogFile(b), extractor)  # evicts a's entry
        assert len(list(root.glob("objects/*/*.prekeys.json"))) == 1
        reads = []
        _, hit = cache.get_or_extract(LogFile(a, reading(reads)), extractor)
        assert not hit and reads == [a]
        cache.clear()
        assert not list(root.glob("objects/*/*.prekeys.json"))

    def test_a_damaged_prekeys_file_is_ignored(self, tmp_path):
        path = write_log(tiny_log(), tmp_path / "t.darshan")
        extractor = Extractor()
        root = tmp_path / "cache"
        ExtractionCache(root).get_or_extract(LogFile(path), extractor)
        (recorded,) = root.glob("objects/*/*.prekeys.json")
        prekey = next(iter(json.loads(recorded.read_text())))
        for damage in ("not json", json.dumps([1]), json.dumps({prekey: 7})):
            recorded.write_text(damage)
            reads = []
            reopened = ExtractionCache(root)
            _, hit = reopened.get_or_extract(LogFile(path, reading(reads)), extractor)
            assert hit and reads == [path]

    def test_a_corrupt_file_raises_only_darshan_format_error(self, tmp_path):
        path = write_log(tiny_log(), tmp_path / "t.darshan")
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        cache = ExtractionCache(tmp_path / "cache")
        with pytest.raises(DarshanFormatError):
            cache.get_or_extract(LogFile(path), Extractor())
        with IoNavigator(cache=cache) as navigator:
            with pytest.raises(DarshanFormatError):
                navigator.run(path)
        assert cache.stats.entries == 0

    def test_a_degraded_query_on_a_prekey_hit_gets_its_drishti_fallback(
        self, tmp_path, counted
    ):
        log = tiny_log()
        path = write_log(log, tmp_path / "t.darshan")
        cache = ExtractionCache(tmp_path / "cache")
        with IoNavigator(cache=cache) as navigator:
            navigator.run(path)
        outage = AnalyzerConfig(
            resilience=ResilienceConfig(
                max_attempts=1, backoff_base=0.0, backoff_max=0.0
            )
        )

        def diagnose(source):
            client = FaultyLLMClient(
                SimulatedExpertLLM(), FaultPlan.always(FaultKind.TRANSIENT)
            )
            with IoNavigator(client=client, config=outage, cache=cache) as navigator:
                return navigator.run(source)

        result = diagnose(path)
        assert result.cache_hit
        assert counted["read_log"] == 2  # the miss, then once for the fallback
        diagnoses = result.report.diagnoses
        assert all(d.degraded and d.fallback_source == "drishti" for d in diagnoses)
        in_memory = diagnose(log).report.diagnoses
        assert [d.conclusion for d in diagnoses] == [d.conclusion for d in in_memory]
