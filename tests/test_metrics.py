"""Tests for the pipeline metrics registry."""

from __future__ import annotations

import threading

import pytest

from repro.util.metrics import (
    LATENCY_BUCKETS,
    SIZE_BUCKETS,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        registry = MetricsRegistry()
        counter = registry.counter("a.b")
        assert counter.value == 0
        counter.inc()
        counter.inc(5)
        assert counter.value == 6

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("x").inc(-1)

    def test_counter_value_of_untouched_name_is_zero(self):
        assert MetricsRegistry().counter_value("never.seen") == 0

    def test_same_name_returns_same_counter(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")


class TestGauge:
    def test_set_and_add(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(10)
        gauge.add(-3.5)
        assert gauge.value == 6.5


class TestHistogram:
    def test_observations_land_in_buckets(self):
        histogram = Histogram(buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 3.0, 100.0):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.sum == 105.0
        # Cumulative counts, le semantics, overflow closes at +inf.
        assert histogram.bucket_counts() == [
            (1.0, 1), (2.0, 2), (4.0, 3), (float("inf"), 4),
        ]

    def test_quantiles_interpolate_and_overflow_uses_max(self):
        histogram = Histogram(buckets=(1.0, 2.0))
        for _ in range(99):
            histogram.observe(0.5)
        histogram.observe(10.0)
        assert 0.0 < histogram.quantile(0.5) <= 1.0
        # p > the in-range mass resolves to the observed maximum.
        assert histogram.quantile(0.999) == pytest.approx(10.0)

    def test_empty_quantile_is_zero(self):
        assert Histogram().quantile(0.99) == 0.0

    def test_rejects_bad_edges_and_values(self):
        with pytest.raises(ValueError):
            Histogram(buckets=())
        with pytest.raises(ValueError):
            Histogram(buckets=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram(buckets=(0.0, 1.0))
        with pytest.raises(ValueError):
            Histogram().observe(-1.0)
        with pytest.raises(ValueError):
            Histogram().quantile(1.5)

    def test_default_bucket_sets_are_increasing(self):
        for edges in (LATENCY_BUCKETS, SIZE_BUCKETS):
            assert list(edges) == sorted(edges)
            assert edges[0] > 0

    def test_registry_histogram_is_memoized(self):
        registry = MetricsRegistry()
        first = registry.histogram("h", buckets=(1.0, 2.0))
        # Later buckets are ignored; the first creation wins.
        assert registry.histogram("h", buckets=(9.0,)) is first
        assert first.buckets == (1.0, 2.0)


class TestRegistry:
    def test_name_collision_across_types(self):
        registry = MetricsRegistry()
        registry.counter("shared.name")
        with pytest.raises(ValueError):
            registry.gauge("shared.name")
        with pytest.raises(ValueError):
            registry.histogram("shared.name")

    def test_snapshot_flattens_all_metric_kinds(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        registry.gauge("g").set(1.5)
        registry.histogram("h", buckets=(1.0, 2.0)).observe(0.5)
        snap = registry.snapshot()
        assert snap["c"] == 3
        assert snap["g"] == 1.5
        assert snap["h.count"] == 1
        assert snap["h.sum"] == 0.5
        assert 0.0 < snap["h.p50"] <= 1.0

    def test_gauge_value_accessor(self):
        registry = MetricsRegistry()
        assert registry.gauge_value("never.seen") == 0.0
        registry.gauge("g").set(2.5)
        assert registry.gauge_value("g") == 2.5

    def test_collect_returns_typed_sorted_triples(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.histogram("c").observe(0.1)
        triples = registry.collect()
        assert [(name, kind) for name, kind, _ in triples] == [
            ("a", "counter"), ("c", "histogram"),
        ]

    def test_reset_clears_everything(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.histogram("h").observe(0.5)
        registry.reset()
        assert registry.snapshot() == {}
        assert registry.counter_value("c") == 0

    def test_concurrent_increments_do_not_lose_updates(self):
        registry = MetricsRegistry()
        counter = registry.counter("hot")

        def hammer():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 8000
