"""Tests for counters, gauges, histograms, and the registry."""

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        counter = Counter("c")
        assert counter.value == 0
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_reset(self):
        counter = Counter("c")
        counter.inc(3)
        counter.reset()
        assert counter.value == 0


class TestGauge:
    def test_set_and_add(self):
        gauge = Gauge("g")
        gauge.set(2.5)
        gauge.add(-1.0)
        assert gauge.value == 1.5


class TestHistogramBucketing:
    def test_observations_land_in_correct_buckets(self):
        hist = Histogram("h", buckets=(1, 2, 4))
        for value in (0, 1, 2, 3, 4, 100):
            hist.observe(value)
        # bounds: <=1, <=2, <=4, +inf
        assert hist.counts == [2, 1, 2, 1]
        assert hist.count == 6

    def test_boundary_values_are_inclusive(self):
        hist = Histogram("h", buckets=(10,))
        hist.observe(10)
        assert hist.counts == [1, 0]

    def test_overflow_bucket(self):
        hist = Histogram("h", buckets=(1, 2))
        hist.observe(1_000_000)
        assert hist.counts[-1] == 1

    def test_summary_statistics(self):
        hist = Histogram("h", buckets=(8,))
        for value in (1, 2, 3):
            hist.observe(value)
        assert hist.count == 3
        assert hist.sum == 6
        assert hist.mean == 2
        assert hist.min == 1
        assert hist.max == 3

    def test_empty_histogram_is_sane(self):
        hist = Histogram("h")
        assert hist.mean == 0.0
        assert hist.min is None and hist.max is None

    def test_buckets_sorted_automatically(self):
        hist = Histogram("h", buckets=(4, 1, 2))
        assert hist.buckets == (1, 2, 4)

    def test_zero_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=())

    def test_reset(self):
        hist = Histogram("h", buckets=(1,))
        hist.observe(0)
        hist.reset()
        assert hist.count == 0
        assert hist.counts == [0, 0]
        assert hist.min is None

    @pytest.mark.parametrize(
        "values",
        [[(3.5, 4)], [(0.0, 1), (1.0, 3)], [(2.0, 5), (4.25, 2), (100.0, 7)]],
    )
    def test_observe_many_equals_repeated_observe(self, values):
        batched = Histogram("h", buckets=(1, 2, 4))
        single = Histogram("h", buckets=(1, 2, 4))
        for value, count in values:
            batched.observe_many(value, count)
            for _ in range(count):
                single.observe(value)
        assert batched.snapshot() == single.snapshot()

    def test_observe_many_of_nothing_is_a_no_op(self):
        hist = Histogram("h", buckets=(1,))
        hist.observe_many(5.0, 0)
        assert hist.snapshot() == Histogram("h", buckets=(1,)).snapshot()


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h") is registry.histogram("h")

    def test_namespaces_are_independent(self):
        registry = MetricsRegistry()
        assert registry.counter("x").value == 0
        registry.gauge("x").set(7)
        assert registry.counter("x").value == 0

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc(3)
        registry.gauge("level").set(1.5)
        registry.histogram("sizes", buckets=(1, 2)).observe(2)
        snap = registry.snapshot()
        assert snap["counters"] == {"hits": 3}
        assert snap["gauges"] == {"level": 1.5}
        assert snap["histograms"]["sizes"]["count"] == 1
        assert snap["histograms"]["sizes"]["counts"] == [0, 1, 0]

    def test_reset_zeroes_but_keeps_handles_valid(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc(9)
        registry.reset()
        assert counter.value == 0
        counter.inc()
        assert registry.snapshot()["counters"]["c"] == 1

    def test_default_registry_is_process_wide(self):
        assert get_registry() is get_registry()


class TestRenderMetrics:
    def test_renders_every_section(self):
        from repro.obs.report import render_metrics

        registry = MetricsRegistry()
        registry.counter("requests").inc(2)
        registry.gauge("depth").set(3)
        registry.histogram("chain", buckets=(1,)).observe(0)
        text = render_metrics(registry.snapshot())
        assert "requests" in text and "2" in text
        assert "depth" in text
        assert "chain" in text and "<=1: 1" in text

    def test_empty_snapshot(self):
        from repro.obs.report import render_metrics

        assert "no metrics" in render_metrics(MetricsRegistry().snapshot())


class TestBucketConfiguration:
    def test_exponential_buckets_shape(self):
        from repro.obs.metrics import exponential_buckets

        assert exponential_buckets(1, 2, 4) == (1, 2, 4, 8)

    def test_exponential_buckets_validation(self):
        from repro.obs.metrics import exponential_buckets

        with pytest.raises(ValueError):
            exponential_buckets(1, 2, 0)
        with pytest.raises(ValueError):
            exponential_buckets(0, 2, 3)
        with pytest.raises(ValueError):
            exponential_buckets(1, 1, 3)

    def test_ns_latency_buckets_resolve_nanosecond_scale(self):
        """Default linear edges saturate on ns timings; the exponential
        latency edges put a ~50 ns hash and a ~5 µs fallback in distinct
        named buckets."""
        from repro.obs.metrics import (
            DEFAULT_BUCKETS,
            NS_LATENCY_BUCKETS,
            Histogram,
        )

        saturated = Histogram("h", DEFAULT_BUCKETS)
        saturated.observe(50.0)
        saturated.observe(5000.0)
        assert saturated.counts[-2:] == [1, 1]  # both past the top edge

        latency = Histogram("h", NS_LATENCY_BUCKETS)
        latency.observe(50.0)
        latency.observe(5000.0)
        occupied = [i for i, c in enumerate(latency.counts) if c]
        assert len(occupied) == 2
        assert occupied[-1] < len(NS_LATENCY_BUCKETS)  # not overflow

    def test_registry_histogram_custom_buckets(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat", buckets=(10, 100))
        assert histogram.buckets == (10, 100)
        # Re-request without buckets (or with the same) returns it.
        assert registry.histogram("lat") is histogram
        assert registry.histogram("lat", buckets=(10, 100)) is histogram

    def test_registry_histogram_bucket_conflict(self):
        registry = MetricsRegistry()
        registry.histogram("lat", buckets=(10, 100))
        with pytest.raises(ValueError, match="already exists"):
            registry.histogram("lat", buckets=(1, 2))

    def test_default_buckets_unchanged_when_omitted(self):
        from repro.obs.metrics import DEFAULT_BUCKETS

        registry = MetricsRegistry()
        assert registry.histogram("h").buckets == DEFAULT_BUCKETS
