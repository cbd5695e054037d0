"""Unit tests for the observability registry and the bench-diff engine."""

import json

import pytest

from repro.obs import (
    MetricsRegistry,
    bench_row,
    diff_rows,
    exponential_buckets,
    format_diff,
    get_registry,
    load_bench_rows,
    use_registry,
    write_bench_json,
)
from repro.obs.registry import (
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = MetricsRegistry().counter("c")
        assert counter.value == 0
        counter.inc()
        counter.inc(41)
        assert counter.value == 42

    def test_same_name_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")

    def test_distinct_names_distinct_instruments(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        assert registry.counter("b").value == 0


class TestGauge:
    def test_set_overwrites(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(3.5)
        gauge.set(2.0)
        assert gauge.value == 2.0

    def test_add_accumulates(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.add(1.5)
        gauge.add(-0.5)
        assert gauge.value == 1.0


class TestHistogram:
    def test_count_sum_min_max(self):
        histogram = MetricsRegistry().histogram("h", bounds=(1.0, 10.0, 100.0))
        for value in (0.5, 5.0, 50.0, 500.0):
            histogram.record(value)
        assert histogram.count == 4
        assert histogram.total == pytest.approx(555.5)
        assert histogram.min == 0.5
        assert histogram.max == 500.0
        assert histogram.mean == pytest.approx(138.875)

    def test_percentiles_on_uniform_distribution(self):
        # 1..100 into decade buckets: every percentile is exact up to
        # in-bucket interpolation.
        bounds = tuple(float(b) for b in range(10, 101, 10))
        histogram = MetricsRegistry().histogram("h", bounds=bounds)
        for value in range(1, 101):
            histogram.record(float(value))
        assert histogram.percentile(0.50) == pytest.approx(50.0, abs=1.0)
        assert histogram.percentile(0.95) == pytest.approx(95.0, abs=1.0)
        assert histogram.percentile(0.99) == pytest.approx(99.0, abs=1.0)
        assert histogram.percentile(1.00) == pytest.approx(100.0)
        assert histogram.percentile(0.0) == pytest.approx(1.0)

    def test_percentile_of_constant_distribution(self):
        histogram = MetricsRegistry().histogram("h", bounds=(1.0, 2.0))
        for _ in range(10):
            histogram.record(1.5)
        for q in (0.5, 0.95, 0.99):
            assert histogram.percentile(q) == pytest.approx(1.5)

    def test_overflow_bucket_clamped_to_observed_max(self):
        histogram = MetricsRegistry().histogram("h", bounds=(1.0,))
        histogram.record(7.0)
        histogram.record(9.0)
        assert histogram.percentile(0.99) <= 9.0

    def test_empty_summary(self):
        assert MetricsRegistry().histogram("h").summary() == {"count": 0}

    def test_summary_keys(self):
        histogram = MetricsRegistry().histogram("h", bounds=(1.0, 2.0))
        histogram.record(1.0)
        summary = histogram.summary()
        assert set(summary) == {
            "count", "sum", "mean", "min", "max", "p50", "p95", "p99",
        }

    def test_rejects_bad_quantile(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("h").percentile(1.5)


class TestExponentialBuckets:
    def test_geometric_series(self):
        assert exponential_buckets(1.0, 2.0, 4) == (1.0, 2.0, 4.0, 8.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            exponential_buckets(0.0, 2.0, 4)
        with pytest.raises(ValueError):
            exponential_buckets(1.0, 1.0, 4)
        with pytest.raises(ValueError):
            exponential_buckets(1.0, 2.0, 0)


class TestDisabledRegistry:
    """The zero-allocation path: shared null singletons."""

    def test_factories_return_shared_singletons(self):
        registry = MetricsRegistry(enabled=False)
        assert registry.counter("a") is NULL_COUNTER
        assert registry.counter("b") is NULL_COUNTER
        assert registry.gauge("g") is NULL_GAUGE
        assert registry.histogram("h") is NULL_HISTOGRAM

    def test_null_instruments_swallow_writes(self):
        registry = MetricsRegistry(enabled=False)
        registry.counter("a").inc(10)
        registry.gauge("g").set(3.0)
        registry.histogram("h").record(1.0)
        assert registry.snapshot()["counters"] == {}
        assert registry.snapshot()["gauges"] == {}
        assert registry.snapshot()["histograms"] == {}

    def test_null_path_allocates_nothing_per_call(self):
        registry = MetricsRegistry(enabled=False)
        handles = {registry.counter(f"c{i}") for i in range(100)}
        histograms = {registry.histogram(f"h{i}") for i in range(100)}
        assert handles == {NULL_COUNTER}
        assert histograms == {NULL_HISTOGRAM}


class TestSnapshot:
    def test_snapshot_round_trips_through_json(self):
        registry = MetricsRegistry()
        registry.counter("events").inc(3)
        registry.gauge("kbps").set(57.5)
        registry.histogram("lat", bounds=(1.0, 2.0)).record(1.5)
        snapshot = json.loads(registry.to_json())
        assert snapshot["counters"]["events"] == 3
        assert snapshot["gauges"]["kbps"] == 57.5
        assert snapshot["histograms"]["lat"]["count"] == 1


class TestGlobalRegistry:
    def test_default_is_disabled(self):
        assert get_registry().enabled is False

    def test_use_registry_swaps_and_restores(self):
        before = get_registry()
        replacement = MetricsRegistry()
        with use_registry(replacement) as active:
            assert active is replacement
            assert get_registry() is replacement
        assert get_registry() is before


class TestBenchArtifacts:
    def test_row_requires_name(self):
        with pytest.raises(ValueError):
            bench_row("")

    def test_write_and_load_round_trip(self, tmp_path):
        path = tmp_path / "bench.json"
        write_bench_json(path, bench_row("b1", metrics={"kbps": 10.0}))
        rows = load_bench_rows(path)
        assert rows["b1"]["metrics"] == {"kbps": 10.0}
        assert rows["b1"]["timestamp"]

    def test_load_accepts_bare_row_and_list(self, tmp_path):
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps(bench_row("solo")), encoding="utf-8")
        assert set(load_bench_rows(bare)) == {"solo"}
        listed = tmp_path / "list.json"
        listed.write_text(
            json.dumps([bench_row("a"), bench_row("b")]), encoding="utf-8"
        )
        assert set(load_bench_rows(listed)) == {"a", "b"}

    def test_load_rejects_rows_without_bench(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([{"metrics": {}}]), encoding="utf-8")
        with pytest.raises(ValueError):
            load_bench_rows(bad)

    def test_newest_row_wins_per_bench(self, tmp_path):
        path = tmp_path / "bench.json"
        write_bench_json(
            path,
            [
                bench_row("b", metrics={"kbps": 1.0}),
                bench_row("b", metrics={"kbps": 2.0}),
            ],
        )
        assert load_bench_rows(path)["b"]["metrics"]["kbps"] == 2.0


class TestDiff:
    @staticmethod
    def rows(**metrics):
        return {"b": bench_row("b", metrics=metrics)}

    def test_no_regression_within_threshold(self):
        regressions, others = diff_rows(
            self.rows(kbps=100.0), self.rows(kbps=120.0), threshold=0.25
        )
        assert regressions == []
        assert len(others) == 1

    def test_regression_beyond_threshold(self):
        regressions, _ = diff_rows(
            self.rows(kbps=100.0), self.rows(kbps=130.0), threshold=0.25
        )
        assert len(regressions) == 1
        assert regressions[0].relative_change == pytest.approx(0.30)

    def test_improvement_is_not_a_regression(self):
        regressions, _ = diff_rows(
            self.rows(kbps=100.0), self.rows(kbps=10.0), threshold=0.25
        )
        assert regressions == []

    def test_zero_baseline_growth_is_flagged(self):
        regressions, _ = diff_rows(
            self.rows(fails=0.0), self.rows(fails=3.0), threshold=0.25
        )
        assert len(regressions) == 1

    def test_a_negative_baseline_grows_upward(self):
        """A difference metric can sit below zero; falling further is an
        improvement, rising past the gate is a regression."""
        regressions, others = diff_rows(
            self.rows(delta=-5.8), self.rows(delta=-102.3), threshold=0.25
        )
        assert regressions == []
        assert others[0].relative_change == pytest.approx(-96.5 / 5.8)
        regressions, _ = diff_rows(
            self.rows(delta=-5.8), self.rows(delta=10.0), threshold=0.25
        )
        assert [d.metric for d in regressions] == ["delta"]

    def test_metrics_on_one_side_only_are_ignored(self):
        regressions, others = diff_rows(
            self.rows(old_only=1.0), self.rows(new_only=99.0)
        )
        assert regressions == [] and others == []

    def test_wall_seconds_excluded_by_default(self):
        old = {"b": bench_row("b", wall_seconds=1.0)}
        new = {"b": bench_row("b", wall_seconds=100.0)}
        assert diff_rows(old, new) == ([], [])
        regressions, _ = diff_rows(old, new, include_wall=True)
        assert [d.metric for d in regressions] == ["wall_seconds"]

    def test_format_diff_mentions_regressions(self):
        regressions, others = diff_rows(
            self.rows(kbps=100.0), self.rows(kbps=200.0)
        )
        text = format_diff(regressions, others)
        assert "REGRESSION" in text and "kbps" in text
