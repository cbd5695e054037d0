"""Integration tests: a short protocol replay populates the registry.

These verify the wiring end-to-end — a :class:`WatchmenSession` built and
run under ``use_registry(enabled registry)`` (the network, proxy schedule
and every node bind it where they are built) leaves it populated with
per-message-type counters, simulated-time histograms and bandwidth gauges,
while a disabled registry records nothing and changes nothing.
"""

import pytest

from repro.core import WatchmenSession
from repro.game import generate_trace, make_longest_yard
from repro.obs import MetricsRegistry, use_registry

PLAYERS = 8
FRAMES = 60


@pytest.fixture(scope="module")
def instrumented_run():
    game_map = make_longest_yard()
    trace = generate_trace(
        num_players=PLAYERS, num_frames=FRAMES, seed=42, game_map=game_map
    )
    registry = MetricsRegistry(enabled=True)
    with use_registry(registry):
        report = WatchmenSession(trace, game_map=game_map).run()
    return registry, report


class TestReplayPopulatesRegistry:
    def test_per_message_type_counters(self, instrumented_run):
        registry, report = instrumented_run
        counters = registry.snapshot()["counters"]
        assert counters["net.sent.StateUpdate.count"] > 0
        assert counters["net.sent.StateUpdate.bytes"] > 0
        sent_total = sum(
            value
            for name, value in counters.items()
            if name.startswith("net.sent.") and name.endswith(".count")
        )
        assert sent_total == report.messages_sent == counters["net.datagrams.sent"]

    def test_delivery_and_verification_latencies(self, instrumented_run):
        registry, _ = instrumented_run
        delivery = registry.histogram("net.delivery_seconds")
        assert delivery.count > 0
        # Simulated seconds: one-way latency is tens of milliseconds.
        assert 0.0 < delivery.percentile(0.5) < 1.0
        # every delivery had its signature checked, and all held
        counters = registry.snapshot()["counters"]
        assert delivery.count == counters["net.datagrams.delivered"]
        assert counters.get("node.signature_failures", 0) == 0
        # nothing in the snapshot is host time
        assert set(registry.snapshot()["histograms"]) == {
            "net.delivery_seconds", "node.update_age_frames",
        }

    def test_bandwidth_gauges_match_report(self, instrumented_run):
        registry, report = instrumented_run
        gauges = registry.snapshot()["gauges"]
        assert gauges["net.upload_kbps.mean"] == pytest.approx(
            report.mean_upload_kbps
        )
        assert gauges["net.upload_kbps.max"] == pytest.approx(
            report.max_upload_kbps
        )
        assert gauges["session.players"] == PLAYERS
        assert gauges["session.frames"] == FRAMES

    def test_node_metrics_mirror_registry(self, instrumented_run):
        registry, report = instrumented_run
        counters = registry.snapshot()["counters"]
        ages = registry.histogram("node.update_age_frames")
        assert ages.count == sum(report.age_histogram.values())
        assert counters.get("node.signature_failures", 0) == 0

    def test_proxy_schedule_memoization_counters(self, instrumented_run):
        registry, _ = instrumented_run
        counters = registry.snapshot()["counters"]
        assert counters["proxy.schedule.lookups"] > counters["proxy.schedule.draws"]
        assert counters["proxy.schedule.draws"] > 0


class TestDisabledRegistryIsInert:
    def test_run_records_nothing(self):
        game_map = make_longest_yard()
        trace = generate_trace(
            num_players=PLAYERS, num_frames=20, seed=42, game_map=game_map
        )
        registry = MetricsRegistry(enabled=False)
        with use_registry(registry):
            report = WatchmenSession(trace, game_map=game_map).run()
        assert report.messages_sent > 0
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {}
        assert snapshot["histograms"] == {}

    def test_instrumentation_does_not_change_results(self):
        game_map = make_longest_yard()
        trace = generate_trace(
            num_players=PLAYERS, num_frames=40, seed=42, game_map=game_map
        )
        plain = WatchmenSession(trace, game_map=game_map).run()
        with use_registry(MetricsRegistry(enabled=True)):
            instrumented = WatchmenSession(trace, game_map=game_map).run()
        assert plain.messages_sent == instrumented.messages_sent
        assert plain.age_histogram == instrumented.age_histogram
        assert plain.mean_upload_kbps == pytest.approx(
            instrumented.mean_upload_kbps
        )
