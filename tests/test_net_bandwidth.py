"""Unit tests for bandwidth accounting."""

import pytest

from repro.net.bandwidth import BandwidthMeter


class TestMeter:
    def test_upload_kbps(self):
        meter = BandwidthMeter()
        meter.record_send(0, 12_500, time=1.0)  # 100 kbit over 1 s
        assert meter.upload_kbps(0) == pytest.approx(100.0)

    def test_download_kbps(self):
        meter = BandwidthMeter()
        meter.record_receive(1, 25_000, time=2.0)
        received_kbit = meter.usage(1).received_bytes * 8.0 / 1000.0
        assert received_kbit / meter.duration == pytest.approx(100.0)

    def test_mean_and_max(self):
        meter = BandwidthMeter()
        meter.record_send(0, 1000, 1.0)
        meter.record_send(1, 3000, 1.0)
        rates = [meter.upload_kbps(node) for node in (0, 1)]
        assert max(rates) == pytest.approx(24.0)
        assert sum(rates) / len(rates) == pytest.approx(16.0)

    def test_total(self):
        meter = BandwidthMeter()
        meter.record_send(0, 1000, 1.0)
        meter.record_send(1, 1000, 1.0)
        total = sum(meter.upload_kbps(node) for node in (0, 1))
        assert total == pytest.approx(16.0)

    def test_empty_meter(self):
        meter = BandwidthMeter()
        assert meter.upload_kbps(0) == 0.0
        assert meter.usage(0).sent_messages == 0

    def test_message_counters(self):
        meter = BandwidthMeter()
        meter.record_send(0, 10, 0.5)
        meter.record_send(0, 10, 0.6)
        meter.record_receive(0, 10, 0.7)
        usage = meter.usage(0)
        assert usage.sent_messages == 2
        assert usage.received_messages == 1

    def test_usage_builds_one_entry_per_node(self, monkeypatch):
        from repro.net import bandwidth

        built = []

        class CountingUsage(bandwidth.NodeUsage):
            def __init__(self):
                super().__init__()
                built.append(self)

        monkeypatch.setattr(bandwidth, "NodeUsage", CountingUsage)
        meter = BandwidthMeter()
        first = meter.usage(3)
        meter.record_send(3, 10, 0.1)
        meter.record_receive(3, 10, 0.2)
        assert meter.usage(3) is first
        assert built == [first]  # lookups after the first construct nothing

    def test_node_ids_sorted(self):
        meter = BandwidthMeter()
        meter.record_send(5, 10, 0.1)
        meter.record_send(2, 10, 0.1)
        sent = {node: meter.usage(node).sent_bytes for node in (2, 3, 5)}
        assert sent == {2: 10, 3: 0, 5: 10}  # booked per node, whatever the order
