"""Unit tests for the unreliable datagram transport."""

import pytest

from repro.net.bandwidth import UploadBudget
from repro.net.events import EventQueue
from repro.net.latency import uniform_lan
from repro.net.nat import NatProfile, NatType, Reachability
from repro.net.transport import DatagramNetwork, NetworkConfig


def make_network(size=4, loss=0.0, jitter=0.0, budget=None, reachability=None):
    queue = EventQueue()
    network = DatagramNetwork(
        queue,
        uniform_lan(size, one_way_ms=10.0),
        NetworkConfig(loss_rate=loss, jitter_ms=jitter, seed=1),
        budget=budget,
        reachability=reachability,
    )
    return queue, network


def datagram_of(size):
    """An opaque buffer the network charges ``size`` bytes for."""
    return b"x" * size


class TestDelivery:
    def test_message_delivered_with_latency(self):
        queue, network = make_network()
        inbox = []
        network.register(1, inbox.append)
        network.send(0, 1, b"hello")
        queue.run()
        assert len(inbox) == 1
        datagram = inbox[0]
        assert datagram.payload == b"hello"
        assert datagram.size_bytes == 5
        assert datagram.delivered_at == pytest.approx(0.010)

    def test_unregistered_destination_dropped_silently(self):
        queue, network = make_network()
        assert network.send(0, 3, datagram_of(10))
        queue.run()
        assert network.delivered == 0

    def test_self_send_is_instant_and_lossless(self):
        queue, network = make_network(loss=0.99)
        inbox = []
        network.register(0, inbox.append)
        for _ in range(50):
            network.send(0, 0, b"self")
        queue.run()
        assert len(inbox) == 50

    def test_invalid_node_registration_rejected(self):
        _, network = make_network(size=3)
        with pytest.raises(ValueError):
            network.register(99, lambda d: None)

    def test_invalid_size_rejected(self):
        _, network = make_network()
        with pytest.raises(ValueError):
            network.send(0, 1, b"")

    def test_unregister_stops_delivery(self):
        queue, network = make_network()
        inbox = []
        network.register(1, inbox.append)
        network.unregister(1)
        network.send(0, 1, datagram_of(10))
        queue.run()
        assert inbox == []


class TestLoss:
    def test_configured_loss_rate_observed(self):
        queue, network = make_network(loss=0.2)
        network.register(1, lambda d: None)
        for _ in range(3000):
            network.send(0, 1, datagram_of(10))
        queue.run()
        assert network.loss_observed == pytest.approx(0.2, abs=0.03)
        assert network.delivered == network.sent - network.lost

    def test_zero_loss(self):
        queue, network = make_network(loss=0.0)
        network.register(1, lambda d: None)
        for _ in range(100):
            network.send(0, 1, datagram_of(10))
        queue.run()
        assert network.lost == 0

    def test_bad_loss_rate_rejected(self):
        with pytest.raises(ValueError):
            NetworkConfig(loss_rate=1.5)

    def test_negative_jitter_rejected(self):
        with pytest.raises(ValueError):
            NetworkConfig(jitter_ms=-1.0)


class TestJitter:
    def test_jitter_spreads_delivery_times(self):
        queue, network = make_network(jitter=5.0)
        times = []
        network.register(1, lambda d: times.append(d.delivered_at))
        for _ in range(100):
            network.send(0, 1, datagram_of(10))
        queue.run()
        assert max(times) - min(times) > 0.001
        assert all(t >= 0.010 for t in times)


class TestBudget:
    def test_over_budget_messages_dropped(self):
        budget = UploadBudget(bytes_per_second=100)
        queue, network = make_network(budget=budget)
        network.register(1, lambda d: None)
        results = [network.send(0, 1, datagram_of(60)) for _ in range(3)]
        assert results == [True, False, False]
        assert network.dropped_over_budget == 2

    def test_budget_tracks_per_node(self):
        budget = UploadBudget(bytes_per_second=100)
        queue, network = make_network(budget=budget)
        network.register(2, lambda d: None)
        assert network.send(0, 2, datagram_of(80))
        assert network.send(1, 2, datagram_of(80))  # different sender, own budget


class TestNatIntegration:
    def test_unreachable_pair_blocked(self):
        profiles = [
            NatProfile(0, NatType.SYMMETRIC),
            NatProfile(1, NatType.SYMMETRIC),
        ]
        reach = Reachability(profiles, seed=1)
        queue, network = make_network(size=2, reachability=reach)
        network.register(1, lambda d: None)
        assert not network.send(0, 1, datagram_of(10))
        assert network.blocked_by_nat == 1

    def test_open_pair_allowed(self):
        profiles = [NatProfile(0, NatType.PUBLIC), NatProfile(1, NatType.SYMMETRIC)]
        reach = Reachability(profiles, seed=1)
        queue, network = make_network(size=2, reachability=reach)
        network.register(1, lambda d: None)
        assert network.send(0, 1, datagram_of(10))


class TestMetering:
    def test_bandwidth_recorded(self):
        queue, network = make_network()
        network.register(1, lambda d: None)
        network.send(0, 1, datagram_of(500))
        queue.run()
        assert network.meter.usage(0).sent_bytes == 500
        assert network.meter.usage(1).received_bytes == 500


class TestPerKindBooks:
    def test_sends_are_booked_under_the_kind_table_by_leading_byte(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry(enabled=True)
        network = DatagramNetwork(
            EventQueue(),
            uniform_lan(4, one_way_ms=10.0),
            NetworkConfig(loss_rate=0.0, seed=1),
            registry=registry,
            kinds={1: "StateUpdate"},
        )
        network.send(0, 1, b"\x01" + bytes(9))
        network.send(0, 1, b"\x01" + bytes(19))
        network.send(0, 1, b"\x7f")  # a kind the table does not know
        counters = registry.snapshot()["counters"]
        assert counters["net.sent.StateUpdate.count"] == 2
        assert counters["net.sent.StateUpdate.bytes"] == 30
        assert counters["net.sent.tag127.count"] == 1
        assert counters["net.bytes.sent"] == 31
        assert counters["net.datagrams.sent"] == 3
