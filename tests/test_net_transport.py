"""Unit tests for the unreliable datagram transport."""

import pytest

from repro.faults import FaultInjector, FaultSchedule, PartitionFault
from repro.net.events import EventQueue
from repro.net.latency import uniform_lan
from repro.net.transport import DatagramNetwork, NetworkConfig
from repro.obs import MetricsRegistry, use_registry


def make_network(size=4, loss=0.0, jitter=0.0):
    queue = EventQueue()
    network = DatagramNetwork(
        queue,
        uniform_lan(size, one_way_ms=10.0),
        NetworkConfig(loss_rate=loss, jitter_ms=jitter, seed=1),
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
        assert network.lost / network.sent == pytest.approx(0.2, abs=0.03)
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


class TestNatIntegration:
    """An unreachable pair is a :class:`PartitionFault`: the one way a link
    is cut, screened through the network's one fault hook."""

    @staticmethod
    def cut_between_0_and_1(size):
        queue, network = make_network(size=size)
        network.attach_faults(FaultInjector(FaultSchedule(partitions=(
            PartitionFault(frozenset({0}), frozenset({1}), 0, 10),
        ))))
        return queue, network

    def test_unreachable_pair_blocked(self):
        queue, network = self.cut_between_0_and_1(size=2)
        arrived = []
        network.register(1, arrived.append)
        # like loss, the cut is invisible to the sender
        assert network.send(0, 1, datagram_of(10))
        queue.run()
        assert arrived == []
        assert network.dropped_by_cause == {"partition": 1}

    def test_open_pair_allowed(self):
        queue, network = self.cut_between_0_and_1(size=3)
        arrived = []
        network.register(2, arrived.append)
        assert network.send(0, 2, datagram_of(10))
        queue.run()
        assert len(arrived) == 1 and network.dropped_by_cause == {}


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
        registry = MetricsRegistry(enabled=True)
        with use_registry(registry):
            network = DatagramNetwork(
                EventQueue(),
                uniform_lan(4, one_way_ms=10.0),
                NetworkConfig(loss_rate=0.0, seed=1),
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
