"""Unit tests for the unreliable datagram transport."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import (
    DuplicateFault,
    FaultInjector,
    FaultSchedule,
    LatencySpikeFault,
    PartitionFault,
)
from repro.net.events import EventQueue
from repro.net.latency import uniform_lan
from repro.net.transport import DatagramNetwork, NetworkConfig, ScheduleController
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
        network.register(1, lambda src, frame: inbox.append((src, frame, queue.now)))
        network.send(0, 1, b"hello")
        queue.run()
        assert inbox == [(0, b"hello", pytest.approx(0.010))]
        assert network.meter.usage(1).received_bytes == 5

    def test_unregistered_destination_dropped_silently(self):
        queue, network = make_network()
        assert network.send(0, 3, datagram_of(10))
        queue.run()
        assert network.delivered == 0

    def test_a_self_send_is_an_ordinary_destination(self):
        """No link is exempt: a node addressing itself gets the matrix's
        zero delay and the same loss draw as any other destination."""
        queue, network = make_network(loss=0.5)
        inbox = []
        network.register(0, lambda src, frame: inbox.append(queue.now))
        for _ in range(50):
            network.send(0, 0, b"self")
        queue.run()
        assert 0 < len(inbox) < 50
        assert network.lost == 50 - len(inbox)
        assert set(inbox) == {0.0}

    def test_invalid_node_registration_rejected(self):
        _, network = make_network(size=3)
        with pytest.raises(ValueError):
            network.register(99, lambda src, frame: None)

    def test_invalid_size_rejected(self):
        _, network = make_network()
        with pytest.raises(ValueError):
            network.send(0, 1, b"")

    def test_unregister_stops_delivery(self):
        queue, network = make_network()
        inbox = []
        network.register(1, lambda src, frame: inbox.append(frame))
        network.unregister(1)
        network.send(0, 1, datagram_of(10))
        queue.run()
        assert inbox == []


class TestLoss:
    def test_configured_loss_rate_observed(self):
        queue, network = make_network(loss=0.2)
        network.register(1, lambda src, frame: None)
        for _ in range(3000):
            network.send(0, 1, datagram_of(10))
        queue.run()
        assert network.lost / network.sent == pytest.approx(0.2, abs=0.03)
        assert network.delivered == network.sent - network.lost

    def test_zero_loss(self):
        queue, network = make_network(loss=0.0)
        network.register(1, lambda src, frame: None)
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
        network.register(1, lambda src, frame: times.append(queue.now))
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
        network.register(1, lambda src, frame: arrived.append(frame))
        # like loss, the cut is invisible to the sender
        assert network.send(0, 1, datagram_of(10))
        queue.run()
        assert arrived == []
        assert network.dropped_by_cause == {"partition": 1}

    def test_open_pair_allowed(self):
        queue, network = self.cut_between_0_and_1(size=3)
        arrived = []
        network.register(2, lambda src, frame: arrived.append(frame))
        assert network.send(0, 2, datagram_of(10))
        queue.run()
        assert len(arrived) == 1 and network.dropped_by_cause == {}


class TestMetering:
    def test_bandwidth_recorded(self):
        queue, network = make_network()
        network.register(1, lambda src, frame: None)
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


# -- fan-out is one operation ---------------------------------------------------

SIZE = 6


class CaptureEveryThird(ScheduleController):
    """Relinquishes nothing it did not count: every third offered datagram."""

    def __init__(self):
        self.offered = 0
        self.captured = []

    def intercept(self, src, dst, frame):
        self.offered += 1
        if self.offered % 3 == 0:
            self.captured.append((src, dst, frame))
            return True
        return False


def _plain(network):
    return None


def _faulted(network):
    injector = FaultInjector(FaultSchedule(
        partitions=(PartitionFault(frozenset({0}), frozenset({1, 2}), 0, 10),),
        latency_spikes=(LatencySpikeFault(3, 4, 0, 10, extra_ms=40.0),),
        duplications=(DuplicateFault(rate=0.5, start_frame=0, end_frame=10),),
        seed=5,
    ))
    injector.begin_frame(3)
    network.attach_faults(injector)
    return injector.rng


def _controlled(network):
    network.attach_controller(CaptureEveryThird())
    return None


HOOKS = {"none": _plain, "faults": _faulted, "controller": _controlled}

sends = st.lists(
    st.tuples(
        st.integers(0, SIZE - 1),  # src
        st.lists(st.integers(0, SIZE - 1), max_size=8),  # empty, src in it, repeats
        st.sampled_from([b"\x01" + bytes(9), b"\x02abc", b"\x7f"]),  # 0x7f: no kind
    ),
    max_size=12,
)


def _observed(hooks, loss_model, operations, batched):
    """Everything a send leaves behind, after ``operations`` went out through
    ``send_many`` (``batched``) or one ``send`` per destination."""
    queue = EventQueue()
    network = DatagramNetwork(
        queue,
        uniform_lan(SIZE, one_way_ms=10.0),
        NetworkConfig(loss_rate=0.2, jitter_ms=3.0, seed=9, loss_model=loss_model),
        kinds={1: "StateUpdate", 2: "AckMessage"},
    )
    fault_rng = HOOKS[hooks](network)
    taps, arrivals = [], []
    network.send_taps.append(lambda *row: taps.append(row))
    for node in range(SIZE - 1):  # the last node never registered
        network.register(
            node, lambda src, frame, n=node: arrivals.append((queue.now, src, n, frame))
        )
    for src, dsts, frame in operations:
        if batched:
            network.send_many(src, dsts, frame)
        else:
            for dst in dsts:
                assert network.send(src, dst, frame) is True
    controller = network.controller
    after_sends = (
        network.rng.getstate(),
        fault_rng and fault_rng.getstate(),
        sorted((time, sequence) for time, sequence, _ in queue._heap),
        (network.sent, network.lost, network.duplicated, network.dropped_by_cause),
        {node: vars(usage) for node, usage in network.meter._usage.items()},
        taps,
        controller and (controller.offered, controller.captured),
    )
    queue.run()
    return after_sends, arrivals, network.delivered


class TestSendMany:
    """``send_many(src, dsts, f)`` is ``for d in dsts: send(src, d, f)``."""

    @pytest.mark.parametrize("loss_model", ["iid", "gilbert-elliott"])
    @pytest.mark.parametrize("hooks", sorted(HOOKS))
    @settings(max_examples=40, deadline=None)
    @given(operations=sends)
    def test_equals_a_loop_of_single_sends(self, hooks, loss_model, operations):
        assert _observed(hooks, loss_model, operations, batched=True) == _observed(
            hooks, loss_model, operations, batched=False
        )

    def test_the_per_frame_books_count_every_copy(self):
        registry = MetricsRegistry(enabled=True)
        with use_registry(registry):
            network = DatagramNetwork(
                EventQueue(),
                uniform_lan(4, one_way_ms=10.0),
                NetworkConfig(loss_rate=0.0, seed=1),
                kinds={1: "StateUpdate"},
            )
        network.send_many(0, [1, 2, 3, 1], b"\x01" + bytes(9))
        network.send_many(0, [], b"\x01" + bytes(9))
        counters = registry.snapshot()["counters"]
        assert counters["net.datagrams.sent"] == network.sent == 4
        assert counters["net.bytes.sent"] == counters["net.sent.StateUpdate.bytes"] == 40
        assert counters["net.sent.StateUpdate.count"] == 4
        usage = network.meter.usage(0)
        assert (usage.sent_messages, usage.sent_bytes) == (4, 40)

    def test_an_empty_frame_is_refused_before_anything_is_booked(self):
        _, network = make_network()
        with pytest.raises(ValueError):
            network.send_many(0, [1, 2], b"")
        assert network.sent == 0 and network.meter._usage == {}
