"""Unit tests for the discrete-event engine."""

import pytest

from repro.net.events import EventQueue, SimulationError


class TestScheduling:
    def test_events_run_in_time_order(self):
        queue = EventQueue()
        order = []
        queue.schedule(0.3, lambda: order.append("c"))
        queue.schedule(0.1, lambda: order.append("a"))
        queue.schedule(0.2, lambda: order.append("b"))
        queue.run()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_insertion(self):
        queue = EventQueue()
        order = []
        for tag in "abc":
            queue.schedule(0.5, lambda t=tag: order.append(t))
        queue.run()
        assert order == ["a", "b", "c"]

    def test_negative_delay_rejected(self):
        queue = EventQueue()
        with pytest.raises(SimulationError):
            queue.schedule(-0.1, lambda: None)

    def test_schedule_at_absolute_time(self):
        queue = EventQueue()
        seen = []
        queue.schedule_at(1.0, lambda: seen.append(queue.now))
        queue.run()
        assert seen == [1.0]

    def test_now_advances(self):
        queue = EventQueue()
        times = []
        queue.schedule(0.5, lambda: times.append(queue.now))
        queue.schedule(1.5, lambda: times.append(queue.now))
        queue.run()
        assert times == [0.5, 1.5]

    def test_nested_scheduling(self):
        queue = EventQueue()
        seen = []

        def outer():
            seen.append("outer")
            queue.schedule(0.1, lambda: seen.append("inner"))

        queue.schedule(0.0, outer)
        queue.run()
        assert seen == ["outer", "inner"]

    def test_nested_past_scheduling_rejected(self):
        queue = EventQueue()
        errors = []

        def bad():
            try:
                queue.schedule(-1.0, lambda: None)
            except SimulationError as exc:
                errors.append(exc)

        queue.schedule(1.0, bad)
        queue.run()
        assert errors


class TestRunUntil:
    def test_run_bounded(self):
        queue = EventQueue()

        def reschedule():
            queue.schedule(0.001, reschedule)

        queue.schedule(0.0, reschedule)
        with pytest.raises(SimulationError):
            queue.run(max_events=100)


class TestBookkeeping:
    def test_len_and_empty(self):
        queue = EventQueue()
        assert queue.empty
        queue.schedule(1.0, lambda: None)
        assert len(queue) == 1
        assert not queue.empty

    def test_processed_counter(self):
        queue = EventQueue()
        for _ in range(5):
            queue.schedule(0.1, lambda: None)
        queue.run()
        assert queue.processed == 5

    def test_step_returns_false_when_empty(self):
        assert EventQueue().step() is False
