"""McController unit tests: capture filter, decision loop, budgets."""

from __future__ import annotations

import pytest

from repro.core.wire import MESSAGE_TAGS
from repro.mc.controller import McController
from repro.mc.scenarios import McScenario
from repro.replay import TapeScenario

#: The controller reads nothing of a frame but its leading kind byte, so
#: one-byte frames of two real kinds stand in for whole messages.
PING_KIND, PONG_KIND = "AckMessage", "RemovalProposal"
PING = bytes((MESSAGE_TAGS[PING_KIND],))
PONG = bytes((MESSAGE_TAGS[PONG_KIND],))


class FakeQueue:
    now = 0.0


class FakeNetwork:
    """The slice of DatagramNetwork the controller touches."""

    def __init__(self):
        self.queue = FakeQueue()
        self.delivered: list[tuple[int, int, object]] = []
        self.drops = 0

    def deliver_captured(self, src, dst, frame, sent_at):
        self.delivered.append((src, dst, frame))

    def drop_captured(self):
        self.drops += 1


def controller(**kwargs) -> tuple[McController, FakeNetwork]:
    defaults = dict(controlled=(PING_KIND,), window=(0, 100))
    defaults.update(kwargs)
    ctl = McController(**defaults)
    net = FakeNetwork()
    ctl._network = net
    return ctl, net


class TestIntercept:
    def test_captures_controlled_type_inside_window(self):
        ctl, _ = controller(window=(5, 10))
        ctl.begin_frame(5)
        assert ctl.intercept(0, 1, PING)
        assert ctl.captured == 1
        assert ctl.meta[0] == (0, 1, PING_KIND)

    def test_outside_window(self):
        ctl, _ = controller(window=(5, 10))
        ctl.begin_frame(4)
        assert not ctl.intercept(0, 1, PING)
        ctl.begin_frame(10)  # window end is exclusive
        assert not ctl.intercept(0, 1, PING)
        assert ctl.captured == 0

    def test_uncontrolled_type(self):
        ctl, _ = controller()
        ctl.begin_frame(0)
        assert not ctl.intercept(0, 1, PONG)

    def test_controlled_src_filter(self):
        ctl, _ = controller(controlled_src=(0, 1))
        ctl.begin_frame(0)
        assert not ctl.intercept(3, 1, PING)
        assert ctl.intercept(0, 1, PING)

    def test_without_network_nothing_is_captured(self):
        ctl = McController(controlled=(PING_KIND,), window=(0, 100))
        assert not ctl.intercept(0, 1, PING)

    def test_empty_window_is_rejected(self):
        with pytest.raises(ValueError):
            McController(controlled=("Ping",), window=(10, 10))


class TestDecisionLoop:
    def test_capture_is_released_on_the_next_frame(self):
        ctl, net = controller()
        ctl.begin_frame(3)
        ctl.intercept(0, 1, PING)
        assert net.delivered == []  # not ready within the sending frame
        ctl.begin_frame(4)
        assert [d[:2] for d in net.delivered] == [(0, 1)]
        assert ctl.choices() == (("deliver", 0),)

    def test_default_policy_delivers_in_canonical_order(self):
        ctl, net = controller()
        ctl.begin_frame(0)
        ctl.intercept(2, 1, PING)  # capture 0
        ctl.intercept(0, 1, PING)  # capture 1, lower src
        ctl.begin_frame(1)
        # canonical key orders by (ready_at, src, dst, type, id)
        assert [d[0] for d in net.delivered] == [0, 2]
        assert ctl.choices() == (("deliver", 1), ("deliver", 0))

    def test_head_only_fault_actions(self):
        ctl, _ = controller(drop_budget=1, dup_budget=1, defer_limit=1)
        ctl.begin_frame(0)
        ctl.intercept(0, 9, PING)
        ctl.intercept(1, 9, PING)
        ctl.intercept(2, 9, PING)
        ctl.begin_frame(1)
        first = ctl.decisions[0].enabled
        # delivery of every ready message, faults only for the head (id 0)
        assert first == (
            ("deliver", 0),
            ("deliver", 1),
            ("deliver", 2),
            ("defer", 0),
            ("drop", 0),
            ("dup", 0),
        )
        second = ctl.decisions[1].enabled
        assert second == (
            ("deliver", 1),
            ("deliver", 2),
            ("defer", 1),
            ("drop", 1),
            ("dup", 1),
        )

    def test_scripted_reorder(self):
        ctl, net = controller(schedule=(("deliver", 1),))
        ctl.begin_frame(0)
        ctl.intercept(0, 9, PING)
        ctl.intercept(1, 9, PING)
        ctl.begin_frame(1)
        assert [d[0] for d in net.delivered] == [1, 0]
        assert ctl.fallbacks == 0

    def test_unenabled_scripted_action_falls_back_and_counts(self):
        ctl, net = controller(schedule=(("deliver", 99),))
        ctl.begin_frame(0)
        ctl.intercept(0, 9, PING)
        ctl.begin_frame(1)
        assert ctl.fallbacks == 1
        assert [d[0] for d in net.delivered] == [0]  # default policy applied


class TestFaultBudgets:
    def test_drop(self):
        ctl, net = controller(drop_budget=1, schedule=(("drop", 0),))
        ctl.begin_frame(0)
        ctl.intercept(0, 9, PING)
        ctl.intercept(1, 9, PING)
        ctl.begin_frame(1)
        assert net.drops == 1
        assert ctl.dropped == 1
        assert [d[0] for d in net.delivered] == [1]
        # budget exhausted: the second decision offered no drop
        assert ("drop", 1) not in ctl.decisions[1].enabled

    def test_dup_delivers_and_requeues_a_copy(self):
        ctl, net = controller(dup_budget=1, schedule=(("dup", 0),))
        ctl.begin_frame(0)
        ctl.intercept(0, 9, PING)
        ctl.begin_frame(1)
        # original delivered by the dup, the copy by the next decision
        assert [d[0] for d in net.delivered] == [0, 0]
        assert ctl.duplicated == 1
        assert ctl.delivered == 2
        assert ctl.meta[1] == (0, 9, PING_KIND)

    def test_defer_pushes_to_the_next_frame(self):
        ctl, net = controller(defer_limit=1, schedule=(("defer", 0),))
        ctl.begin_frame(0)
        ctl.intercept(0, 9, PING)
        ctl.begin_frame(1)
        assert net.delivered == []
        assert ctl.deferred == 1
        ctl.begin_frame(2)
        assert [d[0] for d in net.delivered] == [0]
        # per-message limit reached: no second defer was offered
        assert ctl.decisions[1].enabled == (("deliver", 0),)

    def test_defer_budget_caps_total_defers_across_messages(self):
        ctl, _ = controller(
            defer_limit=1, defer_budget=1, schedule=(("defer", 0),)
        )
        ctl.begin_frame(0)
        ctl.intercept(0, 9, PING)
        ctl.intercept(1, 9, PING)
        ctl.begin_frame(1)
        # capture 1 still had its per-message allowance, but the global
        # budget was spent on capture 0
        assert ctl.deferred == 1
        later = [a for d in ctl.decisions[1:] for a in d.enabled]
        assert ("defer", 1) not in later

    def test_stats_shape(self):
        ctl, _ = controller()
        ctl.begin_frame(0)
        ctl.intercept(0, 9, PING)
        ctl.begin_frame(1)
        assert ctl.stats() == {
            "captured": 1,
            "delivered": 1,
            "dropped": 0,
            "duplicated": 0,
            "deferred": 0,
            "decisions": 1,
            "fallbacks": 0,
        }


class TestSerialisation:
    """``from_json`` reads the ``mc`` envelope ``McScenario.mc_json`` writes
    into a tape scenario."""

    def test_params_round_trip(self):
        scenario = McScenario(
            name="t", description="", base=TapeScenario(players=4, frames=20, seed=1),
            invariants=(),
            controlled=("Ping", "Pong"),
            window=(1, 5),
            drop_budget=1,
            dup_budget=2,
            defer_limit=3,
            defer_budget=4,
            controlled_src=(2, 0),
        )
        row = scenario.mc_json(schedule=(("deliver", 1), ("defer", 0)))
        rebuilt = McController.from_json(row)
        assert rebuilt.controlled == frozenset({"Ping", "Pong"})
        assert rebuilt.window == (1, 5)
        assert (rebuilt.drop_budget, rebuilt.dup_budget, rebuilt.defer_limit) == (1, 2, 3)
        assert rebuilt.controlled_src == frozenset({0, 2})
        assert rebuilt.defer_budget == 4
        assert rebuilt.schedule == (("deliver", 1), ("defer", 0))

    def test_defaults_round_trip(self):
        rebuilt = McController.from_json({"controlled": ["Ping"], "window": [0, 10]})
        assert rebuilt.controlled_src is None
        assert rebuilt.defer_budget is None
        assert rebuilt.schedule == ()
