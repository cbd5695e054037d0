"""Unit tests for subscription planning and proxy-side subscriber tables."""

import pytest

from repro.core.config import WatchmenConfig
from repro.core.subscriptions import SubscriberTable, SubscriptionPlanner
from repro.game.avatar import AvatarSnapshot
from repro.game.vector import Vec3


def snap(player_id, x=0.0, y=0.0, yaw=0.0, vx=0.0, frame=0):
    return AvatarSnapshot(
        player_id=player_id,
        frame=frame,
        position=Vec3(x, y, 0),
        velocity=Vec3(vx, 0, 0),
        yaw=yaw,
        health=100,
        armor=0,
        weapon="machinegun",
        ammo=100,
        alive=True,
    )


@pytest.fixture()
def planner(arena):
    return SubscriptionPlanner(0, arena, WatchmenConfig())


class TestPlanner:
    def test_first_plan_sends_everything_new(self, planner):
        known = {0: snap(0, y=-800.0), 1: snap(1, x=300, y=-800.0)}
        plan = planner.plan(0, known[0], known)
        assert plan.new_interest == plan.interest
        assert plan.new_vision == plan.vision

    def test_retention_suppresses_repeats(self, planner):
        known = {0: snap(0, y=-800.0), 1: snap(1, x=300, y=-800.0)}
        first = planner.plan(0, known[0], known)
        assert 1 in first.new_interest
        second = planner.plan(1, known[0], known)
        assert 1 in second.interest
        assert 1 not in second.new_interest  # already active, retained

    def test_resend_after_expiry(self, planner):
        known = {0: snap(0, y=-800.0), 1: snap(1, x=300, y=-800.0)}
        planner.plan(0, known[0], known)
        retention = planner.config.subscription_retention_frames
        late = planner.plan(retention + 1, known[0], known)
        assert 1 in late.new_interest

    def test_prediction_ahead_uses_velocity(self, arena):
        """A fast-moving player subscribes based on his *next* position."""
        config = WatchmenConfig(predict_ahead=True)
        planner = SubscriptionPlanner(0, arena, config)
        # The target sits just outside the vision radius; own velocity
        # carries the observer into range next frame.
        radius = config.interest.vision_radius
        me = snap(0, x=0.0, y=-800.0, vx=320.0)
        target = snap(1, x=radius + 10.0, y=-800.0)
        known = {0: me, 1: target}
        plan = planner.plan(0, me, known)
        assert 1 in plan.interest | plan.vision

    def test_no_prediction_when_disabled(self, arena):
        config = WatchmenConfig(predict_ahead=False)
        planner = SubscriptionPlanner(0, arena, config)
        radius = config.interest.vision_radius
        me = snap(0, x=0.0, y=-800.0, vx=320.0)
        target = snap(1, x=radius + 10.0, y=-800.0)
        plan = planner.plan(0, me, {0: me, 1: target})
        assert 1 not in plan.interest | plan.vision

    def test_active_sets_exposed(self, planner):
        known = {0: snap(0, y=-800.0), 1: snap(1, x=300, y=-800.0)}
        planner.plan(0, known[0], known)
        # close, dead ahead and alone: player 1 takes an interest slot
        assert planner.active_interest() == frozenset({1})


class TestSubscriberTable:
    def make(self, retention=40):
        return SubscriberTable(client_id=1, retention_frames=retention)

    def test_add_and_query(self):
        table = self.make()
        table.add_interest(2, frame=0)
        table.add_vision(3, frame=0)
        assert table.interest_subscribers(10) == frozenset({2})
        assert table.vision_subscribers(10) == frozenset({3})

    def test_self_subscription_rejected(self):
        table = self.make()
        with pytest.raises(ValueError):
            table.add_interest(1, 0)
        with pytest.raises(ValueError):
            table.add_vision(1, 0)

    def test_expiry(self):
        table = self.make(retention=10)
        table.add_interest(2, frame=0)
        assert table.interest_subscribers(9) == frozenset({2})
        assert table.interest_subscribers(10) == frozenset()

    def test_expire_removes_entries(self):
        table = self.make(retention=10)
        table.add_interest(2, frame=0)
        table.expire(frame=20)
        assert table.interest_subscribers(5) == frozenset()

    def test_renewal_extends(self):
        table = self.make(retention=10)
        table.add_interest(2, frame=0)
        table.add_interest(2, frame=8)
        assert table.interest_subscribers(15) == frozenset({2})

    def test_is_supersedes_vs(self):
        """IS members are removed from the VS — the stronger class wins."""
        table = self.make()
        table.add_vision(2, frame=0)
        table.add_interest(2, frame=0)
        assert 2 in table.interest_subscribers(1)
        assert 2 not in table.vision_subscribers(1)

    def test_vs_does_not_downgrade_is(self):
        table = self.make()
        table.add_interest(2, frame=0)
        table.add_vision(2, frame=1)
        assert 2 in table.interest_subscribers(2)
        assert 2 not in table.vision_subscribers(2)

    def test_export_import_roundtrip(self):
        """Handoff: the new proxy reconstructs the subscriber lists."""
        old = self.make()
        old.add_interest(2, frame=0)
        old.add_vision(3, frame=0)
        interest, vision = old.export_sets(frame=5)
        new = self.make()
        new.import_sets(interest, vision, frame=5)
        assert new.interest_subscribers(6) == frozenset({2})
        assert new.vision_subscribers(6) == frozenset({3})

    def test_import_drops_self(self):
        table = self.make()
        table.import_sets(frozenset({1, 2}), frozenset({1, 3}), frame=0)
        assert 1 not in table.interest_subscribers(1)
        assert 1 not in table.vision_subscribers(1)
