"""Property-based tests for membership, admission and delta coding."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import WatchmenConfig, feasibility_test
from repro.core.membership import MembershipView
from repro.core.messages import StateUpdate
from repro.game.avatar import AvatarSnapshot, snapshot_delta_fields
from repro.game.vector import Vec3
from tests.wirekit import as_frame


def snap(player_id=1, frame=0, x=0.0, health=100):
    return AvatarSnapshot(
        player_id=player_id,
        frame=frame,
        position=Vec3(x, 0, 0),
        velocity=Vec3(),
        yaw=0.0,
        health=health,
        armor=0,
        weapon="machinegun",
        ammo=9,
        alive=True,
    )


class TestMembershipProperties:
    @given(
        st.integers(min_value=3, max_value=20),
        st.sets(st.integers(min_value=0, max_value=19), max_size=20),
    )
    @settings(max_examples=60)
    def test_quorum_always_majority(self, size, proposers):
        view = MembershipView(list(range(size)))
        subject = size - 1
        # Frame past the silence threshold so the local view corroborates.
        for proposer in proposers:
            if proposer < size:
                view.record_proposal(proposer, subject, 100, 0)
        valid_proposers = {p for p in proposers if p < size and True}
        scheduled = subject in view._scheduled_removals
        assert scheduled == (
            len(valid_proposers) >= size // 2 + 1
        )

    @given(st.integers(min_value=3, max_value=15),
           st.integers(min_value=0, max_value=10))
    @settings(max_examples=40)
    def test_removals_never_before_due_epoch(self, size, epoch):
        view = MembershipView(list(range(size)))
        subject = size - 1
        for proposer in range(size // 2 + 1):
            view.record_proposal(proposer, subject, 100, epoch)
        due = view._scheduled_removals[subject]
        assert due > epoch
        assert view.apply_removals(due - 1) == set()
        assert view.apply_removals(due) == {subject}


class TestAdmissionProperties:
    @given(
        st.dictionaries(
            st.integers(min_value=0, max_value=30),
            st.floats(min_value=0.0, max_value=50_000.0, allow_nan=False),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=60)
    def test_partition_is_clean(self, capacities):
        decision = feasibility_test(capacities)
        assert set(decision.admitted) | set(decision.rejected) == set(capacities)
        assert not set(decision.admitted) & set(decision.rejected)
        assert set(decision.proxy_pool) <= set(decision.admitted)
        for weight in decision.pool_weights.values():
            assert 1 <= weight <= 4

    @given(
        st.dictionaries(
            st.integers(min_value=0, max_value=30),
            st.floats(min_value=100.0, max_value=50_000.0, allow_nan=False),
            min_size=2,
            max_size=20,
        )
    )
    @settings(max_examples=40)
    def test_more_capacity_never_less_weight(self, capacities):
        decision = feasibility_test(capacities)
        pooled = sorted(decision.proxy_pool, key=lambda p: capacities[p])
        for weaker, stronger in zip(pooled, pooled[1:]):
            assert (
                decision.pool_weights[weaker]
                <= decision.pool_weights[stronger]
            )


class TestDeltaCodingProperties:
    @given(
        st.floats(min_value=-100, max_value=100, allow_nan=False),
        st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=60)
    def test_delta_costs_at_most_its_field_codes(self, x, health):
        # every update ships the whole snapshot (a standalone-verifiable
        # heartbeat); the delta annotation adds one table code per field
        old = snap(frame=0)
        new = snap(frame=1, x=x, health=health)
        fields = tuple(snapshot_delta_fields(old, new)) or ("yaw",)
        keyframe = StateUpdate(1, 1, 1, new)
        delta = StateUpdate(1, 1, 1, new, delta_fields=fields)
        assert len(as_frame(delta)) <= len(as_frame(keyframe)) + len(fields) + 1

    @given(st.floats(min_value=-1e5, max_value=1e5, allow_nan=False))
    @settings(max_examples=40)
    def test_delta_fields_sound(self, x):
        old = snap(frame=0, x=0.0)
        new = snap(frame=1, x=x)
        fields = snapshot_delta_fields(old, new)
        if x != 0.0:
            assert "position" in fields
        else:
            assert "position" not in fields
