"""Exactness gates for the batched frame kernels.

Every fast path introduced for paper-scale throughput — the physics batch
step, batched attention scoring, and the bot perception loop — retains its naive implementation verbatim
(``tests/reference/game.py``), and the
properties here assert the two produce *bit-identical* results (floats
compared by their IEEE-754 bit patterns, not tolerances).  This is the
same playbook the interest-management fast path uses
(tests/test_game_interest_fast.py): an optimisation that changes a single
bit anywhere changes traces, tapes and signatures, so nothing less than
bit equality is acceptable.
"""

from __future__ import annotations

import math
import struct
from dataclasses import replace
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.game.avatar import AvatarSnapshot
from repro.game.bots import BotController
from repro.game.gamemap import make_corridors, make_longest_yard
from repro.game.interest import (
    InteractionRecency,
    InterestConfig,
    ObserverFrame,
)
from repro.game.physics import MoveIntent, Physics
from repro.game.simulator import generate_trace
from repro.game.vector import Vec3

from tests.arena import make_arena
from tests.reference.game import (
    _attention_score_reference,
    _in_vision_cone_reference,
    _visible_enemies_reference,
)

MAPS = {
    "longest-yard": make_longest_yard(),
    "arena": make_arena(),
    "corridors": make_corridors(),
}


def bits(value: float) -> bytes:
    """The IEEE-754 bit pattern — the equality the exactness gate demands."""
    return struct.pack(">d", value)


def assert_results_bit_identical(expected, actual) -> None:
    assert bits(actual.position.x) == bits(expected.position.x)
    assert bits(actual.position.y) == bits(expected.position.y)
    assert bits(actual.position.z) == bits(expected.position.z)
    assert bits(actual.velocity.x) == bits(expected.velocity.x)
    assert bits(actual.velocity.y) == bits(expected.velocity.y)
    assert bits(actual.velocity.z) == bits(expected.velocity.z)
    assert bits(actual.yaw) == bits(expected.yaw)
    assert actual.on_ground == expected.on_ground
    assert actual.fall_damage == expected.fall_damage
    assert actual.fell_in_void == expected.fell_in_void


finite = st.floats(allow_nan=False, allow_infinity=False, width=32)
coords = st.floats(-2400.0, 2400.0)
speeds = st.floats(-1000.0, 1000.0)
yaws = st.floats(-8.0, 8.0)


def vec(strategy):
    return st.builds(Vec3, strategy, strategy, strategy)


_states = st.tuples(
    vec(coords),
    vec(speeds),
    yaws,
    st.builds(
        MoveIntent,
        wish_direction=vec(st.floats(-1.0, 1.0)),
        wish_speed=st.floats(-20.0, 500.0),
        jump=st.booleans(),
        yaw=yaws,
    ),
)


class TestPhysicsBatch:
    @pytest.mark.parametrize("map_name", sorted(MAPS))
    @given(states=st.lists(_states, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_step_many_matches_step_bitwise(self, map_name, states):
        physics = Physics(MAPS[map_name])
        batched = physics.step_many(states)
        assert len(batched) == len(states)
        for args, fast in zip(states, batched):
            assert_results_bit_identical(physics.step(*args), fast)

    @pytest.mark.parametrize("map_name", sorted(MAPS))
    def test_step_many_near_floors_and_walls(self, map_name):
        """Deterministic sweep biased to land on platform edges, where the
        wall-block and landing branches actually fire."""
        game_map = MAPS[map_name]
        physics = Physics(game_map)
        rng = Random(map_name)
        states = []
        anchors = [box.center for box in game_map.solids] or [Vec3()]
        for index in range(600):
            anchor = anchors[index % len(anchors)]
            position = Vec3(
                anchor.x + rng.uniform(-300.0, 300.0),
                anchor.y + rng.uniform(-300.0, 300.0),
                anchor.z + rng.uniform(-80.0, 200.0),
            )
            velocity = Vec3(
                rng.uniform(-400.0, 400.0),
                rng.uniform(-400.0, 400.0),
                rng.uniform(-900.0, 300.0),
            )
            intent = MoveIntent(
                wish_direction=Vec3(rng.uniform(-1, 1), rng.uniform(-1, 1), 0.0),
                wish_speed=rng.uniform(0.0, 400.0),
                jump=rng.random() < 0.3,
                yaw=rng.uniform(-math.pi, math.pi),
            )
            states.append((position, velocity, rng.uniform(-math.pi, math.pi), intent))
        for args, fast in zip(states, physics.step_many(states)):
            assert_results_bit_identical(physics.step(*args), fast)

    def test_step_many_empty_batch(self):
        assert Physics(MAPS["arena"]).step_many([]) == []

    @pytest.mark.parametrize("map_name", sorted(MAPS))
    @given(x=coords, y=coords)
    @settings(max_examples=100, deadline=None)
    def test_floor_height_xy_matches_floor_height(self, map_name, x, y):
        game_map = MAPS[map_name]
        assert game_map.floor_height_xy(x, y) == game_map.floor_height(
            Vec3(x, y, 0.0)
        )


def _roster(seed: int, count: int) -> dict[int, AvatarSnapshot]:
    rng = Random(seed)
    return {
        pid: AvatarSnapshot(
            player_id=pid,
            frame=0,
            position=Vec3(
                rng.uniform(-2000.0, 2000.0),
                rng.uniform(-2000.0, 2000.0),
                rng.uniform(0.0, 300.0),
            ),
            velocity=Vec3(),
            yaw=rng.uniform(-math.pi, math.pi),
            health=100,
            armor=0,
            weapon="machinegun",
            ammo=10,
            alive=rng.random() > 0.1,
        )
        for pid in range(count)
    }


class TestAttentionBatch:
    @given(seed=st.integers(0, 10_000), count=st.integers(2, 24))
    @settings(max_examples=60, deadline=None)
    def test_attention_scores_match_scalar_paths_bitwise(self, seed, count):
        roster = _roster(seed, count)
        config = InterestConfig()
        recency = InteractionRecency()
        rng = Random(seed + 1)
        for _ in range(count):
            a, b = rng.randrange(count), rng.randrange(count)
            if a != b:
                recency.record(a, b, rng.randrange(50))
        observer = roster[0]
        oframe = ObserverFrame(observer, config)
        candidates = [pid for pid in roster if pid != 0]
        batched = oframe.attention_scores(roster, candidates, 50, recency)
        assert set(batched) == set(candidates)
        for pid in candidates:
            scalar = oframe.attention_score(roster[pid], 50, recency)
            reference = _attention_score_reference(
                observer, roster[pid], 50, config, recency
            )
            assert bits(batched[pid]) == bits(scalar)
            assert bits(batched[pid]) == bits(reference)

    def test_attention_scores_without_recency(self):
        roster = _roster(3, 8)
        oframe = ObserverFrame(roster[0], InterestConfig())
        candidates = [pid for pid in roster if pid != 0]
        batched = oframe.attention_scores(roster, candidates, 0, None)
        for pid in candidates:
            assert bits(batched[pid]) == bits(
                oframe.attention_score(roster[pid], 0, None)
            )


def _rank_reference(
    roster: dict[int, AvatarSnapshot], target_id: int, config: InterestConfig
) -> int:
    """1 + the live in-cone avatars out-scoring the target, candidate by
    candidate through the reference cone test and score (observer 0)."""
    observer = roster[0]
    target_score = _attention_score_reference(observer, roster[target_id], 0, config)
    return 1 + sum(
        1
        for pid, other in roster.items()
        if pid not in (0, target_id)
        and other.alive
        and _in_vision_cone_reference(observer, other, config)
        and _attention_score_reference(observer, other, 0, config) > target_score
    )


class TestAttentionRank:
    @given(seed=st.integers(0, 10_000), count=st.integers(2, 40))
    @settings(max_examples=60, deadline=None)
    def test_rank_matches_per_candidate_reference(self, seed, count):
        roster = _roster(seed, count)
        # a few avatars stacked on the observer: the distance == 0.0 arm
        for pid in range(2, count, 9):
            roster[pid] = replace(roster[pid], position=roster[0].position)
        config = InterestConfig()
        oframe = ObserverFrame(roster[0], config)
        for target_id in range(1, count):
            rank = _rank_reference(roster, target_id, config)
            assert oframe.attention_rank(roster[target_id], roster) == rank

    @staticmethod
    def boundary_roster(
        z: int, d: float, off_x: int, off_y: int, seed: int
    ) -> dict[int, AvatarSnapshot]:
        """Observer 0 at ``(0, 0, z)`` aiming down +x (aim exactly (1, 0, 0)),
        target 1 on that axis at distance ``d`` — its aim term is exactly
        1.0, so its score is ``proximity(d) + 1.0`` — and candidates built
        on the score's bound: at distance ``d`` off the axis (``proximity +
        1.0`` equals the target's score), one ulp nearer and farther on the
        axis, stacked on the target and mirrored across the axis (equal
        scores), then a NaN pose, a dead one and random others."""
        rng = Random(seed)

        def at(pid: int, x: float, y: float, dz: float = 0.0, alive: bool = True):
            return AvatarSnapshot(
                player_id=pid, frame=0, position=Vec3(x, y, z + dz), velocity=Vec3(),
                yaw=0.0, health=100, armor=0, weapon="machinegun", ammo=10, alive=alive,
            )

        nan = float("nan")
        placed = [
            at(0, 0.0, 0.0),
            at(1, d, 0.0),
            at(2, 0.0, d), at(3, 0.0, -d), at(4, -d, 0.0), at(5, 0.0, 0.0, d),
            at(6, math.nextafter(d, 0.0), 0.0), at(7, math.nextafter(d, math.inf), 0.0),
            at(8, d, 0.0),  # stacked on the target
            at(9, off_x, off_y), at(10, off_x, -off_y),  # mirror images
            at(11, nan, 0.0), at(12, d / 2, 0.0, alive=False),
        ]
        placed += [
            at(pid, rng.uniform(-2600, 2600), rng.uniform(-2600, 2600), rng.uniform(-50, 50))
            for pid in range(13, 13 + rng.randrange(12))
        ]
        return {snapshot.player_id: snapshot for snapshot in placed}

    @given(
        z=st.integers(-200, 400),
        d=st.one_of(st.integers(1, 2499).map(float), st.floats(0.5, 2499.0)),
        off_x=st.integers(-2400, 2400),
        off_y=st.integers(1, 2400),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=120, deadline=None)
    def test_rank_matches_reference_on_the_score_bound(self, z, d, off_x, off_y, seed):
        """Candidates whose ``proximity + 1.0`` equals the target's score
        exactly, and candidates tied with a target, rank as the reference
        ranks them, whichever avatar is the target."""
        roster = self.boundary_roster(z, d, off_x, off_y, seed)
        config = InterestConfig()
        observer, target = roster[0], roster[1]
        # the construction sits on the bound: the target's score is
        # proximity(d) + 1.0, and so is each off-axis candidate's bound
        threshold = _attention_score_reference(observer, target, 0, config)
        for pid in (1, 2, 3, 4):
            distance = (roster[pid].position - observer.position).length()
            assert 1.0 / (1.0 + distance / config.proximity_scale) + 1.0 == threshold
        oframe = ObserverFrame(observer, config)
        for target_id in roster:
            if target_id != 0:
                assert oframe.attention_rank(roster[target_id], roster) == (
                    _rank_reference(roster, target_id, config)
                )


class TestBotPerception:
    @given(seed=st.integers(0, 10_000), count=st.integers(2, 20))
    @settings(max_examples=40, deadline=None)
    def test_visible_enemies_matches_reference(self, seed, count):
        game_map = MAPS["longest-yard"]
        roster = _roster(seed, count)
        controller = BotController(0, game_map, Random(seed))
        fast = controller._visible_enemies(roster[0], roster)
        reference = _visible_enemies_reference(controller, roster[0], roster)
        assert [s.player_id for s in fast] == [s.player_id for s in reference]
        assert fast == reference


class TestSimulatorBatching:
    def test_trace_unchanged_by_batched_kinematics(self, monkeypatch):
        """Replacing the batch kernel with a scalar step loop must produce
        the byte-identical trace — the simulator-level exactness gate."""
        batched = generate_trace(num_players=6, num_frames=50, seed=13)

        def scalar_loop(self, batch):
            return [self.step(*args) for args in batch]

        monkeypatch.setattr(Physics, "step_many", scalar_loop)
        looped = generate_trace(num_players=6, num_frames=50, seed=13)
        assert list(batched.to_json_rows()) == list(looped.to_json_rows())
