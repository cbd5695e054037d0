"""Unit tests for interest management (IS/VS/Others)."""

import math

import pytest

from repro.game.avatar import AvatarSnapshot
from repro.game.gamemap import make_longest_yard
from repro.game.interest import (
    InteractionRecency,
    InterestConfig,
    attention_score,
    compute_sets,
    in_vision_cone,
)
from repro.game.vector import Vec3

from tests.arena import make_arena


def snap(player_id, x=0.0, y=0.0, z=0.0, yaw=0.0, alive=True, frame=0):
    return AvatarSnapshot(
        player_id=player_id,
        frame=frame,
        position=Vec3(x, y, z),
        velocity=Vec3(),
        yaw=yaw,
        health=100,
        armor=0,
        weapon="machinegun",
        ammo=100,
        alive=alive,
    )


class TestConfig:
    def test_negative_interest_size_rejected(self):
        with pytest.raises(ValueError):
            InterestConfig(interest_size=-1)

    def test_bad_angle_rejected(self):
        with pytest.raises(ValueError):
            InterestConfig(vision_half_angle=0.0)

    def test_effective_half_angle_includes_slack(self):
        config = InterestConfig()
        assert config.effective_half_angle > config.vision_half_angle

    def test_effective_half_angle_capped_at_pi(self):
        config = InterestConfig(
            vision_half_angle=math.pi, vision_slack=math.pi
        )
        assert config.effective_half_angle == math.pi


class TestVisionCone:
    def setup_method(self):
        self.config = InterestConfig()

    def test_target_dead_ahead(self):
        assert in_vision_cone(snap(0, yaw=0.0), snap(1, x=500), self.config)

    def test_target_behind(self):
        assert not in_vision_cone(snap(0, yaw=0.0), snap(1, x=-500), self.config)

    def test_target_beyond_radius(self):
        far = self.config.vision_radius + 100
        assert not in_vision_cone(snap(0), snap(1, x=far), self.config)

    def test_slack_enlarges_cone(self):
        # Place the target just past the raw half-angle but inside slack.
        angle = self.config.vision_half_angle + self.config.vision_slack / 2
        target = snap(1, x=500 * math.cos(angle), y=500 * math.sin(angle))
        assert in_vision_cone(snap(0), target, self.config, slack=True)
        assert not in_vision_cone(snap(0), target, self.config, slack=False)

    def test_same_position_not_visible(self):
        assert not in_vision_cone(snap(0), snap(1), self.config)


class TestAttention:
    def setup_method(self):
        self.config = InterestConfig()

    def test_closer_is_more_interesting(self):
        me = snap(0)
        assert attention_score(me, snap(1, x=100), 0, self.config) > attention_score(
            me, snap(2, x=1000), 0, self.config
        )

    def test_aimed_at_is_more_interesting(self):
        me = snap(0, yaw=0.0)
        ahead = snap(1, x=500)
        side = snap(2, y=500)
        assert attention_score(me, ahead, 0, self.config) > attention_score(
            me, side, 0, self.config
        )

    def test_recent_interaction_boosts(self):
        me = snap(0)
        target = snap(1, x=500)
        recency = InteractionRecency()
        base = attention_score(me, target, 100, self.config, recency)
        recency.record(0, 1, 99)
        boosted = attention_score(me, target, 100, self.config, recency)
        assert boosted > base

    def test_recency_decays(self):
        recency = InteractionRecency()
        recency.record(0, 1, 0)
        early = recency.score(0, 1, 10, halflife=60)
        late = recency.score(0, 1, 300, halflife=60)
        assert early > late > 0.0

    def test_recency_symmetric_pairs(self):
        recency = InteractionRecency()
        recency.record(5, 2, 10)
        assert recency.frames_since(2, 5, 15) == 5

    def test_recency_unknown_pair(self):
        recency = InteractionRecency()
        assert recency.frames_since(0, 1, 10) is None
        assert recency.score(0, 1, 10, 60) == 0.0


class TestComputeSets:
    def setup_method(self):
        self.arena = make_arena()
        self.config = InterestConfig(interest_size=2)

    def test_partition_is_complete_and_disjoint(self):
        everyone = {i: snap(i, x=i * 100.0) for i in range(8)}
        sets = compute_sets(everyone[0], everyone, self.arena, 0, self.config)
        union = sets.interest | sets.vision | sets.others
        assert union == set(range(1, 8))
        assert not (sets.interest & sets.vision)
        assert not (sets.interest & sets.others)
        assert not (sets.vision & sets.others)

    def test_interest_size_respected(self):
        everyone = {i: snap(i, x=100.0 + i * 50.0) for i in range(10)}
        everyone[0] = snap(0)
        sets = compute_sets(everyone[0], everyone, self.arena, 0, self.config)
        assert len(sets.interest) <= 2

    def test_top_attention_in_interest(self):
        everyone = {
            0: snap(0, yaw=0.0),
            1: snap(1, x=150),  # closest, dead ahead
            2: snap(2, x=900),
            3: snap(3, x=1500),
        }
        sets = compute_sets(everyone[0], everyone, self.arena, 0, self.config)
        assert 1 in sets.interest

    def test_player_behind_is_other(self):
        everyone = {0: snap(0, yaw=0.0), 1: snap(1, x=-500)}
        sets = compute_sets(everyone[0], everyone, self.arena, 0, self.config)
        assert 1 in sets.others

    def test_dead_player_is_other(self):
        everyone = {0: snap(0), 1: snap(1, x=300, alive=False)}
        sets = compute_sets(everyone[0], everyone, self.arena, 0, self.config)
        assert 1 in sets.others

    def test_occluded_player_is_other(self):
        yard = make_longest_yard()
        # Player 1 hidden behind the east pillar.
        everyone = {0: snap(0, x=100, yaw=0.0), 1: snap(1, x=400)}
        sets = compute_sets(everyone[0], everyone, yard, 0, InterestConfig())
        assert 1 in sets.others

    def test_is_members_removed_from_vision(self):
        # More visible players than the IS can hold: the spill-over stays
        # VS.  The row sits at y=-800 to stay clear of the arena pillars.
        everyone = {0: snap(0, y=-800.0, yaw=0.0)}
        for i in range(1, 6):
            everyone[i] = snap(i, x=200.0 * i, y=-800.0)
        sets = compute_sets(everyone[0], everyone, self.arena, 0, self.config)
        assert len(sets.interest) == 2
        assert len(sets.vision) == 3

    def test_kind_of_reports_all_three(self):
        everyone = {
            0: snap(0, y=-800.0, yaw=0.0),
            1: snap(1, x=200, y=-800.0),
            2: snap(2, x=400, y=-800.0),
            3: snap(3, x=600, y=-800.0),
            4: snap(4, x=-500, y=-800.0),
        }
        sets = compute_sets(everyone[0], everyone, self.arena, 0, self.config)
        assert sets.interest and sets.vision and sets.others
        assert sets.interest | sets.vision | sets.others == {1, 2, 3, 4}

    def test_all_ids_covers_roster(self):
        everyone = {i: snap(i, x=i * 120.0) for i in range(6)}
        sets = compute_sets(everyone[0], everyone, self.arena, 0, self.config)
        assert sets.interest | sets.vision | sets.others == frozenset(range(1, 6))
