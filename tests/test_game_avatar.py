"""Unit tests for avatar state, snapshots and delta coding."""

import pytest

from repro.game.avatar import (
    MAX_HEALTH,
    AvatarSnapshot,
    AvatarState,
    snapshot_delta_fields,
)
from repro.game.vector import Vec3


@pytest.fixture()
def avatar():
    return AvatarState(player_id=3, position=Vec3(1, 2, 3))


class TestDamage:
    def test_plain_damage(self, avatar):
        dealt = avatar.take_damage(30)
        assert dealt == 30
        assert avatar.health == 70

    def test_armor_absorbs_two_thirds(self, avatar):
        avatar.armor = 100
        dealt = avatar.take_damage(30)
        assert dealt == 10
        assert avatar.health == 90
        assert avatar.armor == 80

    def test_partial_armor(self, avatar):
        avatar.armor = 5
        dealt = avatar.take_damage(30)
        assert avatar.armor == 0
        assert dealt == 25

    def test_lethal_damage_kills(self, avatar):
        avatar.take_damage(200)
        assert not avatar.alive
        assert avatar.health == 0

    def test_dead_avatar_takes_no_damage(self, avatar):
        avatar.take_damage(200)
        assert avatar.take_damage(50) == 0

    def test_negative_damage_rejected(self, avatar):
        with pytest.raises(ValueError):
            avatar.take_damage(-1)


class TestHealRespawn:
    def test_heal_caps_at_max(self, avatar):
        avatar.health = 90
        avatar.heal(50)
        assert avatar.health == MAX_HEALTH

    def test_mega_heal_custom_cap(self, avatar):
        avatar.heal(100, cap=200)
        assert avatar.health == 200

    def test_respawn_resets_state(self, avatar):
        avatar.take_damage(500)
        avatar.respawn(Vec3(9, 9, 9), frame=120)
        assert avatar.alive
        assert avatar.health == MAX_HEALTH
        assert avatar.position == Vec3(9, 9, 9)
        assert avatar.weapon == "machinegun"
        assert avatar.respawn_at_frame == 120


class TestSnapshot:
    def test_snapshot_copies_fields(self, avatar):
        avatar.yaw = 1.5
        snap = avatar.snapshot(frame=7)
        assert snap.player_id == 3
        assert snap.frame == 7
        assert snap.yaw == 1.5
        assert snap.position == avatar.position

    def test_snapshot_is_immutable(self, avatar):
        snap = avatar.snapshot(0)
        with pytest.raises(AttributeError):
            snap.health = 0  # type: ignore[misc]

    def test_position_only_strips_sensitive_fields(self, avatar):
        avatar.armor = 55
        snap = avatar.snapshot(0).position_only()
        assert snap.position == avatar.position
        assert snap.health == 0
        assert snap.armor == 0
        assert snap.weapon == ""
        assert snap.alive


class TestDeltaCoding:
    def make(self, **overrides):
        base = dict(
            player_id=1,
            frame=0,
            position=Vec3(0, 0, 0),
            velocity=Vec3(0, 0, 0),
            yaw=0.0,
            health=100,
            armor=0,
            weapon="machinegun",
            ammo=100,
            alive=True,
        )
        base.update(overrides)
        return AvatarSnapshot(**base)

    def test_no_history_sends_everything(self):
        fields = snapshot_delta_fields(None, self.make())
        assert "position" in fields and "health" in fields
        assert len(fields) == 8

    def test_identical_snapshots_empty_delta(self):
        a, b = self.make(), self.make(frame=1)
        assert snapshot_delta_fields(a, b) == []

    def test_single_field_change(self):
        a = self.make()
        b = self.make(frame=1, health=80)
        assert snapshot_delta_fields(a, b) == ["health"]

    def test_multiple_changes(self):
        a = self.make()
        b = self.make(frame=1, position=Vec3(1, 0, 0), ammo=99)
        fields = snapshot_delta_fields(a, b)
        assert set(fields) == {"position", "ammo"}

    def test_different_players_full_delta(self):
        a = self.make()
        b = self.make(player_id=2)
        assert len(snapshot_delta_fields(a, b)) == 8
