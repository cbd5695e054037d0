"""Unit tests for WatchmenConfig."""

import pytest

from repro.core.config import (
    FRAME_SECONDS,
    FRAMES_PER_SECOND,
    HANDOFF_DEPTH,
    MAX_USEFUL_AGE_FRAMES,
    PROFILES,
    STATE_UPDATE_BITS,
    WatchmenConfig,
)
from repro.replay import GOLDEN_PRESETS, TapeScenario


class TestValidation:
    def test_defaults_valid(self):
        config = WatchmenConfig()
        assert FRAME_SECONDS == 0.05
        assert config.proxy_period_frames == 40
        assert config.interest.interest_size == 5

    @pytest.mark.parametrize(
        "field,value",
        [
            ("proxy_period_frames", 0),
            ("signature_bits", 0),
            ("proxy_silence_threshold_frames", 0),
            ("membership_silence_frames", 30),  # not above the proxy threshold
            ("profile", "hardened-without-failover"),  # not a rung
            ("profile", "resilient"),  # the middle rung that went
        ],
    )
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ValueError):
            WatchmenConfig(**{field: value})

    def test_frozen(self):
        with pytest.raises(Exception):
            WatchmenConfig().proxy_period_frames = 99  # type: ignore[misc]


class TestEpochs:
    def test_epoch_of_frame(self):
        config = WatchmenConfig(proxy_period_frames=40)
        assert config.epoch_of_frame(0) == 0
        assert config.epoch_of_frame(39) == 0
        assert config.epoch_of_frame(40) == 1
        assert config.epoch_of_frame(80) == 2

    def test_negative_frame_rejected(self):
        with pytest.raises(ValueError):
            WatchmenConfig().epoch_of_frame(-1)

    def test_custom_period(self):
        config = WatchmenConfig(proxy_period_frames=10)
        assert config.epoch_of_frame(25) == 2


class TestPaperConstants:
    """The paper-given numbers DESIGN.md promises."""

    def test_frame_is_50ms(self):
        assert FRAME_SECONDS == 0.05

    def test_guidance_once_per_second(self):
        # guidance and position-only updates share the 1 Hz tier
        assert FRAMES_PER_SECOND * FRAME_SECONDS == 1.0

    def test_position_updates_once_per_second(self):
        assert FRAMES_PER_SECOND * FRAME_SECONDS == 1.0

    def test_proxy_period_couple_of_seconds(self):
        seconds = WatchmenConfig().proxy_period_frames * FRAME_SECONDS
        assert 1.0 <= seconds <= 4.0

    def test_signature_100_bits(self):
        assert WatchmenConfig().signature_bits == 100

    def test_state_update_700_bits(self):
        assert STATE_UPDATE_BITS == 700

    def test_handoff_two_predecessors(self):
        assert HANDOFF_DEPTH == 2

    def test_150ms_staleness_bound(self):
        assert MAX_USEFUL_AGE_FRAMES * FRAME_SECONDS == pytest.approx(0.15)


class TestScenarioMapping:
    """TapeScenario keeps three serialized flags for the one ``profile``
    rung, and they must agree: all off is ``paper``, all on ``hardened``."""

    @staticmethod
    def scenario(failover, reliable, hardening):
        return TapeScenario(players=4, frames=40, seed=1, failover=failover,
                            reliable=reliable, hardening=hardening)

    @pytest.mark.parametrize("gate", [True, False])
    def test_flags_map_to_the_one_gate(self, gate):
        scenario = self.scenario(gate, gate, gate)
        assert scenario.make_config().profile == ("hardened" if gate else "paper")

    def test_hardening_is_the_top_rung(self):
        # and the default one: a scenario that names no rung is hardened
        scenario = TapeScenario(players=4, frames=40, seed=1)
        assert scenario.make_config().profile == "hardened"

    def test_hardening_without_failover_rejected(self):
        with pytest.raises(ValueError, match="must agree"):
            self.scenario(False, False, True).make_config()

    def test_failover_without_hardening_rejected(self):
        # the middle rung that went: it built exactly what hardened builds
        with pytest.raises(ValueError, match="must agree"):
            self.scenario(True, True, False).make_config()

    @pytest.mark.parametrize("failover,reliable", [(True, False), (False, True)])
    def test_split_flags_rejected(self, failover, reliable):
        for hardening in (False, True):
            with pytest.raises(ValueError, match="must agree"):
                self.scenario(failover, reliable, hardening).make_config()

    def test_every_golden_preset_names_a_rung(self):
        for name, scenario in GOLDEN_PRESETS.items():
            assert scenario.make_config().profile in PROFILES, name

    def test_mc_override_wins_over_scenario_flags(self):
        # used to raise TypeError: multiple values for 'proxy_failover'
        scenario = TapeScenario(
            players=4, frames=40, seed=1,
            mc={"config": {"profile": "paper", "proxy_period_frames": 16}},
        )
        config = scenario.make_config()
        assert config.profile == "paper"
        assert config.proxy_period_frames == 16

    def test_chaos_flags_adopt_the_bursty_loss_model(self):
        # a taped burst_loss_5pct used to run i.i.d. loss while `repro chaos`
        # ran the same scenario name under Gilbert–Elliott
        scenario = TapeScenario(
            players=6, frames=40, seed=1, chaos="burst_loss_5pct"
        ).with_chaos_flags()
        assert scenario.loss_model == "gilbert-elliott"
        game_map = scenario.make_map()
        session = scenario.make_session(scenario.make_trace(game_map), game_map=game_map)
        assert session.network.config.loss_model == "gilbert-elliott"
        # scenarios that do not ask for bursts keep whatever the caller set
        crash = TapeScenario(players=6, frames=40, seed=1, chaos="crash_10pct")
        assert crash.with_chaos_flags().loss_model == "iid"
