"""Tests for the comparison architectures (client/server, Donnybrook, Watchmen model)."""

import pytest

from repro.baselines import ClientServerModel, DonnybrookModel, WatchmenModel
from repro.core.disclosure import InfoLevel
from repro.core.proxy import ProxySchedule
from repro.game.interest import InterestConfig


@pytest.fixture()
def frame_snapshots(small_trace):
    return 60, small_trace.frames[60]


class TestClientServer:
    def test_only_freq_or_nothing(self, longest_yard, frame_snapshots):
        frame, snapshots = frame_snapshots
        model = ClientServerModel(longest_yard)
        model.prepare_frame(frame, snapshots)
        levels = {
            model.info_level(a, b)
            for a in snapshots
            for b in snapshots
            if a != b
        }
        assert levels <= {InfoLevel.FREQUENT, InfoLevel.NOTHING}

    def test_symmetric_visibility(self, longest_yard, frame_snapshots):
        frame, snapshots = frame_snapshots
        model = ClientServerModel(longest_yard)
        model.prepare_frame(frame, snapshots)
        ids = sorted(snapshots)
        for a in ids:
            for b in ids:
                if a != b:
                    assert model.info_level(a, b) == model.info_level(b, a)

    def test_self_query_rejected(self, longest_yard, frame_snapshots):
        frame, snapshots = frame_snapshots
        model = ClientServerModel(longest_yard)
        model.prepare_frame(frame, snapshots)
        with pytest.raises(ValueError):
            model.info_level(0, 0)

    def test_radius_limits_pvs(self, longest_yard, frame_snapshots):
        frame, snapshots = frame_snapshots
        tight = ClientServerModel(longest_yard, pvs_radius=10.0)
        tight.prepare_frame(frame, snapshots)
        levels = [
            tight.info_level(a, b)
            for a in snapshots
            for b in snapshots
            if a != b
        ]
        assert all(level == InfoLevel.NOTHING for level in levels)


class TestDonnybrook:
    def test_freq_for_is_dr_for_rest(self, frame_snapshots):
        frame, snapshots = frame_snapshots
        model = DonnybrookModel(InterestConfig())
        model.prepare_frame(frame, snapshots)
        for observer in snapshots:
            levels = [
                model.info_level(observer, subject)
                for subject in snapshots
                if subject != observer
            ]
            assert set(levels) <= {InfoLevel.FREQUENT, InfoLevel.DEAD_RECKONING}
            assert levels.count(InfoLevel.FREQUENT) <= 5

    def test_never_nothing(self, frame_snapshots):
        """Donnybrook sends DR about everyone — no player is invisible."""
        frame, snapshots = frame_snapshots
        model = DonnybrookModel()
        model.prepare_frame(frame, snapshots)
        for a in snapshots:
            for b in snapshots:
                if a != b:
                    assert model.info_level(a, b) != InfoLevel.NOTHING

    def test_no_visibility_gate(self, frame_snapshots):
        """Donnybrook's IS ignores walls — a Watchmen addition only."""
        frame, snapshots = frame_snapshots
        model = DonnybrookModel(InterestConfig(interest_size=47))
        model.prepare_frame(frame, snapshots)
        observer = sorted(snapshots)[0]
        alive = [
            p for p, s in snapshots.items() if p != observer and s.alive
        ]
        frequent = {
            p for p in snapshots
            if p != observer
            and model.info_level(observer, p) == InfoLevel.FREQUENT
        }
        assert frequent == set(alive)

    def test_self_query_rejected(self, frame_snapshots):
        frame, snapshots = frame_snapshots
        model = DonnybrookModel()
        model.prepare_frame(frame, snapshots)
        with pytest.raises(ValueError):
            model.info_level(1, 1)


class TestWatchmenModel:
    @pytest.fixture()
    def model(self, longest_yard, small_trace):
        schedule = ProxySchedule(small_trace.player_ids())
        return WatchmenModel(longest_yard, schedule)

    def test_proxy_gets_complete(self, model, frame_snapshots):
        frame, snapshots = frame_snapshots
        model.prepare_frame(frame, snapshots)
        for subject in snapshots:
            proxy = model.proxy_of(subject)
            assert model.info_level(proxy, subject) == InfoLevel.COMPLETE

    def test_all_levels_reachable(self, model, small_trace):
        seen = set()
        for frame in range(0, small_trace.num_frames, 20):
            snapshots = small_trace.frames[frame]
            model.prepare_frame(frame, snapshots)
            for a in snapshots:
                for b in snapshots:
                    if a != b:
                        seen.add(model.info_level(a, b))
        assert InfoLevel.COMPLETE in seen
        assert InfoLevel.INFREQUENT in seen
        # FPS traces virtually always produce some IS/VS relations too.
        assert InfoLevel.FREQUENT in seen

    def test_never_nothing(self, model, frame_snapshots):
        """Watchmen's floor is the 1 Hz position update, never nothing."""
        frame, snapshots = frame_snapshots
        model.prepare_frame(frame, snapshots)
        for a in snapshots:
            for b in snapshots:
                if a != b:
                    assert model.info_level(a, b) != InfoLevel.NOTHING

    def test_sets_accessible(self, model, frame_snapshots):
        frame, snapshots = frame_snapshots
        model.prepare_frame(frame, snapshots)
        sets = model.sets_of(sorted(snapshots)[0])
        assert sets.interest | sets.vision | sets.others == frozenset(
            p for p in snapshots if p != sorted(snapshots)[0]
        )
