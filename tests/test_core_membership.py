"""Tests for churn membership management (Section VI agreement round)."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import WatchmenSession
from repro.core.membership import MembershipView, RemovalProposal
from repro.faults import CrashFault, FaultSchedule
from repro.net.latency import uniform_lan

from tests.reference.membership import heard_from_reference


class TestMembershipView:
    def make(self, size=8, **kwargs):
        return MembershipView(list(range(size)), **kwargs)

    def test_needs_two_players(self):
        with pytest.raises(ValueError):
            MembershipView([1])

    def test_heartbeats_silence(self):
        view = self.make(silence_threshold_frames=10)
        view.heard_from(1, 5)
        assert 1 not in view.silent_players(14, self_id=0)
        assert 1 in view.silent_players(16, self_id=0)

    def test_self_never_silent(self):
        view = self.make(silence_threshold_frames=10)
        assert 0 not in view.silent_players(100, self_id=0)

    def test_unknown_player_heartbeat_ignored(self):
        view = self.make()
        view.heard_from(99, 5)  # no crash, no tracking
        assert 99 not in view.silent_players(1000, self_id=0)

    def test_quorum_majority(self):
        view = self.make(size=8)
        assert view.quorum_size() == 5

    def test_proposals_accumulate_to_quorum(self):
        # Frames past the silence threshold (60): the local view must
        # corroborate the silence before votes can schedule a removal.
        view = self.make(size=5)  # quorum 3
        assert not view.record_proposal(0, 4, frame=100, epoch=1)
        assert not view.record_proposal(1, 4, frame=101, epoch=1)
        assert view.record_proposal(2, 4, frame=102, epoch=1)
        assert view._scheduled_removals == {4: 2}  # epoch 1 + delay 1

    def test_votes_alone_cannot_evict_a_locally_live_player(self):
        """Quorum completes but the local heartbeat refutes the silence."""
        view = self.make(size=5)  # quorum 3
        view.heard_from(4, 95)
        for proposer in (0, 1, 2):
            view.record_proposal(proposer, 4, frame=100, epoch=1)
        assert view._scheduled_removals == {}
        assert view.proposal_count(4) == 3  # votes kept for a later re-check

    def test_hearing_rescinds_pending_suspicion(self):
        """A live voice clears votes, own-proposal state and the schedule."""
        view = self.make(size=5)
        view.note_own_proposal(4)
        for proposer in (0, 1, 2):
            view.record_proposal(proposer, 4, frame=100, epoch=1)
        assert view._scheduled_removals == {4: 2}
        view.heard_from(4, 110)
        assert view._scheduled_removals == {}
        assert view.proposal_count(4) == 0
        assert view.should_propose(4)

    def test_applied_removals_are_never_rescinded(self):
        view = self.make(size=4)  # quorum 3
        for proposer in (0, 1, 2):
            view.record_proposal(proposer, 3, frame=100, epoch=2)
        view.apply_removals(epoch=3)
        view.heard_from(3, 120)  # straggler update from the departed
        assert 3 in view.removed

    def test_duplicate_proposer_counted_once(self):
        view = self.make(size=5)
        view.record_proposal(0, 4, 10, 1)
        assert not view.record_proposal(0, 4, 11, 1)
        assert view.proposal_count(4) == 1

    def test_non_roster_proposer_ignored(self):
        view = self.make(size=5)
        assert not view.record_proposal(99, 4, 10, 1)
        assert view.proposal_count(4) == 0

    def test_minority_cannot_evict(self):
        """Two colluders out of eight cannot remove an honest player."""
        view = self.make(size=8)  # quorum 5
        view.record_proposal(0, 7, 10, 1)
        view.record_proposal(1, 7, 10, 1)
        assert view._scheduled_removals == {}
        assert 7 not in view.removed

    def test_removal_effective_at_future_epoch(self):
        view = self.make(size=4)  # quorum 3
        for proposer in (0, 1, 2):
            view.record_proposal(proposer, 3, 100, epoch=2)
        assert view.apply_removals(epoch=2) == set()
        assert view.apply_removals(epoch=3) == {3}
        assert 3 in view.removed
        assert view.current_roster() == [0, 1, 2]

    def test_no_double_scheduling(self):
        view = self.make(size=4)
        for proposer in (0, 1, 2):
            view.record_proposal(proposer, 3, 100, epoch=2)
        assert not view.record_proposal(1, 3, 101, epoch=2)

    def test_should_propose_once(self):
        view = self.make()
        assert view.should_propose(5)
        view.note_own_proposal(5)
        assert not view.should_propose(5)

    def test_quorum_shrinks_after_removal(self):
        view = self.make(size=5)
        for proposer in (0, 1, 2):
            view.record_proposal(proposer, 4, 100, epoch=0)
        view.apply_removals(epoch=2)
        assert view.quorum_size() == 3  # majority of 4 remaining


#: one step of a membership history: (operation, player, frame)
_steps = st.lists(
    st.tuples(
        st.sampled_from(
            ("hear", "hear", "hear", "propose", "own", "convict", "remove")
        ),
        st.integers(min_value=0, max_value=9),  # 8 on the roster, 9 is not
        st.integers(min_value=0, max_value=400),
    ),
    max_size=60,
)


class TestHeardFromMatchesReference:
    """A heartbeat that skips the suspicion tables when none is pending
    leaves the view exactly as the method that always popped them."""

    @staticmethod
    def apply(view: MembershipView, step: tuple[str, int, int], hear) -> None:
        op, player, frame = step
        epoch = frame // 20
        if op == "hear":
            hear(view, player, frame)
        elif op == "propose":
            for proposer in range(view.quorum_size()):
                view.record_proposal(proposer, player, frame, epoch)
        elif op == "own":
            if view.should_propose(player):
                view.note_own_proposal(player)
        elif op == "convict":
            view.convict(player, epoch + 1)
        else:
            view.apply_removals(epoch)

    @given(_steps)
    @settings(max_examples=150, deadline=None)
    def test_state_equal_after_every_step(self, steps):
        fast = MembershipView(list(range(8)), silence_threshold_frames=30)
        reference = copy.deepcopy(fast)
        for step in steps:
            self.apply(fast, step, MembershipView.heard_from)
            self.apply(reference, step, heard_from_reference)
            assert fast == reference


class TestChurnIntegration:
    @pytest.fixture(scope="class")
    def departed_session(self, small_trace, longest_yard):
        session = WatchmenSession(
            small_trace,
            game_map=longest_yard,
            latency=uniform_lan(8),
            faults=FaultSchedule(crashes=(CrashFault(node_id=5, frame=40),)),
        )
        report = session.run()
        return session, report

    def test_all_honest_nodes_agree_on_removal(self, departed_session):
        session, _ = departed_session
        for player_id, node in session.nodes.items():
            if player_id == 5:
                continue
            assert 5 in node.membership.removed, f"node {player_id} disagrees"

    def test_schedules_converge(self, departed_session):
        session, _ = departed_session
        rosters = {
            tuple(node.schedule.roster)
            for player_id, node in session.nodes.items()
            if player_id != 5
        }
        assert len(rosters) == 1
        assert 5 not in next(iter(rosters))

    def test_departed_never_proxies_after_removal(self, departed_session):
        session, _ = departed_session
        node = session.nodes[0]
        final_epoch = session.config.epoch_of_frame(159)
        for player in node.schedule.roster:
            assert node.schedule.proxy_of(player, final_epoch) != 5

    def test_no_honest_player_removed(self, departed_session):
        session, _ = departed_session
        for player_id, node in session.nodes.items():
            if player_id == 5:
                continue
            assert node.membership.removed <= {5}

    def test_proposals_were_broadcast(self, departed_session):
        session, _ = departed_session
        node = session.nodes[0]
        assert node.membership.proposal_count(5) == 0 or 5 in (
            node.membership.removed
        )

    def test_honest_session_removes_nobody(self, honest_session_report):
        session, _ = honest_session_report
        for node in session.nodes.values():
            assert node.membership.removed == set()
