"""Unit tests for the reputation & punishment backends."""

import pytest

from repro.core.config import BETA_MIN_EVIDENCE
from repro.core.reputation import (
    BetaReputation,
    InteractionTag,
    ReputationBoard,
    ThresholdReputation,
)
from repro.core.verification import CheatRating


def tag(subject, success, reporter=0, confidence=1.0, frame=0):
    return InteractionTag(
        reporter_id=reporter,
        subject_id=subject,
        frame=frame,
        success=success,
        confidence=confidence,
    )


def rating(subject, value, reporter=0, confidence=1.0):
    return CheatRating(
        verifier_id=reporter,
        subject_id=subject,
        frame=0,
        check="position",
        rating=value,
        confidence=confidence,
        deviation=0.0,
    )


class TestInteractionTag:
    def test_from_low_rating_is_success(self):
        t = InteractionTag.from_rating(rating(1, 1.0))
        assert t.success

    def test_from_high_rating_is_failure(self):
        t = InteractionTag.from_rating(rating(1, 9.0))
        assert not t.success

    def test_carries_confidence(self):
        t = InteractionTag.from_rating(rating(1, 9.0, confidence=0.55))
        assert t.confidence == 0.55

    def test_verdicts_are_immutable_and_built_by_keyword(self):
        # a tuple since fan-out went flat: still frozen, same defaults
        verdict, report = rating(1, 9.0), tag(1, success=False)
        assert (verdict.detail, report.check) == ("", "")
        assert InteractionTag.from_rating(verdict) == report._replace(check="position")
        for record, field in ((verdict, "rating"), (report, "success")):
            with pytest.raises(AttributeError):
                setattr(record, field, 1.0)
            with pytest.raises(AttributeError):
                record.extra = 1


class TestThresholdReputation:
    def test_bad_threshold_rejected(self):
        with pytest.raises(ValueError):
            ThresholdReputation(ban_threshold=0.0)

    def test_clean_player_not_banned(self):
        system = ThresholdReputation(min_reports=5)
        for _ in range(50):
            system.report(tag(1, success=True))
        assert 1 not in system.banned()
        assert system.reputation_of(1) == 1.0

    def test_persistent_cheater_banned(self):
        system = ThresholdReputation(ban_threshold=0.85, min_reports=10)
        for _ in range(20):
            system.report(tag(2, success=False))
        assert 2 in system.banned()

    def test_single_false_positive_does_not_ban(self):
        """"a single detection of cheating does not result in banning"."""
        system = ThresholdReputation(ban_threshold=0.85, min_reports=20)
        system.report(tag(3, success=False))
        for _ in range(30):
            system.report(tag(3, success=True))
        assert 3 not in system.banned()

    def test_min_reports_prevents_premature_ban(self):
        system = ThresholdReputation(min_reports=20)
        for _ in range(5):
            system.report(tag(4, success=False))
        assert 4 not in system.banned()

    def test_low_confidence_reports_ignored(self):
        system = ThresholdReputation(min_reports=1)
        for _ in range(50):
            system.report(tag(5, success=False, confidence=0.1))
        assert 5 not in system.banned()

    def test_unknown_player_perfect_reputation(self):
        assert ThresholdReputation().reputation_of(99) == 1.0

    def test_confidence_weighting(self):
        system = ThresholdReputation()
        system.report(tag(6, success=True, confidence=1.0))
        system.report(tag(6, success=False, confidence=0.5))
        assert system.reputation_of(6) == pytest.approx(2 / 3)


class TestBetaReputation:
    def test_bad_threshold_rejected(self):
        with pytest.raises(ValueError):
            BetaReputation(ban_threshold=1.5)

    def test_prior_gives_benefit_of_doubt(self):
        system = BetaReputation()
        assert system.reputation_of(1) > 0.7

    def test_failures_lower_reputation(self):
        system = BetaReputation()
        before = system.reputation_of(1)
        for _ in range(10):
            system.report(tag(1, success=False))
        assert system.reputation_of(1) < before

    def test_cheater_banned_with_enough_evidence(self):
        system = BetaReputation()
        reports = 0
        while system.evidence_of(2) < BETA_MIN_EVIDENCE:
            assert 2 not in system.banned()  # never on too little evidence
            system.report(tag(2, success=False))
            reports += 1
        assert 2 in system.banned()
        assert reports < 30

    def test_badmouthing_blunted_by_credibility(self):
        """Reports from an identified cheater barely count."""
        system = BetaReputation()
        # Reporter 9 is first established as a cheater.
        for _ in range(40):
            system.report(tag(9, success=False, reporter=1))
        cheater_credibility = system.reputation_of(9)
        assert cheater_credibility < 0.5
        # Now the cheater bad-mouths honest player 3 while one honest
        # player vouches for him with the same volume.
        for _ in range(20):
            system.report(tag(3, success=False, reporter=9))
            system.report(tag(3, success=True, reporter=1))
        assert system.reputation_of(3) > 0.6
        assert 3 not in system.banned()

    def test_evidence_accumulates(self):
        system = BetaReputation()
        system.report(tag(4, success=True))
        assert system.evidence_of(4) > 0


class TestReputationBoard:
    def test_submit_rating_updates_counts(self):
        board = ReputationBoard()
        board.submit_rating(rating(1, 9.0))
        assert board.tags_seen == 1

    def test_board_bans_through_system(self):
        board = ReputationBoard(system=ThresholdReputation(min_reports=10))
        for _ in range(20):
            board.submit_rating(rating(2, 10.0))
        assert 2 in board.banned()

    def test_reputation_query(self):
        board = ReputationBoard()
        board.submit_rating(rating(3, 1.0))
        assert board.reputation_of(3) == 1.0

    def test_custom_system_pluggable(self):
        """"The Watchmen detection algorithm can be plugged into any
        reputation system"."""
        board = ReputationBoard(system=BetaReputation())
        board.submit_rating(rating(1, 1.0))  # a clean check: a successful tag
        assert board.reputation_of(1) > 0.5
