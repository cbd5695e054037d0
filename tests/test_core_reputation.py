"""Unit tests for the lobby's reputation board (§V-B)."""

import pytest

from repro.core.config import SUSPICION_RATING_THRESHOLD
from repro.core.reputation import ReputationBoard
from repro.core.verification import CheatRating

CLEAN, SUSPICIOUS = 1.0, 9.0


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
    """A rating tags its interaction: under the suspicion threshold a
    success, at or above it a failure, weighted by its confidence."""

    def test_from_low_rating_is_success(self):
        board = ReputationBoard(min_reports=1)
        board.submit_rating(rating(1, CLEAN))
        assert board.reputation_of(1) == 1.0
        assert 1 not in board.banned()

    def test_from_high_rating_is_failure(self):
        board = ReputationBoard(min_reports=1)
        board.submit_rating(rating(1, SUSPICIOUS))
        board.submit_rating(rating(2, SUSPICION_RATING_THRESHOLD))
        assert board.reputation_of(1) == board.reputation_of(2) == 0.0
        assert board.banned() == {1, 2}

    def test_carries_confidence(self):
        board = ReputationBoard()
        board.submit_rating(rating(1, CLEAN, confidence=1.0))
        board.submit_rating(rating(1, SUSPICIOUS, confidence=0.55))
        assert board.reputation_of(1) == 1.0 / (1.0 + 0.55)

    def test_verdicts_are_immutable_and_built_by_keyword(self):
        # a tuple since fan-out went flat: still frozen, same defaults
        verdict = rating(1, SUSPICIOUS)
        assert verdict.detail == ""
        with pytest.raises(AttributeError):
            verdict.rating = 1.0
        with pytest.raises(AttributeError):
            verdict.extra = 1


class TestThresholdReputation:
    def test_bad_threshold_rejected(self):
        with pytest.raises(ValueError):
            ReputationBoard(ban_threshold=0.0)

    def test_clean_player_not_banned(self):
        board = ReputationBoard(min_reports=5)
        for _ in range(50):
            board.submit_rating(rating(1, CLEAN))
        assert 1 not in board.banned()
        assert board.reputation_of(1) == 1.0

    def test_persistent_cheater_banned(self):
        board = ReputationBoard(ban_threshold=0.85, min_reports=10)
        for _ in range(20):
            board.submit_rating(rating(2, SUSPICIOUS))
        assert 2 in board.banned()

    def test_single_false_positive_does_not_ban(self):
        """"a single detection of cheating does not result in banning"."""
        board = ReputationBoard(ban_threshold=0.85, min_reports=20)
        board.submit_rating(rating(3, SUSPICIOUS))
        for _ in range(30):
            board.submit_rating(rating(3, CLEAN))
        assert 3 not in board.banned()

    def test_min_reports_prevents_premature_ban(self):
        board = ReputationBoard(min_reports=20)
        for _ in range(5):
            board.submit_rating(rating(4, SUSPICIOUS))
        assert 4 not in board.banned()

    def test_low_confidence_reports_ignored(self):
        board = ReputationBoard(min_reports=1)
        for _ in range(50):
            board.submit_rating(rating(5, SUSPICIOUS, confidence=0.1))
        assert 5 not in board.banned()
        assert board.ratings_seen == 50

    def test_unknown_player_perfect_reputation(self):
        assert ReputationBoard().reputation_of(99) == 1.0

    def test_confidence_weighting(self):
        board = ReputationBoard()
        board.submit_rating(rating(6, CLEAN, confidence=1.0))
        board.submit_rating(rating(6, SUSPICIOUS, confidence=0.5))
        assert board.reputation_of(6) == pytest.approx(2 / 3)


class TestReputationBoard:
    def test_submit_rating_updates_counts(self):
        board = ReputationBoard()
        board.submit_rating(rating(1, SUSPICIOUS))
        assert board.ratings_seen == 1

    def test_board_bans_through_system(self):
        board = ReputationBoard(min_reports=10)
        for _ in range(20):
            board.submit_rating(rating(2, 10.0))
        assert 2 in board.banned()

    def test_reputation_query(self):
        board = ReputationBoard()
        board.submit_rating(rating(3, 1.0))
        assert board.reputation_of(3) == 1.0
