"""Unit tests for the lobby's reputation board (§V-B), and its exactness
gate: over random ``(subject, rating, confidence)`` streams the board reads
bit-equal reputations and equal bans to the one that took whole verdicts
(``tests/reference/reputation.py``)."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import (
    MAX_RATING,
    MIN_RATING,
    MIN_REPORT_CONFIDENCE,
    SUSPICION_RATING_THRESHOLD,
)
from repro.core.reputation import ReputationBoard
from repro.core.verification import CheatRating

from tests.reference.reputation import ReferenceReputationBoard

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
        board.submit_rating(1, CLEAN, 1.0)
        assert board.reputation_of(1) == 1.0
        assert 1 not in board.banned()

    def test_from_high_rating_is_failure(self):
        board = ReputationBoard(min_reports=1)
        board.submit_rating(1, SUSPICIOUS, 1.0)
        board.submit_rating(2, SUSPICION_RATING_THRESHOLD, 1.0)
        assert board.reputation_of(1) == board.reputation_of(2) == 0.0
        assert board.banned() == {1, 2}

    def test_carries_confidence(self):
        board = ReputationBoard()
        board.submit_rating(1, CLEAN, 1.0)
        board.submit_rating(1, SUSPICIOUS, 0.55)
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
            board.submit_rating(1, CLEAN, 1.0)
        assert 1 not in board.banned()
        assert board.reputation_of(1) == 1.0

    def test_persistent_cheater_banned(self):
        board = ReputationBoard(ban_threshold=0.85, min_reports=10)
        for _ in range(20):
            board.submit_rating(2, SUSPICIOUS, 1.0)
        assert 2 in board.banned()

    def test_single_false_positive_does_not_ban(self):
        """"a single detection of cheating does not result in banning"."""
        board = ReputationBoard(ban_threshold=0.85, min_reports=20)
        board.submit_rating(3, SUSPICIOUS, 1.0)
        for _ in range(30):
            board.submit_rating(3, CLEAN, 1.0)
        assert 3 not in board.banned()

    def test_min_reports_prevents_premature_ban(self):
        board = ReputationBoard(min_reports=20)
        for _ in range(5):
            board.submit_rating(4, SUSPICIOUS, 1.0)
        assert 4 not in board.banned()

    def test_low_confidence_reports_ignored(self):
        board = ReputationBoard(min_reports=1)
        for _ in range(50):
            board.submit_rating(5, SUSPICIOUS, 0.1)
        assert 5 not in board.banned()
        assert board.ratings_seen == 50

    def test_unknown_player_perfect_reputation(self):
        assert ReputationBoard().reputation_of(99) == 1.0

    def test_confidence_weighting(self):
        board = ReputationBoard()
        board.submit_rating(6, CLEAN, 1.0)
        board.submit_rating(6, SUSPICIOUS, 0.5)
        assert board.reputation_of(6) == pytest.approx(2 / 3)


class TestReputationBoard:
    def test_submit_rating_updates_counts(self):
        board = ReputationBoard()
        board.submit_rating(1, SUSPICIOUS, 1.0)
        assert board.ratings_seen == 1

    def test_board_bans_through_system(self):
        board = ReputationBoard(min_reports=10)
        for _ in range(20):
            board.submit_rating(2, 10.0, 1.0)
        assert 2 in board.banned()

    def test_reputation_query(self):
        board = ReputationBoard()
        board.submit_rating(3, 1.0, 1.0)
        assert board.reputation_of(3) == 1.0


#: ratings and confidences on and beside each threshold, plus any in range
ratings = st.one_of(
    st.sampled_from((MIN_RATING, SUSPICION_RATING_THRESHOLD, MAX_RATING)),
    st.just(SUSPICION_RATING_THRESHOLD).map(lambda t: t - 1e-12),
    st.floats(MIN_RATING, MAX_RATING),
)
confidences = st.one_of(
    st.sampled_from((MIN_REPORT_CONFIDENCE, 0.0, 1.0)),
    st.just(MIN_REPORT_CONFIDENCE).map(lambda c: c - 1e-12),
    st.floats(0.0, 1.0),
)
verdicts = st.tuples(st.integers(0, 5), ratings, confidences)


class TestBoardEqualsReference:
    @settings(max_examples=200, deadline=None)
    @given(
        stream=st.lists(verdicts, max_size=120),
        min_reports=st.integers(1, 8),
        ban_threshold=st.floats(0.05, 1.0),
    )
    def test_reputations_bit_equal_and_bans_equal(self, stream, min_reports, ban_threshold):
        board = ReputationBoard(ban_threshold, min_reports)
        reference = ReferenceReputationBoard(ban_threshold, min_reports)
        for subject, value, confidence in stream:
            board.submit_rating(subject, value, confidence)
            reference.submit_rating(
                CheatRating(9, subject, 0, "position", value, confidence, 0.0)
            )
        assert board.ratings_seen == reference.ratings_seen == len(stream)
        for subject in range(7):
            assert struct.pack("<d", board.reputation_of(subject)) == struct.pack(
                "<d", reference.reputation_of(subject)
            )
        assert board.banned() == reference.banned()
