"""``ReputationBoard`` as it stood while the node handed it each verdict as a
whole ``CheatRating``: verbatim but for its docstring.  The board now takes
``(subject, rating, confidence)``; ``tests/test_core_reputation.py`` holds
the two to bit-equal reputations and equal bans over random verdict streams.
"""

from __future__ import annotations

from repro.core.config import (
    BAN_MIN_REPORTS,
    BAN_THRESHOLD,
    MIN_REPORT_CONFIDENCE,
    SUSPICION_RATING_THRESHOLD,
)
from repro.core.verification import CheatRating

__all__ = ["ReferenceReputationBoard"]


class ReferenceReputationBoard:
    def __init__(
        self, ban_threshold: float = BAN_THRESHOLD, min_reports: int = BAN_MIN_REPORTS
    ) -> None:
        if not 0.0 < ban_threshold <= 1.0:
            raise ValueError("ban_threshold must be in (0, 1]")
        self.ban_threshold = ban_threshold
        self.min_reports = min_reports
        self.ratings_seen = 0
        self._good: dict[int, float] = {}
        self._bad: dict[int, float] = {}
        self._count: dict[int, int] = {}

    def submit_rating(self, rating: CheatRating) -> None:
        self.ratings_seen += 1
        if rating.confidence < MIN_REPORT_CONFIDENCE:
            return
        subject = rating.subject_id
        tally = self._good if rating.rating < SUSPICION_RATING_THRESHOLD else self._bad
        tally[subject] = tally.get(subject, 0.0) + rating.confidence
        self._count[subject] = self._count.get(subject, 0) + 1

    def reputation_of(self, subject_id: int) -> float:
        good = self._good.get(subject_id, 0.0)
        bad = self._bad.get(subject_id, 0.0)
        total = good + bad
        return good / total if total > 0 else 1.0

    def banned(self) -> set[int]:
        return {
            subject
            for subject, count in self._count.items()
            if count >= self.min_reports
            and self.reputation_of(subject) < self.ban_threshold
        }
