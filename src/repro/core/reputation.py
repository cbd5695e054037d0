"""Reputation & punishment (Section V-B).

"Because the detection system has false positives ... a single detection
of cheating does not result in banning of players.  Instead, each player
tags the interactions he has with other players as successful ... or as
failed, and this information is fed to a reputation system."

The session feeds every rating to one :class:`ReputationBoard`, which
applies the paper's simplest rule: "a reputation system decides to ban a
node if the proportion of acceptable interactions of a player drops below
a given threshold".
"""

from __future__ import annotations

from repro.core.config import (
    BAN_MIN_REPORTS,
    BAN_THRESHOLD,
    MIN_REPORT_CONFIDENCE,
    SUSPICION_RATING_THRESHOLD,
)
from repro.core.verification import CheatRating

__all__ = ["ReputationBoard"]


class ReputationBoard:
    """Ban when the acceptable-interaction proportion drops below a threshold.

    Stands in for "a centralized game lobby that manages access and logins
    and can thus ban the players".  A rating under
    ``SUSPICION_RATING_THRESHOLD`` tags the interaction as successful, any
    other as failed; each tag weighs its rating's confidence, and one under
    ``MIN_REPORT_CONFIDENCE`` is ignored.  ``min_reports`` prevents banning
    on a handful of (possibly false positive) reports; the threshold is "set
    based on the success and false positive rates of the detection system".
    """

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
