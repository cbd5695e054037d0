"""Reputation & punishment (Section V-B).

"Because the detection system has false positives ... a single detection
of cheating does not result in banning of players.  Instead, each player
tags the interactions he has with other players as successful ... or as
failed, and this information is fed to a reputation system."

Watchmen treats the reputation backend as pluggable (anything with
``report`` / ``reputation_of`` / ``banned``); this module provides two:

- :class:`ThresholdReputation` — "in its simplest form, a reputation
  system decides to ban a node if the proportion of acceptable
  interactions of a player drops below a given threshold";
- :class:`BetaReputation` — a confidence/credibility-weighted Beta system
  in the spirit of the more elaborate systems the paper cites: reports are
  weighted by the reporter's confidence *and* the reporter's own current
  reputation (credibility), which blunts bad-mouthing by cheaters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from repro.core.config import (
    BAN_MIN_REPORTS,
    BAN_THRESHOLD,
    BETA_BAN_THRESHOLD,
    BETA_MIN_EVIDENCE,
    BETA_PRIOR,
    BETA_PRIOR_FAILURE_FRACTION,
    MIN_REPORT_CONFIDENCE,
    SUSPICION_RATING_THRESHOLD,
)
from repro.core.verification import CheatRating

__all__ = [
    "InteractionTag",
    "ThresholdReputation",
    "BetaReputation",
    "ReputationBoard",
]


class InteractionTag(NamedTuple):
    """One success/failure report about a subject from a reporter."""

    reporter_id: int
    subject_id: int
    frame: int
    success: bool
    confidence: float
    check: str = ""

    @staticmethod
    def from_rating(rating: CheatRating) -> "InteractionTag":
        return InteractionTag(  # positionally: built once per rating
            rating.verifier_id, rating.subject_id, rating.frame,
            rating.rating < SUSPICION_RATING_THRESHOLD, rating.confidence, rating.check,
        )


class ThresholdReputation:
    """Ban when the acceptable-interaction proportion drops below a threshold.

    ``min_reports`` prevents banning on a handful of (possibly false
    positive) reports; the threshold is "set based on the success and false
    positive rates of the detection system".
    """

    def __init__(
        self, ban_threshold: float = BAN_THRESHOLD, min_reports: int = BAN_MIN_REPORTS
    ) -> None:
        if not 0.0 < ban_threshold <= 1.0:
            raise ValueError("ban_threshold must be in (0, 1]")
        self.ban_threshold = ban_threshold
        self.min_reports = min_reports
        self._good: dict[int, float] = {}
        self._bad: dict[int, float] = {}
        self._count: dict[int, int] = {}

    def report(self, tag: InteractionTag) -> None:
        if tag.confidence < MIN_REPORT_CONFIDENCE:
            return
        weight = tag.confidence
        if tag.success:
            self._good[tag.subject_id] = self._good.get(tag.subject_id, 0.0) + weight
        else:
            self._bad[tag.subject_id] = self._bad.get(tag.subject_id, 0.0) + weight
        self._count[tag.subject_id] = self._count.get(tag.subject_id, 0) + 1

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


class BetaReputation:
    """Beta(α, β) reputation with reporter-credibility weighting.

    Each report adds ``confidence × credibility(reporter)`` to α (success)
    or β (failure).  Credibility is the reporter's own current expected
    reputation, so identified cheaters cannot effectively bad-mouth honest
    players ("prevent bad mouthing ... resulting in an improved
    robustness").
    """

    def __init__(self, ban_threshold: float = BETA_BAN_THRESHOLD) -> None:
        if not 0.0 < ban_threshold <= 1.0:
            raise ValueError("ban_threshold must be in (0, 1]")
        self.ban_threshold = ban_threshold
        self._alpha: dict[int, float] = {}
        self._beta: dict[int, float] = {}

    def report(self, tag: InteractionTag) -> None:
        if tag.confidence < MIN_REPORT_CONFIDENCE:
            return
        credibility = self.reputation_of(tag.reporter_id)
        weight = tag.confidence * credibility
        if tag.success:
            self._alpha[tag.subject_id] = self._alpha.get(tag.subject_id, 0.0) + weight
        else:
            self._beta[tag.subject_id] = self._beta.get(tag.subject_id, 0.0) + weight

    def reputation_of(self, subject_id: int) -> float:
        alpha = self._alpha.get(subject_id, 0.0) + BETA_PRIOR
        beta = self._beta.get(subject_id, 0.0) + BETA_PRIOR * BETA_PRIOR_FAILURE_FRACTION
        return alpha / (alpha + beta)

    def evidence_of(self, subject_id: int) -> float:
        return self._alpha.get(subject_id, 0.0) + self._beta.get(subject_id, 0.0)

    def banned(self) -> set[int]:
        return {
            subject
            for subject in set(self._alpha) | set(self._beta)
            if self.evidence_of(subject) >= BETA_MIN_EVIDENCE
            and self.reputation_of(subject) < self.ban_threshold
        }


@dataclass
class ReputationBoard:
    """A collection point: ratings in, tags out, ban list maintained.

    Stands in for "a centralized game lobby that manages access and logins
    and can thus ban the players" — the simplest aggregation model the
    paper describes.
    """

    system: ThresholdReputation | BetaReputation = field(
        default_factory=ThresholdReputation
    )
    tags_seen: int = 0

    def submit_rating(self, rating: CheatRating) -> None:
        self.system.report(InteractionTag.from_rating(rating))
        self.tags_seen += 1

    def reputation_of(self, subject_id: int) -> float:
        return self.system.reputation_of(subject_id)

    def banned(self) -> set[int]:
        return self.system.banned()
