"""Donnybrook re-implementation (the multi-resolution comparison point).

"Donnybrook ... uses the set of the top 5 avatars with respect to an
attention metric based on proximity, aim and interaction recency, called
interest set (IS).  A player typically receives frequent updates only
about avatars in his IS and infrequent so-called dead-reckoning updates
about other avatars."

The paper's authors implemented interest sets "according to Donnybrook,
since the code was not available" — we do the same, sharing the attention
metric with :mod:`repro.game.interest`.  Two Donnybrook-specific points:

- the IS is chosen from *all* players by attention (no visibility gate —
  that gate is a Watchmen addition);
- every non-IS player still sends dead-reckoning updates to everyone,
  which is why a coalition gets DR about ~everybody in Figure 4; real
  Donnybrook's forwarder pools only add exposure, so this is the paper's
  stated lower bound.
"""

from __future__ import annotations

import heapq

from repro.core.disclosure import InfoLevel
from repro.game.avatar import AvatarSnapshot
from repro.game.interest import InteractionRecency, InterestConfig, ObserverFrame

__all__ = ["DonnybrookModel"]


class DonnybrookModel:
    """Top-5-attention IS with dead reckoning to everyone else."""

    name = "donnybrook"

    def __init__(
        self,
        config: InterestConfig | None = None,
        recency: InteractionRecency | None = None,
    ) -> None:
        self.config = config or InterestConfig()
        self.recency = recency
        self._interest: dict[int, frozenset[int]] = {}

    def prepare_frame(
        self, frame: int, snapshots: dict[int, AvatarSnapshot]
    ) -> None:
        self._interest = {}
        for observer_id, observer in snapshots.items():
            # Hoist the observer's eye/aim state once per frame; nlargest is
            # documented to agree with sorted(..., reverse=True)[:n],
            # including stable tie order, so the IS is unchanged.
            oframe = ObserverFrame(observer, self.config)
            candidates = [
                other_id
                for other_id, other in snapshots.items()
                if other_id != observer_id and other.alive
            ]
            top = heapq.nlargest(
                self.config.interest_size,
                candidates,
                key=lambda oid: oframe.attention_score(
                    snapshots[oid], frame, self.recency
                ),
            )
            self._interest[observer_id] = frozenset(top)

    def info_level(self, observer_id: int, subject_id: int) -> str:
        if observer_id == subject_id:
            raise ValueError("observer and subject must differ")
        if subject_id in self._interest.get(observer_id, ()):
            return InfoLevel.FREQUENT
        return InfoLevel.DEAD_RECKONING
