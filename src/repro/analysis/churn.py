"""Interest-set churn statistics (the in-text numbers of Section VI).

The paper's subscriber-retention design rests on measured IS dynamics:

- "nearly 50 % of the players in the IS change after 40 frames, less than
  10 % last more than 300 frames" (membership spells);
- "in a frame, on average 88 % of the players in IS were already in IS in
  the previous frame" (frame-to-frame stability);
- "it normally (~83 % in our analysis) takes at least one or two frames to
  become the center of attention after entering the IS".

:func:`churn_statistics` recomputes all three from a trace.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import PROXY_PERIOD_FRAMES
from repro.game.gamemap import GameMap
from repro.game.interest import (
    InteractionRecency,
    InterestConfig,
    attention_score,
    compute_all_sets,
)
from repro.game.trace import GameTrace

__all__ = ["ChurnStats", "churn_statistics", "interest_sets_over_trace"]

#: "less than 10 % last more than 300 frames" (§VI).
LONG_SPELL_FRAMES = 300


@dataclass(frozen=True)
class ChurnStats:
    """IS dynamics over one trace."""

    turnover_after_period: float  # fraction of IS changed after `period`
    spells_longer_than_cap: float  # fraction of spells > `long_cap` frames
    frame_stability: float  # mean fraction of IS already in previous IS
    slow_attention_centre: float  # fraction not top-1 on the frame they enter
    period: int
    long_cap: int
    mean_spell_frames: float


def interest_sets_over_trace(
    trace: GameTrace,
    game_map: GameMap,
    config: InterestConfig,
    recency: InteractionRecency,
) -> dict[int, list[frozenset[int]]]:
    """Per-player IS membership per frame (ground-truth views)."""
    player_ids = trace.player_ids()
    result: dict[int, list[frozenset[int]]] = {pid: [] for pid in player_ids}
    for frame in range(trace.num_frames):
        snapshots = trace.frames[frame]
        # Batched: per-frame LOS cache + hoisted per-observer state, with
        # output identical to per-observer compute_sets calls.
        all_sets = compute_all_sets(
            snapshots, game_map, frame, config, recency, observers=player_ids
        )
        for player_id in player_ids:
            result[player_id].append(all_sets[player_id].interest)
    return result


def churn_statistics(trace: GameTrace, game_map: GameMap) -> ChurnStats:
    """Recompute the three in-text IS-churn statistics from a trace."""
    config = InterestConfig()
    period, long_cap = PROXY_PERIOD_FRAMES, LONG_SPELL_FRAMES
    recency = InteractionRecency()
    for shot in trace.shots:
        recency.record(shot.shooter_id, shot.target_id, shot.frame)
    per_player = interest_sets_over_trace(trace, game_map, config, recency)

    # -- turnover after `period` frames ------------------------------------
    turnover_samples: list[float] = []
    for sets in per_player.values():
        for start in range(0, len(sets) - period, period):
            before, after = sets[start], sets[start + period]
            if not before:
                continue
            changed = len(before - after)
            turnover_samples.append(changed / len(before))
    turnover = (
        sum(turnover_samples) / len(turnover_samples) if turnover_samples else 0.0
    )

    # -- membership spell lengths ------------------------------------------
    spells: list[int] = []
    for sets in per_player.values():
        active: dict[int, int] = {}  # member -> spell start frame index
        for index, members in enumerate(sets):
            for member in members:
                active.setdefault(member, index)
            for member in list(active):
                if member not in members:
                    spells.append(index - active.pop(member))
        for member, start in active.items():
            spells.append(len(sets) - start)
    long_spells = sum(1 for s in spells if s > long_cap)
    spells_longer = long_spells / len(spells) if spells else 0.0
    mean_spell = sum(spells) / len(spells) if spells else 0.0

    # -- frame-to-frame stability --------------------------------------------
    stability_samples: list[float] = []
    for sets in per_player.values():
        for previous, current in zip(sets, sets[1:]):
            if not current:
                continue
            stability_samples.append(len(current & previous) / len(current))
    stability = (
        sum(stability_samples) / len(stability_samples)
        if stability_samples
        else 0.0
    )

    # -- lag from IS entry to becoming the attention centre -------------------
    slow, entries = _attention_centre_lags(trace, config, recency, per_player)
    slow_fraction = slow / entries if entries else 0.0

    return ChurnStats(
        turnover_after_period=turnover,
        spells_longer_than_cap=spells_longer,
        frame_stability=stability,
        slow_attention_centre=slow_fraction,
        period=period,
        long_cap=long_cap,
        mean_spell_frames=mean_spell,
    )


def _attention_centre_lags(
    trace: GameTrace,
    config: InterestConfig,
    recency: InteractionRecency,
    per_player: dict[int, list[frozenset[int]]],
) -> tuple[int, int]:
    """Count IS entries that were not top-1 on the frame they entered."""
    slow = 0
    entries = 0
    for player_id, sets in per_player.items():
        for index in range(1, len(sets)):
            newcomers = sets[index] - sets[index - 1]
            for member in newcomers:
                entries += 1
                snapshots = trace.frames[index]  # one set per frame: index is the frame
                observer = snapshots[player_id]
                scores = {
                    oid: attention_score(observer, snapshots[oid], index, config, recency)
                    for oid in sets[index]
                }
                if max(scores, key=scores.get) != member:  # member is in sets[index]
                    slow += 1
    return slow, entries
