"""Figure 4: joint information available to coalitions of cheaters.

For each architecture (client/server, Donnybrook, Watchmen) and each
coalition size, average — over frames and over random coalitions — the
number of honest players in each exposure category
(:class:`~repro.core.disclosure.ExposureCategory`).  The paper's headline
numbers, which this harness regenerates:

- Watchmen, coalition of 4 (48 players): minimum information (infrequent
  only) for ~31 % of honest players, partial (DR or frequent) for ~48 %;
- Donnybrook, same coalition: DR-only for ~65 % and DR+frequent for the
  rest; frequent-alone < 1 %.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines import (
    ClientServerModel,
    DisseminationModel,
    DonnybrookModel,
    WatchmenModel,
)
from repro.cheats.collusion import Coalition, sample_coalitions
from repro.core.disclosure import ExposureCategory, ExposureHistogram
from repro.core.proxy import ProxySchedule
from repro.game.gamemap import GameMap
from repro.game.interest import InteractionRecency, InterestConfig
from repro.game.trace import GameTrace

__all__ = ["ExposureResult", "exposure_experiment", "default_models"]

#: Coalitions of size k are sampled on RNG seed ``COALITION_SEED + k``.
COALITION_SEED = 1


@dataclass(frozen=True)
class ExposureResult:
    """Mean per-category honest-player counts for one (model, size) cell."""

    model_name: str
    coalition_size: int
    histogram: ExposureHistogram

    def counts(self) -> dict[str, float]:
        return dict(self.histogram.counts)


def default_models(
    trace: GameTrace,
    game_map: GameMap,
    interest: InterestConfig | None = None,
) -> list[DisseminationModel]:
    """The three Figure 4 architectures over one trace."""
    interest = interest or InterestConfig()
    recency = InteractionRecency()
    for shot in trace.shots:
        recency.record(shot.shooter_id, shot.target_id, shot.frame)
    schedule = ProxySchedule(trace.player_ids())
    return [
        ClientServerModel(game_map, pvs_radius=interest.vision_radius),
        DonnybrookModel(interest, recency),
        WatchmenModel(game_map, schedule, interest, recency),
    ]


def exposure_experiment(
    trace: GameTrace,
    game_map: GameMap,
    coalition_sizes: list[int],
    models: list[DisseminationModel] | None = None,
    coalitions_per_size: int = 8,
    frame_stride: int = 20,
) -> list[ExposureResult]:
    """Run the full Figure 4 sweep; returns one result per (model, size)."""
    if not coalition_sizes:
        raise ValueError("need at least one coalition size")
    models = models or default_models(trace, game_map)
    players = trace.player_ids()
    coalitions: dict[int, list[Coalition]] = {
        size: sample_coalitions(players, size, coalitions_per_size, COALITION_SEED + size)
        for size in coalition_sizes
    }
    sums: dict[tuple[str, int], ExposureHistogram] = {
        (model.name, size): ExposureHistogram.empty()
        for model in models
        for size in coalition_sizes
    }
    samples: dict[tuple[str, int], int] = {key: 0 for key in sums}

    frames = range(0, trace.num_frames, max(1, frame_stride))
    for frame in frames:
        snapshots = trace.frames[frame]
        for model in models:
            model.prepare_frame(frame, snapshots)
            for size in coalition_sizes:
                for coalition in coalitions[size]:
                    histogram = coalition.frame_histogram(model, players)
                    key = (model.name, size)
                    sums[key] = sums[key].merged(histogram)
                    samples[key] += 1

    results = []
    for model in models:
        for size in coalition_sizes:
            key = (model.name, size)
            count = max(1, samples[key])
            results.append(
                ExposureResult(
                    model_name=model.name,
                    coalition_size=size,
                    histogram=sums[key].scaled(1.0 / count),
                )
            )
    return results


def result_matrix(
    results: list[ExposureResult],
) -> dict[str, dict[int, dict[str, float]]]:
    """results → {model: {size: {category: mean count}}} for rendering."""
    matrix: dict[str, dict[int, dict[str, float]]] = {}
    for result in results:
        matrix.setdefault(result.model_name, {})[result.coalition_size] = (
            result.counts()
        )
    return matrix
