"""Figure 7: distribution of the age of received updates.

"Distribution of the age of received updates (all three types) from the
frame they should have been received" under the King and PeerWise latency
sets (US-filtered means 62 / 68 ms RTT) with 1 % message loss.  "Quake
tolerates up to 150 ms latency, therefore, only the messages that are 3
frames old or more ... are counted as loss."
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.protocol import WatchmenSession
from repro.game.gamemap import GameMap
from repro.game.trace import GameTrace
from repro.net.latency import LatencyMatrix, king_like, peerwise_like
from repro.net.transport import NetworkConfig

__all__ = ["UpdateAgeResult", "update_age_experiment", "figure7_experiment"]


@dataclass(frozen=True)
class UpdateAgeResult:
    """One latency model's age distribution."""

    latency_name: str
    pdf: dict[int, float]  # age (frames) -> probability
    by_kind: dict[str, dict[int, float]]
    stale_fraction: float  # ≥ MAX_USEFUL_AGE_FRAMES — the paper's loss figure
    mean_upload_kbps: float
    messages_sent: int

    def cdf_at(self, age: int) -> float:
        return sum(p for a, p in self.pdf.items() if a <= age)


def update_age_experiment(
    trace: GameTrace,
    game_map: GameMap,
    latency: LatencyMatrix,
) -> UpdateAgeResult:
    """Run one Watchmen session and extract the Figure 7 series."""
    session = WatchmenSession(
        trace,
        game_map=game_map,
        latency=latency,
        network_config=NetworkConfig(),  # the paper's 1 % loss, fixed network seed
    )
    report = session.run()
    by_kind = {}
    for kind, histogram in report.age_histogram_by_kind.items():
        total = sum(histogram.values())
        by_kind[kind] = (
            {age: count / total for age, count in sorted(histogram.items())}
            if total
            else {}
        )
    return UpdateAgeResult(
        latency_name=latency.name,
        pdf=report.age_pdf(),
        by_kind=by_kind,
        stale_fraction=report.stale_fraction(),
        mean_upload_kbps=report.mean_upload_kbps,
        messages_sent=report.messages_sent,
    )


def figure7_experiment(trace: GameTrace, game_map: GameMap) -> list[UpdateAgeResult]:
    """Both latency sets of Figure 7 (King-like and PeerWise-like)."""
    size = len(trace.player_ids())
    return [
        update_age_experiment(trace, game_map, king_like(size)),
        update_age_experiment(trace, game_map, peerwise_like(size)),
    ]
