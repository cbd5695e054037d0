"""Latency study: does Watchmen meet the 150 ms FPS budget? (Figure 7)

Runs the same game over LAN, King-like and PeerWise-like latency models
(the paper's two wide-area datasets) and over a deliberately slow network,
showing the age distribution of received updates.

Run:  python examples/latency_study.py
"""

from repro.analysis import update_age_experiment
from repro.analysis.report import render_update_age
from repro.game import generate_trace, make_longest_yard
from repro.net.latency import king_like, peerwise_like, uniform_lan


def main() -> None:
    game_map = make_longest_yard()
    trace = generate_trace(
        num_players=12, num_frames=300, seed=5, game_map=game_map
    )
    size = len(trace.player_ids())

    print("Replaying the same match over four network models...\n")
    results = []
    for latency in (
        uniform_lan(size, one_way_ms=0.5),
        king_like(size, seed=5),
        peerwise_like(size, seed=5),
        uniform_lan(size, one_way_ms=90.0),
    ):
        results.append(update_age_experiment(trace, game_map, latency))
    print(render_update_age(results))
    print(
        "\nQuake III tolerates 150 ms (3 frames); the 'stale' column is the "
        "paper's effective-loss metric.  The 90 ms/hop network shows what "
        "happens when two proxy hops no longer fit the budget."
    )


if __name__ == "__main__":
    main()
