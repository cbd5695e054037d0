"""Trace study: presence heatmaps and interest-set dynamics (Figure 1).

Shows why fixed-radius AOI filtering fails — presence concentrates on a
few platforms (items, the central railgun) — and measures the IS churn
statistics that justify subscriber retention.

Run:  python examples/trace_study.py
"""

from repro.analysis import (
    churn_statistics,
    hotspot_concentration,
    presence_heatmap,
    render_ascii,
)
from repro.analysis.report import render_churn
from repro.game import generate_trace, make_longest_yard


def main() -> None:
    game_map = make_longest_yard()

    print("Simulating human-like players vs NPCs (24 players, 300 frames)...")
    humans = generate_trace(
        num_players=24, num_frames=300, seed=21, game_map=game_map
    )
    npcs = generate_trace(
        num_players=24, num_frames=300, seed=21, npc_fraction=1.0,
        game_map=game_map,
    )

    print("\n(a) Human movements — darker = more presence:\n")
    human_map = presence_heatmap(humans, game_map, grid=24)
    print(render_ascii(human_map))
    print("\n(b) NPC movements (predetermined waypoint paths):\n")
    npc_map = presence_heatmap(npcs, game_map, grid=24)
    print(render_ascii(npc_map))

    print(
        f"\npresence held by the top 10% of cells — humans: "
        f"{hotspot_concentration(human_map):.0%}, NPCs: "
        f"{hotspot_concentration(npc_map):.0%} (uniform: 10%)"
    )
    print(
        "A fixed-radius AOI centred on a hotspot would contain a large "
        "share of the game — which is why Watchmen filters by vision and "
        "attention instead."
    )

    print("\nInterest-set dynamics over the human trace:\n")
    print(render_churn(churn_statistics(humans, game_map)))


if __name__ == "__main__":
    main()
