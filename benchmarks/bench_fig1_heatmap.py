"""Figure 1: presence heatmaps — human vs NPC movement patterns.

Regenerates both panels: (a) human-like players, (b) waypoint NPCs, and
reports the hotspot-concentration statistic that motivates abandoning
fixed-radius AOI filtering.
"""

from repro.analysis import hotspot_concentration, presence_heatmap, render_ascii
from repro.game import generate_trace

from conftest import BENCH_TRACE_PARAMS, publish


def test_fig1_heatmaps(yard, bench_trace, results_dir):
    npc_trace = generate_trace(
        num_players=24, num_frames=400, seed=2013, npc_fraction=1.0,
        game_map=yard,
    )

    def build():
        human = presence_heatmap(bench_trace, yard, grid=24)
        npc = presence_heatmap(npc_trace, yard, grid=24)
        return human, npc

    human, npc = build()

    human_conc = hotspot_concentration(human)
    npc_conc = hotspot_concentration(npc)
    body = "\n".join(
        [
            "(a) Human movements (log-normalised presence):",
            render_ascii(human),
            "",
            "(b) NPC movements:",
            render_ascii(npc),
            "",
            f"presence in top 10% of cells — humans: {human_conc:.0%}, "
            f"NPCs: {npc_conc:.0%} (uniform would be 10%)",
        ]
    )
    publish(results_dir, "fig1_heatmap", "Figure 1 — presence heatmaps", body,
            params=BENCH_TRACE_PARAMS)

    assert human_conc > 0.4
    assert npc_conc > 0.4
