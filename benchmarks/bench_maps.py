"""Map sensitivity: IS churn and visibility across map regimes.

"While this value can be slightly different for different maps, we found
it to be fairly accurate for most gaming sessions" — the subscriber-
retention timeout derives from IS churn, so this bench recomputes the
churn statistics on the open longest-yard map and on the heavily occluded
corridors map.
"""

from repro.analysis import churn_statistics
from repro.analysis.report import render_table
from repro.game import compute_sets, generate_trace, make_corridors

from conftest import BENCH_TRACE_PARAMS, publish


def mean_set_sizes(trace, game_map):
    interest_total, vision_total, samples = 0, 0, 0
    for frame in range(40, trace.num_frames, 60):
        snapshots = trace.frames[frame]
        for snap in snapshots.values():
            sets = compute_sets(snap, snapshots, game_map, frame)
            interest_total += len(sets.interest)
            vision_total += len(sets.vision)
            samples += 1
    return interest_total / samples, vision_total / samples


def test_map_sensitivity(yard, bench_trace, results_dir):
    corridors = make_corridors()

    def sweep():
        tight_trace = generate_trace(
            num_players=24, num_frames=400, seed=2013, game_map=corridors
        )
        return {
            "longest-yard (open)": (
                churn_statistics(bench_trace, yard),
                mean_set_sizes(bench_trace, yard),
            ),
            "corridors (occluded)": (
                churn_statistics(tight_trace, corridors),
                mean_set_sizes(tight_trace, corridors),
            ),
        }

    outcomes = sweep()

    rows = []
    for name, (stats, (mean_is, mean_vs)) in outcomes.items():
        rows.append(
            [
                name,
                f"{mean_is:.1f}",
                f"{mean_vs:.1f}",
                f"{stats.turnover_after_period:.0%}",
                f"{stats.frame_stability:.0%}",
            ]
        )
    body = render_table(
        ["map", "mean IS", "mean VS", "IS turnover/40f", "frame stability"],
        rows,
    )
    body += (
        "\n(occlusion shrinks the visible sets; the retention timeout "
        "derived on one map transfers because churn stays in the same "
        "regime — the paper's cross-map observation)\n"
    )
    publish(results_dir, "maps", "Map sensitivity — churn & visibility", body,
            params=BENCH_TRACE_PARAMS)

    open_sets = outcomes["longest-yard (open)"][1]
    tight_sets = outcomes["corridors (occluded)"][1]
    assert tight_sets[0] + tight_sets[1] < open_sets[0] + open_sets[1]
    for stats, _ in outcomes.values():
        assert 0.1 <= stats.turnover_after_period <= 0.99
