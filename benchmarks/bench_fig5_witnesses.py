"""Figure 5: levels of information about cheaters available to witnesses.

Regenerates the witness-availability curves (honest proxies, IS witnesses,
VS witnesses vs coalition size) plus the in-text honest-proxy probability.
"""

from repro.analysis import honest_proxy_probability, witness_experiment
from repro.analysis.report import render_witnesses

from conftest import BENCH_TRACE_PARAMS, publish

COALITION_SIZES = [1, 2, 4, 8, 12]


def test_fig5_witnesses(yard, bench_trace, results_dir):
    results = witness_experiment(
        bench_trace, yard, COALITION_SIZES, coalitions_per_size=6, frame_stride=40
    )
    body = render_witnesses(results)
    n = len(bench_trace.player_ids())
    body += "\n\nanalytic honest-proxy probability 1-(k-1)/(n-1):\n"
    for size in COALITION_SIZES:
        body += f"  k={size:>2}: {honest_proxy_probability(n, size):.2%}\n"
    body += (
        "\n(paper, 48 players: k=4 keeps an honest proxy 94% of the time "
        "and ~10 honest witnesses)\n"
    )
    publish(results_dir, "fig5_witnesses",
            "Figure 5 — witness availability under collusion", body,
            params={**BENCH_TRACE_PARAMS, "coalition_sizes": COALITION_SIZES})

    by_size = {r.coalition_size: r for r in results}
    # Solo cheaters always have an honest proxy; more colluders, fewer.
    assert by_size[1].avg_honest_proxies == 1.0
    assert by_size[12].avg_honest_proxies < by_size[1].avg_honest_proxies
    # Empirical proxy honesty tracks the analytic curve.
    for size in COALITION_SIZES:
        assert abs(
            by_size[size].avg_honest_proxies
            - honest_proxy_probability(n, size)
        ) < 0.12
    # Plenty of witnesses remain even with 12 colluders of 24 players.
    assert by_size[12].total_witnesses > 1.0
