"""Figure 7: distribution of the age of received updates.

Regenerates both series (King-like and PeerWise-like latency sets, 1 %
loss) and the paper's operating claim: messages 3+ frames old (≥150 ms)
count as loss, and they are rare.
"""

from repro.analysis import figure7_experiment
from repro.analysis.report import render_update_age

from conftest import SESSION_TRACE_PARAMS, publish


def test_fig7_update_age(yard, session_trace, results_dir):
    results = figure7_experiment(session_trace, yard)
    body = render_update_age(results)
    body += (
        "\n(paper: with ~62/68 ms mean RTT and 1% loss, almost all updates "
        "arrive within 2 frames; ≥3 frames counts as loss and stays small)\n"
    )
    publish(results_dir, "fig7_update_age",
            "Figure 7 — age of received updates", body,
            params=SESSION_TRACE_PARAMS)

    for result in results:
        assert result.cdf_at(2) > 0.90, result.latency_name
        assert result.stale_fraction < 0.05, result.latency_name
