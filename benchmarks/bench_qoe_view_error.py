"""QoE: rendered-view error (the paper's definition of lag).

"lag, here defined as the difference between the game's state at the
player and the actual state" — sampled per pair as the distance between
what a node would render for a remote avatar (dead-reckoned freshest
information) and the avatar's true position.
"""

from repro.core import WatchmenConfig, WatchmenSession
from repro.analysis.report import render_table
from repro.net.latency import king_like, uniform_lan

from conftest import SESSION_TRACE_PARAMS, publish


def test_qoe_view_error(yard, session_trace, results_dir):
    size = len(session_trace.player_ids())

    def sweep():
        outcomes = {}
        for name, latency in (
            ("LAN", uniform_lan(size, one_way_ms=0.5)),
            ("king-like", king_like(size, seed=9)),
            ("slow (90ms/hop)", uniform_lan(size, one_way_ms=90.0)),
        ):
            report = WatchmenSession(
                session_trace,
                game_map=yard,
                latency=latency,
                view_error_stride=10,
            ).run()
            outcomes[name] = report
        return outcomes

    outcomes = sweep()

    rows = []
    for name, report in outcomes.items():
        stats = report.view_error_stats()
        rows.append(
            [
                name,
                f"{stats['median']:.1f}",
                f"{stats['mean']:.0f}",
                f"{stats['p95']:.0f}",
            ]
        )
    body = render_table(
        ["network", "median view error (u)", "mean (u)", "p95 (u)"], rows
    )
    body += (
        "\n(median reflects IS/VS neighbours — what the player actually "
        "looks at; the p95 tail is the Others set, known only through 1 Hz "
        "positions by design)\n"
    )
    publish(results_dir, "qoe_view_error", "QoE — rendered view error", body,
            params=SESSION_TRACE_PARAMS)

    lan = outcomes["LAN"].view_error_stats()
    king = outcomes["king-like"].view_error_stats()
    slow = outcomes["slow (90ms/hop)"].view_error_stats()
    assert lan["median"] <= king["median"] <= slow["median"]
    assert king["median"] < 64.0  # within ~2 avatar widths at WAN latency
