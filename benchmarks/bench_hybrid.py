"""Hybrid architecture (Section VI): a trusted game server in the proxy pool.

Compares pure P2P Watchmen against the hybrid deployment where a game
server proxies every player — "providing the game lobby, extra bandwidth,
and becoming the proxy for some or all players" — on bandwidth,
responsiveness, and the proxy-exposure channel.
"""

from repro.core import WatchmenSession
from repro.analysis.report import render_table
from repro.net.latency import king_like

from conftest import SESSION_TRACE_PARAMS, publish


def test_hybrid_vs_pure_p2p(yard, session_trace, results_dir):
    size = len(session_trace.player_ids())

    def sweep():
        pure = WatchmenSession(
            session_trace,
            game_map=yard,
            latency=king_like(size, seed=9),
        ).run()
        hybrid = WatchmenSession(
            session_trace,
            game_map=yard,
            latency=king_like(size + 1, seed=9),
            servers=1,
        ).run()
        weighted = WatchmenSession(
            session_trace,
            game_map=yard,
            latency=king_like(size + 1, seed=9),
            servers=1,
            server_only_proxies=False,
            server_weight=6,
        ).run()
        return pure, hybrid, weighted

    pure, hybrid, weighted = sweep()

    def row(name, report):
        server_up = (
            f"{max(report.server_upload_kbps.values()):.0f}"
            if report.server_upload_kbps
            else "-"
        )
        return [
            name,
            f"{report.mean_upload_kbps:.0f}",
            f"{report.max_upload_kbps:.0f}",
            server_up,
            f"{report.stale_fraction():.2%}",
        ]

    body = render_table(
        ["deployment", "player mean kbps", "player max kbps",
         "server kbps", "stale ≥3"],
        [
            row("pure P2P", pure),
            row("server proxies all", hybrid),
            row("server weighted (6x)", weighted),
        ],
    )
    body += (
        "\n(with a trusted server as sole proxy, no player ever holds "
        "proxy-grade information about another — the Figure 4 'complete' "
        "channel closes — and player upload drops, at the cost of hosting "
        "the server's forwarding load)\n"
    )
    publish(results_dir, "hybrid", "Hybrid architecture comparison", body,
            params=SESSION_TRACE_PARAMS)

    # Players shed forwarding load onto the server.
    assert hybrid.mean_upload_kbps < pure.mean_upload_kbps
    assert max(hybrid.server_upload_kbps.values()) > pure.max_upload_kbps
    # Responsiveness unchanged.
    assert hybrid.stale_fraction() < 0.05
    assert weighted.stale_fraction() < 0.05
