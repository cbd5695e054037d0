"""Ablation: the proxy renewal period.

"The proxy period is chosen long enough to be able to cross-check updates,
but not long enough for colluding cheaters to cooperate" — sweep the
period and measure both sides of that trade-off: handoff overhead and the
window a cheating proxy controls one victim.
"""

from repro.core import WatchmenConfig, WatchmenSession
from repro.core.messages import HandoffMessage
from repro.analysis.report import render_table
from repro.net.latency import king_like

from conftest import SESSION_TRACE_PARAMS, publish

PERIODS = [10, 20, 40, 80, 160]


def test_ablation_proxy_period(yard, session_trace, results_dir):
    def sweep():
        outcomes = {}
        for period in PERIODS:
            config = WatchmenConfig(proxy_period_frames=period)
            session = WatchmenSession(
                session_trace,
                game_map=yard,
                config=config,
                latency=king_like(len(session_trace.player_ids()), seed=9),
            )
            report = session.run()
            handoffs = sum(
                1
                for node in session.nodes.values()
                for _ in [None]
            )
            del handoffs
            outcomes[period] = report
        return outcomes

    outcomes = sweep()

    rows = []
    for period, report in outcomes.items():
        window_seconds = period * 0.05
        rows.append(
            [
                str(period),
                f"{window_seconds:.1f}s",
                f"{report.mean_upload_kbps:.0f}",
                f"{report.stale_fraction():.2%}",
                str(sum(r.rating >= 6 for r in report.ratings)),
            ]
        )
    body = render_table(
        [
            "period (frames)",
            "collusion window",
            "up kbps",
            "stale ≥3",
            "high ratings",
        ],
        rows,
    )
    body += (
        "\n(shorter periods shrink what a malicious proxy controls but add "
        "handoff traffic; the paper settles on ~2s)\n"
    )
    publish(results_dir, "ablation_proxy_period",
            "Ablation — proxy renewal period", body,
            params={**SESSION_TRACE_PARAMS, "periods": PERIODS})

    # Shorter period → more handoff traffic → more upload.
    assert (
        outcomes[PERIODS[0]].mean_upload_kbps
        >= outcomes[PERIODS[-1]].mean_upload_kbps
    )
    # Responsiveness unaffected by the proxy period.
    for report in outcomes.values():
        assert report.stale_fraction() < 0.05
