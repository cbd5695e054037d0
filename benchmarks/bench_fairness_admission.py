"""Fairness & heterogeneity (Section VI): feasibility test + weighted pools.

A population with mixed uplinks goes through the admission feasibility
test; low-capacity players are excluded from the proxy pool and powerful
ones serve several tenures.  The bench verifies the resulting session (a)
never asks a weak node to forward and (b) still meets the latency budget.
"""

from repro.analysis.report import render_table
from repro.core import WatchmenSession, feasibility_test
from repro.net.latency import king_like

from conftest import SESSION_TRACE_PARAMS, publish


def test_fairness_admission(yard, session_trace, results_dir):
    players = session_trace.player_ids()
    # A third of the players on weak DSL uplinks, a third mid, a third fat.
    capacities = {}
    for index, player in enumerate(players):
        capacities[player] = (120.0, 900.0, 8000.0)[index % 3]

    def sweep():
        decision = feasibility_test(capacities)
        session = WatchmenSession(
            session_trace,
            game_map=yard,
            latency=king_like(len(players), seed=9),
            proxy_pool=decision.proxy_pool,
            pool_weights=decision.pool_weights,
        )
        return decision, session, session.run()

    decision, session, report = sweep()

    weak = [p for p in players if capacities[p] == 120.0]
    rows = []
    for player in players:
        rows.append(
            [
                str(player),
                f"{capacities[player]:.0f}",
                "yes" if player in decision.proxy_pool else "no",
                str(decision.pool_weights.get(player, 0)),
                f"{session.network.meter.upload_kbps(player):.0f}",
            ]
        )
    body = render_table(
        ["player", "capacity kbps", "in pool", "weight", "measured up kbps"],
        rows,
    )
    body += (
        f"\npublisher floor {decision.publisher_kbps:.0f} kbps, one proxy "
        f"tenure {decision.proxy_kbps:.0f} kbps; stale ≥3: "
        f"{report.stale_fraction():.2%}\n"
    )
    publish(results_dir, "fairness_admission",
            "Fairness — feasibility test and weighted proxy pool", body,
            params=SESSION_TRACE_PARAMS)

    # Weak players admitted but never serve as proxies.
    for player in weak:
        assert player in decision.admitted
        assert player not in decision.proxy_pool
        for epoch in range(5):
            for subject in players:
                assert session.schedule.proxy_of(subject, epoch) != player
    # The game still meets the FPS budget.
    assert report.stale_fraction() < 0.05
    # Weak players upload measurably less than the pool members.
    weak_up = sum(session.network.meter.upload_kbps(p) for p in weak) / len(weak)
    pool_up = sum(
        session.network.meter.upload_kbps(p) for p in decision.proxy_pool
    ) / len(decision.proxy_pool)
    assert weak_up < pool_up
