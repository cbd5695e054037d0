"""Churn handling (Section VI): detection, agreement, schedule convergence.

A player unplugs mid-game; the heartbeat silence is detected, signed
removal proposals reach quorum, and every honest node swaps to the same
reduced proxy schedule at the same epoch — while the game keeps meeting
its latency budget.
"""

from repro.core import WatchmenSession
from repro.analysis.report import render_table
from repro.faults import CrashFault, FaultSchedule
from repro.net.latency import king_like

from conftest import SESSION_TRACE_PARAMS, publish


def test_churn_agreement(yard, session_trace, results_dir):
    players = session_trace.player_ids()
    departing = players[5]
    depart_frame = 60

    def run():
        session = WatchmenSession(
            session_trace,
            game_map=yard,
            latency=king_like(len(players), seed=9),
            faults=FaultSchedule(
                crashes=(CrashFault(node_id=departing, frame=depart_frame),)
            ),
        )
        report = session.run()
        return session, report

    session, report = run()

    honest_nodes = [n for p, n in session.nodes.items() if p != departing]
    agreed = sum(1 for n in honest_nodes if departing in n.membership.removed)
    removal_frames = set()
    for node in honest_nodes:
        if departing not in node.schedule.roster:
            removal_frames.add(tuple(node.schedule.roster))

    first_flag = min(
        (
            r.frame
            for r in report.ratings
            if r.subject_id == departing and r.frame > depart_frame
            and r.rating >= 5.0
        ),
        default=None,
    )
    body = render_table(
        ["metric", "value"],
        [
            ["departure frame", str(depart_frame)],
            ["first silence flag", str(first_flag)],
            ["honest nodes agreeing on removal",
             f"{agreed}/{len(honest_nodes)}"],
            ["distinct post-removal rosters", str(len(removal_frames))],
            ["stale ≥3 after churn", f"{report.stale_fraction():.2%}"],
            ["honest players banned", str(len(report.banned - {departing}))],
        ],
    )
    body += (
        "\n(detection → proposal broadcast → quorum → removal at the next "
        "epoch boundary, identical at every honest node)\n"
    )
    publish(results_dir, "churn", "Churn — departure agreement round", body,
            params=SESSION_TRACE_PARAMS)

    assert agreed == len(honest_nodes)
    assert len(removal_frames) == 1
    assert report.banned - {departing} == set()
