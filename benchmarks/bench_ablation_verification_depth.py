"""Ablation: sanity checks vs action-repetition replay (Section V-A).

The paper ships sanity checks "for efficiency reasons" and notes that
"action repetition checks ... would provide more accuracy but incur
higher costs".  This bench quantifies both halves of that sentence on a
*sub-envelope* cheat (a 1.2× speed multiplier the sanity check's
tolerance forgives).
"""

from repro.analysis.detection import wire_cheat
from repro.analysis.report import render_table
from repro.cheats import SpeedHack
from repro.core import WatchmenConfig, WatchmenSession
from repro.net.latency import uniform_lan

from conftest import SESSION_TRACE_PARAMS, publish


def run_depth(trace, yard, action_repetition: bool):
    config = WatchmenConfig(action_repetition=action_repetition)
    cheat = SpeedHack(factor=1.2, cheat_rate=0.3, seed=5)
    wire_cheat(cheat, 0, trace, yard, config)
    session = WatchmenSession(
        trace,
        game_map=yard,
        config=config,
        behaviours={0: cheat},
        latency=uniform_lan(len(trace.player_ids())),
    )
    report = session.run()
    # Honest movement rates exactly 1.0 under both checks, so any rating
    # above ~2 is a real signal; the sub-envelope cheat produces small but
    # systematic reachability gaps (≈3u for a 1.2x multiplier).
    hits = false_hits = 0
    for r in report.ratings:
        if r.check == "position" and r.rating >= 2.0:
            hits += r.subject_id == 0
            false_hits += r.subject_id != 0
    replays = sum(
        node.action_repetition_verifier.replays_run
        for node in session.nodes.values()
        if node.action_repetition_verifier is not None
    )
    return {
        "hits": hits,
        "false_hits": false_hits,
        "cheat_events": len(cheat.log.cheat_frames),
        "replays": replays,
    }


def test_ablation_verification_depth(yard, session_trace, results_dir):
    def sweep():
        return {
            "sanity checks": run_depth(session_trace, yard, False),
            "action repetition": run_depth(session_trace, yard, True),
        }

    outcomes = sweep()

    rows = [
        [
            name,
            str(o["hits"]),
            str(o["cheat_events"]),
            str(o["false_hits"]),
            str(o["replays"]),
        ]
        for name, o in outcomes.items()
    ]
    body = render_table(
        ["depth", "detections", "cheat events", "honest FPs", "physics replays"],
        rows,
    )
    body += (
        "\n(a 1.2x speed hack hides inside the sanity check's tolerance; "
        "the replay check exposes it — at the price of the physics replays)\n"
    )
    publish(results_dir, "ablation_verification_depth",
            "Ablation — verification depth", body,
            params=SESSION_TRACE_PARAMS)

    sanity = outcomes["sanity checks"]
    replay = outcomes["action repetition"]
    assert replay["hits"] > sanity["hits"]
    assert replay["false_hits"] == 0
    assert replay["replays"] > 10_000  # the "higher costs" half
