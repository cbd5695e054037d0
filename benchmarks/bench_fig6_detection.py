"""Figure 6: success rates of the verification mechanisms.

Regenerates all five bars — Position, Kill, Guidance, IS-sub, VS-sub —
with a cheater sending ~10 % invalid messages and FP capped at 5 %.
"""

from repro.analysis import figure6_experiment
from repro.analysis.report import render_detection

from conftest import SESSION_TRACE_PARAMS, publish


def test_fig6_detection(yard, session_trace, results_dir):
    outcomes = figure6_experiment(session_trace, yard)
    body = render_detection(outcomes)
    body += (
        "\n\n(paper: all five verifications detect the injected cheats "
        "with high success at ≤5% false positives)\n"
    )
    publish(results_dir, "fig6_detection",
            "Figure 6 — verification success rates", body,
            params=SESSION_TRACE_PARAMS)

    by_check = {o.check: o for o in outcomes}
    assert set(by_check) == {"position", "kill", "guidance", "is-sub", "vs-sub"}
    for outcome in outcomes:
        # The paper's operating point: at most 5 % of honest actions
        # flagged, for every family, on the cheat run itself.
        assert outcome.honest_flag_rate <= 0.05, outcome.check
        assert outcome.success_rate >= 0.5, outcome.check
    # The strongest detectors are the physics-grounded ones.
    assert by_check["position"].success_rate >= 0.75
    assert by_check["kill"].success_rate >= 0.75
