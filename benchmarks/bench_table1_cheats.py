"""Table I: the cheat taxonomy — every row injected and countered."""

from repro.analysis import cheat_matrix_experiment
from repro.analysis.report import render_cheat_matrix

from conftest import SESSION_TRACE_PARAMS, publish


def test_table1_cheat_matrix(yard, session_trace, results_dir):
    outcomes = cheat_matrix_experiment(session_trace, yard)
    body = render_cheat_matrix(outcomes)
    publish(results_dir, "table1_cheats",
            "Table I — cheat taxonomy, measured countermeasures", body,
            params=SESSION_TRACE_PARAMS)

    assert len(outcomes) == 14
    for outcome in outcomes:
        assert outcome.status in (
            "detected",
            "prevented",
            "exposure-minimised",
            "contained",
        ), f"{outcome.cheat_name}: {outcome.evidence}"
