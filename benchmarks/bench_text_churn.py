"""In-text IS-churn statistics (Section VI): turnover, spell lengths,
frame-to-frame stability, attention-centre lag."""

from repro.analysis import churn_statistics
from repro.analysis.report import render_churn

from conftest import BENCH_TRACE_PARAMS, publish


def test_text_churn_statistics(yard, bench_trace, results_dir):
    stats = churn_statistics(bench_trace, yard)
    body = render_churn(stats)
    body += (
        "\n(our bot players churn faster than the paper's human traces; "
        "the retention-timeout design conclusion is unchanged)\n"
    )
    publish(results_dir, "text_churn", "In-text IS churn statistics", body,
            params=BENCH_TRACE_PARAMS)

    assert 0.1 <= stats.turnover_after_period <= 0.99
    assert stats.frame_stability >= 0.7
    assert stats.spells_longer_than_cap <= 0.2
    assert stats.slow_attention_centre >= 0.5
