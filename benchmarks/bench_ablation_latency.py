"""Ablation: the Section VI latency optimizations.

Toggles (1) subscription prediction-ahead and (2) subscriber retention,
and measures the update-age distribution and subscription traffic for
each variant.  The paper's third, the relaxed first hop, is not
reproduced: a publisher that sends around its proxy must learn its
audience, which is what the proxy hides (EXPERIMENTS.md).
"""

import pytest

from repro.core import WatchmenConfig, WatchmenSession
from repro.analysis.report import render_table
from repro.net.latency import king_like

from conftest import SESSION_TRACE_PARAMS, publish

VARIANTS = {
    "full (predict+retain)": {},
    "no prediction": {"predict_ahead": False},
    "short retention": {"subscription_retention_frames": 4},
}


def run_variant(trace, yard, overrides):
    config = WatchmenConfig(**overrides)
    session = WatchmenSession(
        trace,
        game_map=yard,
        config=config,
        latency=king_like(len(trace.player_ids()), seed=9),
    )
    report = session.run()
    total = sum(report.age_histogram.values())
    mean_age = (
        sum(a * c for a, c in report.age_histogram.items()) / total
        if total
        else 0.0
    )
    return report, mean_age


def test_ablation_latency_optimizations(yard, session_trace, results_dir):
    def sweep():
        return {
            name: run_variant(session_trace, yard, overrides)
            for name, overrides in VARIANTS.items()
        }

    outcomes = sweep()

    rows = []
    for name, (report, mean_age) in outcomes.items():
        received = sum(report.age_histogram.values())
        rows.append(
            [
                name,
                f"{mean_age:.2f}",
                f"{report.stale_fraction():.2%}",
                f"{report.mean_upload_kbps:.0f}",
                str(report.messages_sent),
                str(received),
            ]
        )
    body = render_table(
        [
            "variant",
            "mean age (frames)",
            "stale ≥3",
            "up kbps",
            "messages",
            "updates recv",
        ],
        rows,
    )
    body += (
        "\n(short retention drops subscribers between renewals: receivers "
        "starve — the timeout must exceed the subscription round trip)\n"
    )
    publish(results_dir, "ablation_latency",
            "Ablation — Section VI latency optimizations", body,
            params=SESSION_TRACE_PARAMS)

    full_report, _ = outcomes["full (predict+retain)"]
    short_report, _ = outcomes["short retention"]
    # Retention shorter than the subscription round trip starves receivers.
    assert sum(short_report.age_histogram.values()) < sum(
        full_report.age_histogram.values()
    )
    # Every variant still meets the FPS bound in this configuration.
    assert full_report.stale_fraction() == pytest.approx(0.0, abs=0.05)
