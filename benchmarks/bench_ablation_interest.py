"""Ablation: interest-set size and vision-cone slack.

IS size 5 is the paper's attention-span default; this sweep shows the
bandwidth/exposure trade-off it buys, and what the cone slack costs.
"""

import math

from repro.analysis import exposure_experiment
from repro.analysis.exposure import result_matrix
from repro.analysis.report import render_table
from repro.core import WatchmenConfig, WatchmenSession
from repro.core.disclosure import ExposureCategory
from repro.game.interest import InterestConfig
from repro.net.latency import king_like

from conftest import SESSION_TRACE_PARAMS, publish

IS_SIZES = [2, 5, 10]


def test_ablation_interest_size(yard, session_trace, results_dir):
    def sweep():
        outcomes = {}
        for size in IS_SIZES:
            interest = InterestConfig(interest_size=size)
            config = WatchmenConfig(interest=interest)
            session = WatchmenSession(
                session_trace,
                game_map=yard,
                config=config,
                latency=king_like(len(session_trace.player_ids()), seed=9),
            )
            report = session.run()
            from repro.analysis.exposure import default_models

            exposure = exposure_experiment(
                session_trace,
                yard,
                coalition_sizes=[4],
                models=default_models(session_trace, yard, interest=interest),
                coalitions_per_size=4,
                frame_stride=60,
            )
            matrix = result_matrix(exposure)
            outcomes[size] = (report, matrix["watchmen"][4])
        return outcomes

    outcomes = sweep()

    rows = []
    for size, (report, exposure_counts) in outcomes.items():
        rich = (
            exposure_counts[ExposureCategory.FREQ]
            + exposure_counts[ExposureCategory.FREQ_DR]
        )
        rows.append(
            [
                str(size),
                f"{report.mean_upload_kbps:.0f}",
                f"{rich:.1f}",
                f"{exposure_counts[ExposureCategory.INFREQ]:.1f}",
            ]
        )
    body = render_table(
        ["IS size", "up kbps", "freq-exposed players", "min-info players"],
        rows,
    )
    body += "\n(bigger IS = more bandwidth and more frequent-state exposure)\n"
    publish(results_dir, "ablation_interest",
            "Ablation — interest-set size", body,
            params={**SESSION_TRACE_PARAMS, "is_sizes": IS_SIZES})

    small_report = outcomes[IS_SIZES[0]][0]
    large_report = outcomes[IS_SIZES[-1]][0]
    assert small_report.mean_upload_kbps < large_report.mean_upload_kbps
