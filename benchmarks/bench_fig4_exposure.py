"""Figure 4: information about players available to colluding cheaters.

Regenerates the three stacked histograms (client/server, Donnybrook,
Watchmen) over coalition sizes, and checks the paper's headline numbers
for a coalition of four.
"""

from repro.analysis import exposure_experiment
from repro.analysis.exposure import result_matrix
from repro.analysis.report import render_exposure
from repro.core.disclosure import ExposureCategory

from conftest import BENCH_TRACE_PARAMS, publish

COALITION_SIZES = [1, 2, 4, 8, 12]


def test_fig4_exposure(yard, bench_trace, results_dir):
    results = exposure_experiment(
        bench_trace, yard, COALITION_SIZES, coalitions_per_size=6, frame_stride=40
    )
    body = render_exposure(results)
    matrix = result_matrix(results)

    honest = 24 - 4
    watchmen4 = matrix["watchmen"][4]
    donny4 = matrix["donnybrook"][4]
    minimum_info = watchmen4[ExposureCategory.INFREQ] / honest
    partial_info = (
        watchmen4[ExposureCategory.DR] + watchmen4[ExposureCategory.FREQ]
    ) / honest
    donny_dr_only = donny4[ExposureCategory.DR] / honest
    body += (
        f"\n\ncoalition of 4 (paper: Watchmen min-info ≈31%, partial ≈48%; "
        f"Donnybrook DR-only ≈65%):\n"
        f"  watchmen minimum info : {minimum_info:.0%}\n"
        f"  watchmen partial info : {partial_info:.0%}\n"
        f"  donnybrook DR-only    : {donny_dr_only:.0%}\n"
    )
    publish(results_dir, "fig4_exposure",
            "Figure 4 — coalition information disclosure", body,
            params={**BENCH_TRACE_PARAMS, "coalition_sizes": COALITION_SIZES})

    # Shape assertions: who wins and in which direction.
    for size in COALITION_SIZES:
        watchmen_rich = sum(
            matrix["watchmen"][size][c]
            for c in (
                ExposureCategory.COMPLETE,
                ExposureCategory.FREQ_DR,
                ExposureCategory.FREQ,
                ExposureCategory.DR,
            )
        )
        donny_rich = sum(
            matrix["donnybrook"][size][c]
            for c in (
                ExposureCategory.FREQ_DR,
                ExposureCategory.FREQ,
                ExposureCategory.DR,
            )
        )
        assert watchmen_rich < donny_rich
    assert minimum_info > 0.15
    assert donny_dr_only > 0.4
