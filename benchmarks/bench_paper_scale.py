"""Paper-scale validation: the 48-player headline numbers.

The paper's evaluation uses 48-player q3dm17 traces.  The default benches
run smaller rosters for wall-clock reasons; this bench runs the exposure
and witness analyses at the paper's exact scale and checks its two most
quotable numbers directly:

- a cheater colluding with 3 others keeps an honest proxy ~94 % of the
  time (1 − 3/47);
- a coalition of four holds minimum information (1 Hz positions only) for
  roughly a third of the honest players, and Donnybrook hands the same
  coalition dead-reckoning-or-better about everyone.
"""

from repro.analysis import (
    exposure_experiment,
    honest_proxy_probability,
    witness_experiment,
)
from repro.analysis.exposure import result_matrix
from repro.analysis.report import render_exposure, render_witnesses
from repro.core.disclosure import ExposureCategory
from repro.game import generate_trace

from conftest import publish


def test_paper_scale_48_players(yard, results_dir):
    def run():
        trace = generate_trace(
            num_players=48, num_frames=240, seed=48, game_map=yard
        )
        exposure = exposure_experiment(
            trace,
            yard,
            coalition_sizes=[1, 4, 8],
            coalitions_per_size=4,
            frame_stride=60,
        )
        witnesses = witness_experiment(
            trace,
            yard,
            coalition_sizes=[1, 4, 8],
            coalitions_per_size=4,
            frame_stride=60,
        )
        return trace, exposure, witnesses

    trace, exposure, witnesses = run()

    matrix = result_matrix(exposure)
    honest = 48 - 4
    watchmen4 = matrix["watchmen"][4]
    donny4 = matrix["donnybrook"][4]
    min_info = watchmen4[ExposureCategory.INFREQ] / honest
    donny_informed = (
        donny4[ExposureCategory.DR]
        + donny4[ExposureCategory.FREQ]
        + donny4[ExposureCategory.FREQ_DR]
    ) / honest
    by_size = {w.coalition_size: w for w in witnesses}

    body = render_exposure(exposure)
    body += "\n\n" + render_witnesses(witnesses)
    body += (
        f"\npaper (48 players, coalition of 4):"
        f"\n  honest proxy 94%         -> measured "
        f"{by_size[4].avg_honest_proxies:.0%}"
        f" (analytic {honest_proxy_probability(48, 4):.0%})"
        f"\n  ~10 honest witnesses     -> measured "
        f"{by_size[4].total_witnesses:.1f}"
        f"\n  Watchmen min-info ~31%   -> measured {min_info:.0%}"
        f"\n  Donnybrook informed 100% -> measured {donny_informed:.0%}\n"
    )
    publish(results_dir, "paper_scale",
            "Paper scale — 48-player headline numbers", body,
            params={"seed": 48, "players": 48, "frames": 240})

    # The in-text 94 % claim, at the paper's own scale.
    assert abs(by_size[4].avg_honest_proxies - (1 - 3 / 47)) < 0.06
    # ~10 witnesses per cheater at 48 players.
    assert by_size[4].total_witnesses > 5.0
    # Watchmen minimum-information share in the paper's ballpark.
    assert 0.15 <= min_info <= 0.6
    # Donnybrook exposes everyone.
    assert donny_informed > 0.99

