"""Text rendering of experiment results (the rows/series the paper reports)."""

from __future__ import annotations

from repro.analysis.cheat_matrix import CheatOutcome
from repro.analysis.churn import ChurnStats
from repro.analysis.detection import DetectionOutcome
from repro.analysis.exposure import ExposureResult
from repro.analysis.scalability import ScalabilityPoint
from repro.analysis.update_age import UpdateAgeResult
from repro.analysis.witnesses import WitnessResult
from repro.core.disclosure import ExposureCategory

__all__ = [
    "render_table",
    "render_exposure",
    "render_witnesses",
    "render_detection",
    "render_update_age",
    "render_scalability",
    "render_cheat_matrix",
    "render_churn",
]


def render_table(headers: list[str], rows: list[list[str]]) -> str:
    """A plain fixed-width text table."""
    widths = [len(h) for h in headers]
    for row in rows:
        if len(row) != len(headers):
            raise ValueError("row width does not match headers")
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    def fmt(cells: list[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))
    separator = "  ".join("-" * w for w in widths)
    return "\n".join([fmt(headers), separator] + [fmt(row) for row in rows])


def render_exposure(results: list[ExposureResult]) -> str:
    """Figure 4 as text: per model/size, mean honest players per category."""
    headers = ["model", "coalition"] + list(ExposureCategory.ORDER)
    rows = []
    for result in sorted(results, key=lambda r: (r.model_name, r.coalition_size)):
        counts = result.counts()
        rows.append(
            [result.model_name, str(result.coalition_size)]
            + [f"{counts[c]:.1f}" for c in ExposureCategory.ORDER]
        )
    return render_table(headers, rows)


def render_witnesses(results: list[WitnessResult]) -> str:
    """Figure 5 as text."""
    headers = ["coalition", "honest proxy", "IS witnesses", "VS witnesses", "total"]
    rows = [
        [
            str(r.coalition_size),
            f"{r.avg_honest_proxies:.2f}",
            f"{r.avg_interest_witnesses:.2f}",
            f"{r.avg_vision_witnesses:.2f}",
            f"{r.total_witnesses:.2f}",
        ]
        for r in results
    ]
    return render_table(headers, rows)


def render_detection(outcomes: list[DetectionOutcome]) -> str:
    """Figure 6 as text."""
    headers = ["verification", "cheat", "success", "threshold", "honest flag rate"]
    rows = [
        [
            o.check,
            o.cheat_name,
            f"{o.success_rate:.0%}",
            f"{o.threshold:.1f}",
            f"{o.honest_flag_rate:.1%}",
        ]
        for o in outcomes
    ]
    return render_table(headers, rows)


def render_update_age(results: list[UpdateAgeResult]) -> str:
    """Figure 7 as text: the age PDF per latency set."""
    max_age = 6  # columns: the bulk of the PDF and the start of the stale tail
    headers = ["latency set"] + [f"age {a}" for a in range(max_age + 1)] + [
        "stale (≥3)",
        "mean up kbps",
    ]
    rows = []
    for result in results:
        row = [result.latency_name]
        for age in range(max_age + 1):
            row.append(f"{result.pdf.get(age, 0.0):.1%}")
        row.append(f"{result.stale_fraction:.2%}")
        row.append(f"{result.mean_upload_kbps:.0f}")
        rows.append(row)
    return render_table(headers, rows)


def render_scalability(points: list[ScalabilityPoint]) -> str:
    headers = [
        "players",
        "watchmen mean kbps",
        "watchmen max kbps",
        "naive P2P kbps/node",
        "client-server kbps",
    ]
    rows = [
        [
            str(p.num_players),
            f"{p.watchmen_mean_kbps:.0f}",
            f"{p.watchmen_max_kbps:.0f}",
            f"{p.naive_p2p_node_kbps:.0f}",
            f"{p.client_server_kbps:.0f}",
        ]
        for p in points
    ]
    return render_table(headers, rows)


def render_cheat_matrix(outcomes: list[CheatOutcome]) -> str:
    headers = ["cheat", "category", "status", "paper", "evidence"]
    rows = [
        [
            o.cheat_name,
            o.category,
            o.status,
            o.paper_countermeasure[:38],
            o.evidence[:60],
        ]
        for o in outcomes
    ]
    return render_table(headers, rows)


def render_churn(stats: ChurnStats) -> str:
    rows = [
        [
            f"IS turnover after {stats.period} frames",
            f"{stats.turnover_after_period:.0%}",
            "~50% (paper)",
        ],
        [
            f"spells > {stats.long_cap} frames",
            f"{stats.spells_longer_than_cap:.0%}",
            "<10% (paper)",
        ],
        [
            "frame-to-frame IS stability",
            f"{stats.frame_stability:.0%}",
            "~88% (paper)",
        ],
        [
            "IS entries not instantly top-attention",
            f"{stats.slow_attention_centre:.0%}",
            "~83% (paper)",
        ],
    ]
    return render_table(["statistic", "measured", "reference"], rows)
