"""Structured bench artifacts and the regression differ CI runs.

Every benchmark run yields rows of one schema::

    {"bench": str, "params": {...}, "metrics": {name: number},
     "wall_seconds": float | None, "timestamp": "ISO-8601"}

The ``benchmarks/`` suite writes rows two ways: one git-ignored
``benchmarks/results/<name>.json`` per bench (next to the human-readable
``.txt`` block) and an aggregated, tracked top-level ``BENCH_core.json``
for the whole run; ``repro chaos``, ``repro lint``, ``repro mc`` and
perfbench emit the same schema.  ``repro bench-diff old.json new.json``
compares two such files and exits nonzero when any metric regresses
beyond the threshold.

Convention: **metrics are costs** — bytes, kbps, seconds, counts — so
"higher" means "worse".  ``wall_seconds`` is machine-dependent and is
excluded from the diff unless explicitly requested; deterministic
harnesses leave it unset (or pinned) and stamp :data:`PINNED_EPOCH`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

__all__ = [
    "BENCH_SCHEMA",
    "PINNED_EPOCH",
    "MetricDelta",
    "bench_row",
    "diff_rows",
    "format_diff",
    "load_bench_rows",
    "write_bench_json",
]

BENCH_SCHEMA = "repro.bench.v1"

#: Default regression gate: a metric >25 % above its baseline fails CI.
DEFAULT_THRESHOLD = 0.25

#: Stamp for artifacts of deterministic harnesses (``repro chaos``, the
#: ``benchmarks/`` suite): the run is a function of its seed, so the
#: artifact must be too — two identical runs emit identical bytes.
PINNED_EPOCH = "1970-01-01T00:00:00+00:00"


def _now_iso() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def bench_row(
    bench: str,
    params: dict | None = None,
    metrics: dict[str, float] | None = None,
    wall_seconds: float | None = None,
    timestamp: str | None = None,
) -> dict:
    """One schema row; fills the timestamp when not supplied."""
    if not bench:
        raise ValueError("bench name must be non-empty")
    return {
        "bench": bench,
        "params": dict(params or {}),
        "metrics": dict(metrics or {}),
        "wall_seconds": wall_seconds,
        "timestamp": timestamp or _now_iso(),
    }


def write_bench_json(
    path: str | Path, rows: list[dict] | dict, generated: str | None = None
) -> Path:
    """Write rows (or a single row) as a schema-stamped artifact.

    ``generated`` overrides the wall-clock stamp — deterministic harnesses
    pass :data:`PINNED_EPOCH` so two identical runs emit identical bytes.
    """
    if isinstance(rows, dict):
        rows = [rows]
    payload = {
        "schema": BENCH_SCHEMA,
        "generated": generated or _now_iso(),
        "rows": rows,
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def load_bench_rows(path: str | Path) -> dict[str, dict]:
    """Rows keyed by bench name; accepts a row, a list, or a schema file.

    When a file carries several rows for one bench (a trajectory), the
    newest row wins — diffs compare latest-vs-latest.
    """
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if isinstance(data, dict) and "rows" in data:
        rows = data["rows"]
    elif isinstance(data, dict):
        rows = [data]
    elif isinstance(data, list):
        rows = data
    else:
        raise ValueError(f"{path}: not a bench artifact")
    keyed: dict[str, dict] = {}
    for row in rows:
        if not isinstance(row, dict) or "bench" not in row:
            raise ValueError(f"{path}: row without a 'bench' field")
        keyed[row["bench"]] = row  # later rows (newer) overwrite earlier
    return keyed


@dataclass(frozen=True)
class MetricDelta:
    """One metric compared across two runs."""

    bench: str
    metric: str
    old: float
    new: float

    @property
    def relative_change(self) -> float:
        """The change as a fraction of the old value's size: positive means
        the metric grew, whatever the old value's sign."""
        if self.old == 0:
            return float("inf") if self.new > 0 else 0.0
        return (self.new - self.old) / abs(self.old)

    def is_regression(self, threshold: float) -> bool:
        return self.relative_change > threshold


def diff_rows(
    old_rows: dict[str, dict],
    new_rows: dict[str, dict],
    threshold: float = DEFAULT_THRESHOLD,
    include_wall: bool = False,
) -> tuple[list[MetricDelta], list[MetricDelta]]:
    """(regressions, others) across the benches both runs share.

    Only numeric metrics present on both sides are compared; benches or
    metrics present on one side only are ignored (new benches must not
    fail the gate retroactively).
    """
    if threshold < 0:
        raise ValueError("threshold must be non-negative")
    regressions: list[MetricDelta] = []
    others: list[MetricDelta] = []
    for bench in sorted(set(old_rows) & set(new_rows)):
        old_metrics = dict(old_rows[bench].get("metrics") or {})
        new_metrics = dict(new_rows[bench].get("metrics") or {})
        if include_wall:
            for rows, metrics in ((old_rows, old_metrics), (new_rows, new_metrics)):
                wall = rows[bench].get("wall_seconds")
                if isinstance(wall, (int, float)):
                    metrics["wall_seconds"] = float(wall)
        for metric in sorted(set(old_metrics) & set(new_metrics)):
            old_value, new_value = old_metrics[metric], new_metrics[metric]
            if not isinstance(old_value, (int, float)) or not isinstance(
                new_value, (int, float)
            ):
                continue
            delta = MetricDelta(bench, metric, float(old_value), float(new_value))
            if delta.is_regression(threshold):
                regressions.append(delta)
            else:
                others.append(delta)
    return regressions, others


def format_diff(
    regressions: list[MetricDelta],
    others: list[MetricDelta],
    threshold: float = DEFAULT_THRESHOLD,
) -> str:
    """Human-readable gate report (what CI prints)."""
    lines = [
        f"bench-diff: {len(regressions) + len(others)} shared metrics, "
        f"gate at +{threshold:.0%}"
    ]
    for delta in regressions:
        lines.append(
            f"  REGRESSION {delta.bench}/{delta.metric}: "
            f"{delta.old:g} -> {delta.new:g} ({delta.relative_change:+.1%})"
        )
    improvements = [d for d in others if d.relative_change < -threshold]
    for delta in improvements:
        lines.append(
            f"  improved   {delta.bench}/{delta.metric}: "
            f"{delta.old:g} -> {delta.new:g} ({delta.relative_change:+.1%})"
        )
    if not regressions:
        lines.append("  no regressions beyond the gate")
    return "\n".join(lines)
