"""Unified observability: metrics registry, bench artifacts.

See ``docs/OBSERVABILITY.md`` for the registry API, the JSON schemas and
how CI consumes them.  Quick taste::

    from repro.obs import MetricsRegistry, use_registry
    from repro.core import WatchmenSession

    registry = MetricsRegistry()
    with use_registry(registry):  # objects bind their handles when built
        report = WatchmenSession(trace).run()
    print(registry.snapshot()["counters"]["net.datagrams.sent"])
"""

from repro.obs.emit import (
    BENCH_SCHEMA,
    PINNED_EPOCH,
    MetricDelta,
    bench_row,
    diff_rows,
    format_diff,
    load_bench_rows,
    write_bench_json,
)
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    exponential_buckets,
    get_registry,
    set_registry,
    use_registry,
)
from repro.obs.stats import nearest_rank

__all__ = [
    "BENCH_SCHEMA",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricDelta",
    "MetricsRegistry",
    "PINNED_EPOCH",
    "bench_row",
    "diff_rows",
    "exponential_buckets",
    "format_diff",
    "get_registry",
    "load_bench_rows",
    "nearest_rank",
    "set_registry",
    "use_registry",
    "write_bench_json",
]
