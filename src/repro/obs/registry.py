"""A dependency-free metrics registry for the whole reproduction.

The paper is an engineering-budget argument (50 ms frames, ≤150 ms
end-to-end, per-node kbps vs the 120·n kbps client-server figure), so the
codebase needs first-class measurements, not printf.  This module provides
the three classic instrument kinds:

- :class:`Counter` — monotonically increasing event/byte counts;
- :class:`Gauge` — last-written values (bandwidth, roster sizes);
- :class:`Histogram` — fixed-bucket distributions with p50/p95/p99/max
  of *simulated* quantities (delivery delays, update ages).

Nothing here reads a host clock: how long the system takes is measured by
``perfbench/`` and nowhere else (docs/PERFORMANCE.md, "One clock").

Design constraints, in order:

1. **Near-zero overhead when disabled.**  A disabled registry hands out
   shared null singletons whose methods are no-ops; instrumented code
   binds its metric handles once at construction from
   :func:`get_registry`, so the steady-state cost of disabled
   instrumentation is one no-op method call per event and zero
   allocations.  :class:`use_registry` around build + run is the one way
   to collect.
2. **No dependencies.**  Pure stdlib, single-threaded by design (the
   whole simulation is a discrete-event loop).
3. **Machine-readable.**  :meth:`MetricsRegistry.snapshot` returns plain
   dicts ready for ``json.dumps`` — the schema CI's bench-diff consumes
   (see ``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

import json
from bisect import bisect_left

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_COUNTER",
    "NULL_GAUGE",
    "NULL_HISTOGRAM",
    "exponential_buckets",
    "get_registry",
    "set_registry",
    "use_registry",
]


def exponential_buckets(start: float, factor: float, count: int) -> tuple[float, ...]:
    """Geometric bucket upper bounds: ``start * factor**i`` for i < count."""
    if start <= 0:
        raise ValueError("start must be positive")
    if factor <= 1.0:
        raise ValueError("factor must be > 1")
    if count < 1:
        raise ValueError("count must be >= 1")
    return tuple(start * factor**i for i in range(count))


#: Default buckets for second-valued histograms: 2 µs .. ~17 s, ×2 steps.
TIME_BUCKETS = exponential_buckets(2e-6, 2.0, 24)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A last-written value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, delta: float) -> None:
        self.value += delta


class Histogram:
    """Fixed-bucket histogram with exact count/sum/min/max.

    ``bounds`` are inclusive upper edges; values above the last bound land
    in an overflow bucket whose effective upper edge is the observed max.
    Percentiles interpolate linearly inside the containing bucket, so with
    buckets much finer than the distribution the error is a fraction of
    one bucket width.
    """

    __slots__ = ("name", "bounds", "buckets", "count", "total", "min", "max")

    def __init__(self, name: str, bounds: tuple[float, ...] | None = None) -> None:
        self.name = name
        self.bounds = tuple(sorted(bounds)) if bounds else TIME_BUCKETS
        if not self.bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.buckets = [0] * (len(self.bounds) + 1)  # +1 = overflow
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def record(self, value: float) -> None:
        self.buckets[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Estimated q-quantile (q in [0, 1]) via in-bucket interpolation."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if self.count == 0:
            return 0.0
        target = q * self.count
        cumulative = 0.0
        for index, bucket_count in enumerate(self.buckets):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= target:
                lower = self.min if index == 0 else self.bounds[index - 1]
                upper = self.max if index == len(self.bounds) else self.bounds[index]
                lower = max(lower, self.min)
                upper = min(upper, self.max)
                if upper <= lower:
                    return lower
                fraction = (target - cumulative) / bucket_count
                return lower + fraction * (upper - lower)
            cumulative += bucket_count
        return self.max

    def summary(self) -> dict[str, float]:
        """The snapshot row: count/sum/mean/min/max/p50/p95/p99."""
        if self.count == 0:
            return {"count": 0}
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
        }


class _NullCounter:
    __slots__ = ()
    name = "<null>"
    value = 0

    def inc(self, amount: int = 1) -> None:
        return None


class _NullGauge:
    __slots__ = ()
    name = "<null>"
    value = 0.0

    def set(self, value: float) -> None:
        return None

    def add(self, delta: float) -> None:
        return None


class _NullHistogram:
    __slots__ = ()
    name = "<null>"
    count = 0
    mean = 0.0

    def record(self, value: float) -> None:
        return None

    def percentile(self, q: float) -> float:
        return 0.0

    def summary(self) -> dict[str, float]:
        return {"count": 0}


NULL_COUNTER = _NullCounter()
NULL_GAUGE = _NullGauge()
NULL_HISTOGRAM = _NullHistogram()


class MetricsRegistry:
    """Names → instruments; the one place a snapshot is read from.

    A disabled registry (``enabled=False``) returns the shared null
    singletons from every factory, so instrumented code pays a no-op
    method call per event and allocates nothing.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # ---- instrument factories ---------------------------------------------

    def counter(self, name: str) -> Counter | _NullCounter:
        if not self.enabled:
            return NULL_COUNTER
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def gauge(self, name: str) -> Gauge | _NullGauge:
        if not self.enabled:
            return NULL_GAUGE
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge(name)
        return gauge

    def histogram(
        self, name: str, bounds: tuple[float, ...] | None = None
    ) -> Histogram | _NullHistogram:
        if not self.enabled:
            return NULL_HISTOGRAM
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(name, bounds)
        return histogram

    # ---- export ------------------------------------------------------------

    def snapshot(self) -> dict[str, object]:
        """Plain-dict view of every instrument, ready for ``json.dumps``."""
        return {
            "enabled": self.enabled,
            "counters": {
                name: counter.value
                for name, counter in sorted(self._counters.items())
            },
            "gauges": {
                name: gauge.value for name, gauge in sorted(self._gauges.items())
            },
            "histograms": {
                name: histogram.summary()
                for name, histogram in sorted(self._histograms.items())
            },
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)


#: The process-wide default registry: disabled, so uninstrumented runs
#: (unit tests, plain library use) pay only no-op calls.
_default_registry = MetricsRegistry(enabled=False)


def get_registry() -> MetricsRegistry:
    """The current process-wide registry (disabled unless swapped in)."""
    return _default_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` as the process-wide default; returns the old one."""
    global _default_registry
    previous = _default_registry
    _default_registry = registry
    return previous


class use_registry:
    """Context manager: temporarily install a registry process-wide."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self._previous: MetricsRegistry | None = None

    def __enter__(self) -> MetricsRegistry:
        self._previous = set_registry(self.registry)
        return self.registry

    def __exit__(self, *exc_info: object) -> None:
        assert self._previous is not None
        set_registry(self._previous)
