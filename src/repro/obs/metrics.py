"""A minimal metrics registry: counters, gauges, fixed-bucket histograms.

Instruments are plain-attribute objects designed to sit on hot paths:
``Counter.inc`` is one integer add, ``Histogram.observe`` is a short
loop over a fixed bucket tuple.  There is no sampling, no labels, no
background thread — a deliberate floor so the cost of *measuring* never
distorts what the paper measures (H-Time/B-Time).

Instruments are created through a :class:`MetricsRegistry`, which
get-or-creates by name and snapshots everything into plain dicts (the
export format of ``sepe obs --metrics`` and
``FormatDispatcher.stats()``).  A process-wide default registry backs
the dispatcher and container telemetry; tests may build private ones.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "exponential_buckets",
    "DEFAULT_BUCKETS",
    "NS_LATENCY_BUCKETS",
]

DEFAULT_BUCKETS: Tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64)
"""Default histogram upper bounds; an implicit +inf bucket follows."""


def exponential_buckets(
    start: float, factor: float, count: int
) -> Tuple[float, ...]:
    """Geometric bucket edges: ``start, start*factor, ...`` (``count``).

    The natural shape for latency instruments, whose observations span
    orders of magnitude: linear edges like :data:`DEFAULT_BUCKETS`
    saturate in the overflow bucket on nanosecond-scale hash timings.
    """
    if count < 1:
        raise ValueError("need at least one bucket")
    if start <= 0 or factor <= 1:
        raise ValueError("start must be > 0 and factor > 1")
    return tuple(start * factor**index for index in range(count))


NS_LATENCY_BUCKETS: Tuple[float, ...] = exponential_buckets(64, 4, 12)
"""Nanosecond-latency edges, 64 ns to ~268 ms in powers of four — wide
enough that a specialized hash (~50 ns) and a slow fallback path land in
*named* buckets instead of the overflow bucket."""


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def snapshot(self) -> int:
        return self.value

    def reset(self) -> None:
        self.value = 0


class Gauge:
    """A value that goes up and down (e.g. current bucket count)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, delta: float) -> None:
        self.value += delta

    def snapshot(self) -> float:
        return self.value

    def reset(self) -> None:
        self.value = 0.0


class Histogram:
    """Fixed-bucket histogram: counts of observations per upper bound.

    ``buckets`` are inclusive upper bounds in increasing order; one
    overflow bucket (+inf) is always appended.  Alongside the bucket
    counts it tracks count/sum/min/max, enough for mean and tail
    summaries without storing observations.
    """

    __slots__ = ("name", "buckets", "counts", "count", "sum", "min", "max")

    def __init__(self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS):
        ordered = tuple(sorted(buckets))
        if not ordered:
            raise ValueError("a histogram needs at least one bucket bound")
        self.name = name
        self.buckets = ordered
        self.counts: List[int] = [0] * (len(ordered) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.observe_many(value, 1)

    def observe_many(self, value: float, count: int) -> None:
        """Record ``count`` observations of the same ``value`` at once.

        Equivalent to ``count`` calls of :meth:`observe` (one bucket
        search, one add each), as batch paths that time a whole group
        and attribute the per-key mean need.
        """
        if count <= 0:
            return
        self.counts[bisect_left(self.buckets, value)] += count
        self.count += count
        self.sum += value * count
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def snapshot(self) -> Dict[str, Any]:
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
        }

    def reset(self) -> None:
        self.counts = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = None
        self.max = None


class MetricsRegistry:
    """Named instruments, get-or-created on first use.

    Creation takes a lock; increments on the returned instruments are
    lock-free (instrument handles are meant to be cached by callers
    sitting on hot paths, e.g. the dispatcher caches its counters at
    registration time).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = self._counters[name] = Counter(name)
            return instrument

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                instrument = self._gauges[name] = Gauge(name)
            return instrument

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ) -> Histogram:
        """Get or create a histogram, with configurable bucket edges.

        ``buckets`` applies on first creation (``None`` means
        :data:`DEFAULT_BUCKETS`, the backward-compatible behaviour).
        Asking for an existing histogram with *different* explicit
        edges raises — silently handing back an instrument with other
        buckets would misattribute every subsequent observation.
        """
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                instrument = self._histograms[name] = Histogram(
                    name, DEFAULT_BUCKETS if buckets is None else buckets
                )
            elif (
                buckets is not None
                and tuple(sorted(buckets)) != instrument.buckets
            ):
                raise ValueError(
                    f"histogram {name!r} already exists with buckets "
                    f"{instrument.buckets}, requested {tuple(buckets)}"
                )
            return instrument

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Everything, as plain dicts: counters, gauges, histograms."""
        with self._lock:
            return {
                "counters": {
                    name: c.snapshot() for name, c in self._counters.items()
                },
                "gauges": {
                    name: g.snapshot() for name, g in self._gauges.items()
                },
                "histograms": {
                    name: h.snapshot()
                    for name, h in self._histograms.items()
                },
            }

    def reset(self) -> None:
        """Zero every instrument (handles held by callers stay valid)."""
        with self._lock:
            for group in (self._counters, self._gauges, self._histograms):
                for instrument in group.values():
                    instrument.reset()


_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _REGISTRY
