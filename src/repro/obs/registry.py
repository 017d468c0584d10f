"""Metrics registry: counters, gauges and sim-time histograms.

One registry per simulation (or per benchmark phase) holds name-keyed
metrics: :func:`~repro.obs.export.latency_breakdown` fills its
``obs.hop.*`` histograms, which the ``python -m repro.obs`` CLI prints.

Histograms use *fixed* bucket boundaries chosen at creation, so two
registries recording the same events always produce the same buckets
and :meth:`MetricsRegistry.merge` is exact (bucket-wise addition) —
no rebinning, no approximation.  All values are simulated milliseconds
or plain counts; nothing here reads a wall clock.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

#: Default sim-latency buckets (ms): spans the paper's latency regimes
#: from intra-cluster (0.15 ms) to multi-continent K-stability (seconds).
DEFAULT_LATENCY_BUCKETS_MS: Tuple[float, ...] = (
    0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0,
    1000.0, 2000.0, 5000.0)


class Counter:
    """Monotonic count; merge adds."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name}={self.value})"


class Gauge:
    """Point-in-time value; merge keeps the maximum."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name}={self.value})"


class Histogram:
    """Fixed-boundary histogram of simulated-time observations.

    ``bounds`` are inclusive upper edges; one implicit overflow bucket
    catches everything above the last edge.  ``counts[i]`` is the
    number of observations ``v <= bounds[i]`` (and above the previous
    edge); ``counts[-1]`` is the overflow.
    """

    __slots__ = ("name", "bounds", "counts", "total", "sum",
                 "min", "max")

    def __init__(self, name: str,
                 bounds: Iterable[float] = DEFAULT_LATENCY_BUCKETS_MS):
        edges = tuple(float(b) for b in bounds)
        if not edges:
            raise ValueError("histogram needs at least one bucket edge")
        if any(b >= a for b, a in zip(edges, edges[1:])):
            raise ValueError("bucket edges must strictly increase")
        self.name = name
        self.bounds = edges
        self.counts = [0] * (len(edges) + 1)
        self.total = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        index = self._bucket_index(value)
        self.counts[index] += 1
        self.total += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def _bucket_index(self, value: float) -> int:
        # Linear scan: bucket lists are short (≈14 edges) and the scan
        # is branch-predictable; bisect would allocate nothing either,
        # but offers no win at this size.
        for index, edge in enumerate(self.bounds):
            if value <= edge:
                return index
        return len(self.bounds)

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0

    def quantile(self, q: float) -> Optional[float]:
        """Bucket-resolution quantile: the upper edge of the bucket the
        q-th observation falls in (None when empty; the overflow bucket
        reports the observed maximum)."""
        if not self.total:
            return None
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        rank = max(1, int(q * self.total + 0.999999))
        seen = 0
        for index, count in enumerate(self.counts):
            seen += count
            if seen >= rank:
                if index < len(self.bounds):
                    return self.bounds[index]
                return self.max
        return self.max  # pragma: no cover - rank <= total always hits

    def to_dict(self) -> dict:
        return {"bounds": list(self.bounds), "counts": list(self.counts),
                "total": self.total, "sum": self.sum,
                "min": self.min, "max": self.max}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Histogram({self.name}, n={self.total},"
                f" mean={self.mean:.3f})")


class MetricsRegistry:
    """Name-keyed registry of counters, gauges and histograms."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- access (get-or-create) -----------------------------------------
    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def gauge(self, name: str) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge(name)
        return gauge

    def histogram(self, name: str,
                  bounds: Iterable[float] = DEFAULT_LATENCY_BUCKETS_MS) \
            -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(name, bounds)
        return histogram

    # -- convenience ----------------------------------------------------
    def inc(self, name: str, amount: int = 1) -> None:
        self.counter(name).inc(amount)

    def observe(self, name: str, value: float,
                bounds: Iterable[float] = DEFAULT_LATENCY_BUCKETS_MS) \
            -> None:
        self.histogram(name, bounds).observe(value)

    def names(self) -> List[str]:
        return sorted(set(self._counters) | set(self._gauges)
                      | set(self._histograms))

    # -- merge ----------------------------------------------------------
    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other`` into this registry (in place; returns self).

        Counters add, gauges keep the maximum, histograms add
        bucket-wise — mismatched bucket boundaries are an error, not a
        silent rebin.
        """
        for name, counter in other._counters.items():
            self.counter(name).inc(counter.value)
        for name, gauge in other._gauges.items():
            mine = self.gauge(name)
            mine.set(max(mine.value, gauge.value))
        for name, histogram in other._histograms.items():
            mine = self.histogram(name, histogram.bounds)
            if mine.bounds != histogram.bounds:
                raise ValueError(
                    f"histogram {name!r} bucket boundaries differ:"
                    f" {mine.bounds} vs {histogram.bounds}")
            for index, count in enumerate(histogram.counts):
                mine.counts[index] += count
            mine.total += histogram.total
            mine.sum += histogram.sum
            for value in (histogram.min, histogram.max):
                if value is None:
                    continue
                if mine.min is None or value < mine.min:
                    mine.min = value
                if mine.max is None or value > mine.max:
                    mine.max = value
        return self

    def to_dict(self) -> dict:
        return {
            "counters": {n: c.value
                         for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value
                       for n, g in sorted(self._gauges.items())},
            "histograms": {n: h.to_dict()
                           for n, h in sorted(self._histograms.items())},
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"MetricsRegistry({len(self._counters)} counters,"
                f" {len(self._gauges)} gauges,"
                f" {len(self._histograms)} histograms)")
