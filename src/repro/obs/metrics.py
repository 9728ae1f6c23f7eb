"""Counters, gauges and fixed-memory streaming histograms.

The :class:`MetricsRegistry` is the process's one bag of named metrics;
instrumented code asks for a metric by name + labels and gets the same
instance every time (get-or-create under a lock), so recording is a few
dictionary operations per event.

Histograms are **bounded**: a :class:`StreamingHistogram` keeps a fixed
``capacity``-sized reservoir (Vitter's Algorithm R with a seeded
``random.Random`` per histogram, so runs are reproducible) plus exact
count/sum/min/max accumulators.  Percentiles are exact while ``count <=
capacity`` and an unbiased sample estimate after, at O(capacity) memory
regardless of how many observations stream through — the property
``ServiceStats`` relies on to stay bounded under unbounded request
volume.
"""

from __future__ import annotations

import math
import random
import threading
from typing import Any, Iterable

import numpy as np

from repro.exceptions import ReproError


class MetricError(ReproError):
    """A metric was fed an invalid value or queried outside its domain."""


class Counter:
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricError(f"counters only go up, got increment {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> dict[str, float]:
        return {"value": self.value}


class Gauge:
    """A value that goes up and down (last write wins).

    Deliberately lock-free: ``set`` is a single float assignment, which
    the GIL makes atomic, and concurrent writers racing a gauge is
    harmless — "last write wins" is the gauge contract even on one
    thread.  Readers may observe any recently written value, never a
    torn one.  (Counters and histograms, whose updates are
    read-modify-write, do take locks — see :class:`Counter` /
    :class:`StreamingHistogram` — so all ``MetricsRegistry`` series are
    safe to update from the asyncio event loop and pool threads
    concurrently.)
    """

    kind = "gauge"

    def __init__(self) -> None:
        self._value = float("nan")

    def set(self, value: float) -> None:
        self._value = float(value)

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> dict[str, float]:
        return {"value": self.value}


class StreamingHistogram:
    """Reservoir-backed distribution sketch with O(capacity) memory."""

    kind = "histogram"

    def __init__(self, capacity: int = 2048, seed: int = 0) -> None:
        if capacity < 1:
            raise MetricError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        #: Algorithm R's index draws: ``randrange`` costs a tenth of a
        #: numpy ``Generator.integers`` call per value.
        self._draw = random.Random(seed).randrange
        self._rng = np.random.default_rng(seed)  # merge's weighted draw
        self._reservoir = np.empty(self.capacity, dtype=np.float64)
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    # ------------------------------------------------------------------
    def add(self, value: float) -> None:
        """Record one observation."""
        v = float(value)
        if not math.isfinite(v):
            raise MetricError(f"histogram values must be finite, got {value}")
        with self._lock:
            if self._count < self.capacity:
                self._reservoir[self._count] = v
            else:
                # Algorithm R: keep each of the n seen values with
                # probability capacity/n — an unbiased fixed-size sample.
                j = self._draw(self._count + 1)
                if j < self.capacity:
                    self._reservoir[j] = v
            self._count += 1
            self._sum += v
            self._min = min(self._min, v)
            self._max = max(self._max, v)

    def extend(self, values: Iterable[float]) -> None:
        for v in values:
            self.add(v)

    def merge(self, other: "StreamingHistogram") -> "StreamingHistogram":
        """Fold ``other``'s distribution into this histogram in place.

        Count / sum / min / max merge exactly.  The reservoirs merge by
        **weighted sampling**: when the pooled streams fit in
        ``capacity`` the merged reservoir is the exact pooled sample,
        otherwise ``capacity`` values are drawn without replacement from
        the two reservoirs, each reservoir value weighted by the number
        of stream observations it represents (``count_i / filled_i``) —
        so a reservoir standing in for a million observations outweighs
        one standing in for a hundred, and merged percentiles track the
        pooled distribution.  Per-worker / per-tenant histograms can
        thereby be combined into fleet-level reports without unbounded
        memory.  Returns ``self``.
        """
        if not isinstance(other, StreamingHistogram):
            raise MetricError(
                f"can only merge StreamingHistogram, got {type(other).__name__}"
            )
        if other is self:
            raise MetricError("cannot merge a histogram into itself")
        # Lock ordering by id() — merge may be called concurrently from
        # both directions on the same pair.
        first, second = sorted((self, other), key=id)
        with first._lock, second._lock:
            o_filled = other._reservoir[
                : min(other._count, other.capacity)
            ].copy()
            o_count, o_sum = other._count, other._sum
            o_min, o_max = other._min, other._max
            if not o_count:
                return self
            s_filled = self._reservoir[: min(self._count, self.capacity)]
            pooled = np.concatenate([s_filled, o_filled])
            if self._count + o_count <= self.capacity:
                # Both reservoirs are exact and fit: keep everything.
                self._reservoir[: len(pooled)] = pooled
            else:
                weights = np.concatenate(
                    [
                        np.full(
                            len(s_filled),
                            (self._count / len(s_filled)) if len(s_filled) else 0.0,
                        ),
                        np.full(len(o_filled), o_count / len(o_filled)),
                    ]
                )
                take = min(self.capacity, len(pooled))
                chosen = self._rng.choice(
                    len(pooled),
                    size=take,
                    replace=False,
                    p=weights / weights.sum(),
                )
                self._reservoir[:take] = pooled[chosen]
            self._count += o_count
            self._sum += o_sum
            self._min = min(self._min, o_min)
            self._max = max(self._max, o_max)
        return self

    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else float("nan")

    @property
    def min(self) -> float:
        return self._min if self._count else float("nan")

    @property
    def max(self) -> float:
        return self._max if self._count else float("nan")

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (``0 <= q <= 100``) of the stream.

        Exact while at most ``capacity`` values have been seen, a
        reservoir estimate beyond.
        """
        if not 0.0 <= q <= 100.0:
            raise MetricError(
                f"percentile q must be in [0, 100], got {q}"
            )
        if not self._count:
            return float("nan")
        with self._lock:
            filled = self._reservoir[: min(self._count, self.capacity)]
            return float(np.percentile(filled, q))

    def snapshot(self) -> dict[str, float]:
        return {
            "count": float(self.count),
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.percentile(50.0),
            "p95": self.percentile(95.0),
            "p99": self.percentile(99.0),
        }


Metric = Counter | Gauge | StreamingHistogram

#: Registry key: metric name plus its sorted label pairs.
MetricKey = tuple[str, tuple[tuple[str, str], ...]]


def _labels_key(labels: dict[str, Any]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


#: Label value types whose equality implies equal ``str()``: lookups
#: with only these skip the sort (``0.0 == -0.0`` rules floats out).
_FAST_TYPES = frozenset((str, int, bool))


class MetricsRegistry:
    """Thread-safe name+labels → metric store with get-or-create access.

    The store is keyed on the sorted label pairs.  In front of it sits
    an unsorted index keyed on the name, the labels in call order and
    their types, so a repeated lookup costs one dict probe instead of
    a sort.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[MetricKey, Metric] = {}
        self._fast: dict[tuple, Metric] = {}
        #: Bumped by :meth:`reset`, so holders of pre-bound metric
        #: handles can tell that theirs were discarded.
        self.generation = 0

    # ------------------------------------------------------------------
    def _get_or_create(self, name: str, factory, labels: dict) -> Metric:
        fast = (name, *labels.items(), *map(type, labels.values()))
        metric = self._fast.get(fast)
        if metric is not None:
            return metric
        key = (name, _labels_key(labels))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = self._metrics[key] = factory()
            if _FAST_TYPES.issuperset(fast[1 + len(labels):]):
                self._fast[fast] = metric
            return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        metric = self._get_or_create(name, Counter, labels)
        if not isinstance(metric, Counter):
            raise MetricError(f"{name} is registered as a {metric.kind}")
        return metric

    def gauge(self, name: str, **labels: Any) -> Gauge:
        metric = self._get_or_create(name, Gauge, labels)
        if not isinstance(metric, Gauge):
            raise MetricError(f"{name} is registered as a {metric.kind}")
        return metric

    def histogram(
        self, name: str, *, capacity: int = 2048, **labels: Any
    ) -> StreamingHistogram:
        metric = self._get_or_create(
            name, lambda: StreamingHistogram(capacity=capacity), labels
        )
        if not isinstance(metric, StreamingHistogram):
            raise MetricError(f"{name} is registered as a {metric.kind}")
        return metric

    # ------------------------------------------------------------------
    def items(self) -> list[tuple[MetricKey, Metric]]:
        """Snapshot of (key, metric) pairs, sorted by name then labels."""
        with self._lock:
            return sorted(self._metrics.items(), key=lambda kv: kv[0])

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready dump: one entry per (name, labels) series."""
        series = []
        for (name, labels), metric in self.items():
            series.append(
                {
                    "name": name,
                    "labels": dict(labels),
                    "kind": metric.kind,
                    **metric.snapshot(),
                }
            )
        return {"series": series}

    def reset(self) -> None:
        """Forget every metric (instances are discarded)."""
        with self._lock:
            self._metrics.clear()
            self._fast.clear()
            self.generation += 1


# ----------------------------------------------------------------------
# Process-wide default registry (always on — recording is cheap)
# ----------------------------------------------------------------------
_default_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default metrics registry."""
    return _default_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Replace the default registry; returns the previous one."""
    global _default_registry
    previous = _default_registry
    _default_registry = registry
    return previous


class BoundSeries:
    """Metric handles of one hot-path recorder, looked up once and kept.

    A recorder that folds every request into a few series keeps one of
    these: after the first lookup, each :meth:`handle` costs a dict
    probe instead of a label-keyed registry lookup.  ``labels`` are
    added to every series.  The handles follow the default registry
    (unless one is given) and are dropped when it is replaced or reset
    (:attr:`MetricsRegistry.generation`): call :meth:`refresh` once at
    the top of each record.
    """

    def __init__(
        self, registry: MetricsRegistry | None = None, **labels: Any
    ) -> None:
        self.labels = labels
        self._registry = registry
        self._bound: tuple[MetricsRegistry, int] | None = None
        self._handles: dict[Any, Counter | Gauge | StreamingHistogram] = {}

    def refresh(self) -> None:
        """Drop the handles if the registry was replaced or reset."""
        registry = self._registry or _default_registry
        if self._bound is None or (
            self._bound[0] is not registry
            or self._bound[1] != registry.generation
        ):
            self._handles = {}
            self._bound = (registry, registry.generation)

    def handle(self, kind: str, name: str):
        """The ``kind`` (``"counter"``, ``"gauge"`` or ``"histogram"``)
        series ``name`` with the recorder's labels."""
        metric = self._handles.get(name)
        if metric is None:
            get = getattr(self._bound[0], kind)
            metric = self._handles[name] = get(name, **self.labels)
        return metric


def counter(name: str, **labels: Any) -> Counter:
    return _default_registry.counter(name, **labels)


def gauge(name: str, **labels: Any) -> Gauge:
    return _default_registry.gauge(name, **labels)


def histogram(name: str, *, capacity: int = 2048, **labels: Any) -> StreamingHistogram:
    return _default_registry.histogram(name, capacity=capacity, **labels)
