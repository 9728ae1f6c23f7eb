"""Parallel-scoring metric series and the shard/cache report.

The sharded scorer (:mod:`repro.runtime.parallel`) folds every request
into the default :class:`~repro.obs.metrics.MetricsRegistry`, the same
way the batch engine feeds the drift series:

* ``parallel.requests`` (counter, label ``backend``) — requests served
  through a :class:`~repro.runtime.parallel.ShardedScorer`;
* ``parallel.shards`` (counter, label ``backend``) — shards executed;
* ``parallel.shard_balance`` (gauge, label ``backend``) — the last
  request's largest shard over its mean shard size (1.0 = even);
* ``parallel.pool_utilization`` (gauge, label ``backend``) — the last
  request's busy-time over ``lanes x wall`` (1.0 = no idle workers);
* ``parallel.cache_hits`` / ``parallel.cache_misses`` (counters, label
  ``backend``) — score-cache outcomes per document;
* ``parallel.cache_evictions`` / ``parallel.cache_invalidations``
  (unlabeled counters) — entries dropped by LRU pressure and entries
  dropped explicitly by fingerprint
  (:meth:`~repro.runtime.parallel.ScoreCache.invalidate`, the hot-swap
  hook), fed by the cache itself.

:func:`parallel_report` reads the series back into one row per backend —
mean shards per request, last balance/utilization, and the cache hit
ratio — the shard-level counterpart of
:func:`repro.obs.drift.drift_report`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.obs.metrics import BoundSeries, MetricsRegistry, get_registry


class ParallelSeries(BoundSeries):
    """The ``parallel.*`` request series of one backend, looked up once
    (see :class:`~repro.obs.metrics.BoundSeries`); a
    :class:`~repro.runtime.parallel.ShardedScorer` keeps one."""

    def __init__(
        self, backend: str, registry: MetricsRegistry | None = None
    ) -> None:
        super().__init__(registry, backend=backend)
        self.backend = backend

    def record(
        self,
        *,
        n_shards: int,
        balance: float,
        utilization: float,
        cache_hits: int = 0,
        cache_misses: int = 0,
    ) -> None:
        """Fold one sharded request in (see
        :func:`record_parallel_request`)."""
        self.refresh()
        handle = self.handle
        handle("counter", "parallel.requests").inc()
        if n_shards:
            handle("counter", "parallel.shards").inc(n_shards)
        if math.isfinite(balance):
            handle("gauge", "parallel.shard_balance").set(balance)
        if math.isfinite(utilization):
            handle("gauge", "parallel.pool_utilization").set(utilization)
        if cache_hits:
            handle("counter", "parallel.cache_hits").inc(cache_hits)
        if cache_misses:
            handle("counter", "parallel.cache_misses").inc(cache_misses)


def record_parallel_request(
    backend: str,
    *,
    n_shards: int,
    balance: float,
    utilization: float,
    cache_hits: int = 0,
    cache_misses: int = 0,
    registry: MetricsRegistry | None = None,
) -> None:
    """Fold one sharded request into the ``parallel.*`` series.

    NaN ``balance``/``utilization`` (a fully cache-served request runs
    no shards) leave the gauges untouched rather than poisoning them.
    A scorer that records many requests keeps one
    :class:`ParallelSeries` instead.
    """
    ParallelSeries(backend, registry).record(
        n_shards=n_shards,
        balance=balance,
        utilization=utilization,
        cache_hits=cache_hits,
        cache_misses=cache_misses,
    )


def record_cache_eviction(
    n: int = 1, *, registry: MetricsRegistry | None = None
) -> None:
    """Count ``n`` score-cache entries evicted under LRU pressure."""
    registry = registry or get_registry()
    registry.counter("parallel.cache_evictions").inc(n)


def record_cache_invalidation(
    n: int = 1, *, registry: MetricsRegistry | None = None
) -> None:
    """Count ``n`` score-cache entries dropped by explicit fingerprint
    invalidation (a model version swapped out from under the cache)."""
    registry = registry or get_registry()
    registry.counter("parallel.cache_invalidations").inc(n)


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ParallelRow:
    """One backend's shard and cache position."""

    backend: str
    requests: int
    shards: int
    shard_balance: float
    pool_utilization: float
    cache_hits: int
    cache_misses: int

    @property
    def mean_shards_per_request(self) -> float:
        return self.shards / self.requests if self.requests else 0.0

    @property
    def cache_hit_ratio(self) -> float:
        """Hits over all cache lookups (``nan`` without a cache)."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else float("nan")

    def describe(self) -> str:
        return (
            f"{self.backend}: {self.requests} requests, "
            f"{self.mean_shards_per_request:.1f} shards/req, "
            f"utilization {self.pool_utilization:.0%}, "
            f"cache hit ratio {self.cache_hit_ratio:.1%}"
        )


@dataclass(frozen=True)
class ParallelReport:
    """Per-backend shard/cache rows plus a rendering.

    ``cache_evictions`` / ``cache_invalidations`` are cache-wide (a
    :class:`~repro.runtime.parallel.ScoreCache` may be shared across
    backends and model versions), so they ride on the report rather
    than on a backend row.
    """

    rows: tuple[ParallelRow, ...]
    cache_evictions: int = 0
    cache_invalidations: int = 0

    def backend(self, name: str) -> ParallelRow | None:
        for row in self.rows:
            if row.backend == name:
                return row
        return None

    def render(self) -> str:
        if not self.rows:
            return "(no parallel scoring recorded)"
        header = (
            f"{'backend':<22} {'requests':>9} {'shards/req':>11} "
            f"{'balance':>8} {'util':>6} {'hit ratio':>10}"
        )
        lines = ["Parallel scoring", header, "-" * len(header)]
        for row in self.rows:
            hit_ratio = (
                f"{row.cache_hit_ratio:>9.1%}"
                if math.isfinite(row.cache_hit_ratio)
                else f"{'-':>9}"
            )
            balance = (
                f"{row.shard_balance:>8.2f}"
                if math.isfinite(row.shard_balance)
                else f"{'-':>8}"
            )
            util = (
                f"{row.pool_utilization:>5.0%}"
                if math.isfinite(row.pool_utilization)
                else f"{'-':>5}"
            )
            lines.append(
                f"{row.backend:<22} {row.requests:>9d} "
                f"{row.mean_shards_per_request:>11.1f} {balance} {util} "
                f"{hit_ratio}"
            )
        if self.cache_evictions or self.cache_invalidations:
            lines.append(
                f"cache: {self.cache_evictions} evicted, "
                f"{self.cache_invalidations} invalidated"
            )
        return "\n".join(lines)


def parallel_report(
    registry: MetricsRegistry | None = None,
) -> ParallelReport:
    """Assemble the per-backend shard/cache table from the series."""
    registry = registry or get_registry()
    slots: dict[str, dict[str, float]] = {}
    wanted = {
        "parallel.requests",
        "parallel.shards",
        "parallel.shard_balance",
        "parallel.pool_utilization",
        "parallel.cache_hits",
        "parallel.cache_misses",
    }
    evictions = 0
    invalidations = 0
    for (name, label_pairs), metric in registry.items():
        if name == "parallel.cache_evictions":
            evictions = int(metric.value)
            continue
        if name == "parallel.cache_invalidations":
            invalidations = int(metric.value)
            continue
        if name not in wanted:
            continue
        backend = dict(label_pairs).get("backend")
        if backend is None:
            continue
        slots.setdefault(backend, {})[name] = metric.value
    rows = tuple(
        ParallelRow(
            backend=backend,
            requests=int(slot.get("parallel.requests", 0)),
            shards=int(slot.get("parallel.shards", 0)),
            shard_balance=slot.get("parallel.shard_balance", float("nan")),
            pool_utilization=slot.get(
                "parallel.pool_utilization", float("nan")
            ),
            cache_hits=int(slot.get("parallel.cache_hits", 0)),
            cache_misses=int(slot.get("parallel.cache_misses", 0)),
        )
        for backend, slot in sorted(slots.items())
    )
    return ParallelReport(
        rows=rows,
        cache_evictions=evictions,
        cache_invalidations=invalidations,
    )
