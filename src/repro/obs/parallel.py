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

from repro.obs.metrics import BoundSeries, MetricsRegistry, get_registry
from repro.obs.report import (
    Column,
    Report,
    ReportSpec,
    TableSpec,
    build_report,
    count,
    ratio,
    value,
)


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
        """Fold one sharded request in.

        NaN ``balance``/``utilization`` (a fully cache-served request
        runs no shards) leave the gauges untouched rather than
        poisoning them.
        """
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


def _cache_footer(report: Report) -> str:
    """Cache-wide counts: a score cache may be shared across backends."""
    totals = report.totals
    if not (totals["cache_evictions"] or totals["cache_invalidations"]):
        return ""
    return (
        f"cache: {totals['cache_evictions']} evicted, "
        f"{totals['cache_invalidations']} invalidated"
    )


_PARALLEL = ReportSpec(
    {
        "backends": TableSpec(
            "Parallel scoring",
            "parallel.",
            ("backend",),
            (
                Column("requests", "requests", count("parallel.requests")),
                Column("shards", None, count("parallel.shards")),
                Column("mean_shards_per_request", "shards/req",
                       ratio("shards", "requests", 0.0), ".1f"),
                Column("shard_balance", "balance",
                       value("parallel.shard_balance"), ".2f"),
                Column("pool_utilization", "util",
                       value("parallel.pool_utilization"), ".0%"),
                Column("cache_hits", None, count("parallel.cache_hits")),
                Column("cache_misses", None, count("parallel.cache_misses")),
                Column("cache_hit_ratio", "hit ratio", ratio(
                    "cache_hits", ("cache_hits", "cache_misses")
                ), ".1%"),
            ),
        ),
        "totals": TableSpec(
            None,
            ("parallel.cache_evictions", "parallel.cache_invalidations"),
            (),
            (
                Column("cache_evictions", None,
                       count("parallel.cache_evictions")),
                Column("cache_invalidations", None,
                       count("parallel.cache_invalidations")),
            ),
        ),
    },
    empty="(no parallel scoring recorded)",
    footer=_cache_footer,
)


def parallel_report(registry: MetricsRegistry | None = None) -> Report:
    """The per-backend shard/cache table, one row per ``backend`` label;
    the cache-wide eviction/invalidation counts are its ``totals``."""
    return build_report(_PARALLEL, registry)
