"""Model-lifecycle metric series and the per-version serving report.

The versioned serving layer (:mod:`repro.runtime.lifecycle`) folds every
request, shadow comparison and swap decision into the default
:class:`~repro.obs.metrics.MetricsRegistry`:

* ``lifecycle.requests`` (counter, label ``version``) — logical
  requests served by each model version (coalesced batches count each
  member request);
* ``lifecycle.documents`` (counter, label ``version``) — documents
  scored by each version;
* ``lifecycle.shadow_requests`` (counter, label ``version``) — live
  requests mirrored to a candidate during a shadow-scoring phase;
* ``lifecycle.shadow_drift_pct`` (gauge + histogram, label ``version``)
  — per-comparison mean absolute score drift of the candidate vs the
  incumbent, as a percentage of the incumbent's score scale;
* ``lifecycle.shadow_agreement`` (gauge, label ``version``) — NDCG@k
  ranking agreement of the candidate against the incumbent's ordering;
* ``lifecycle.shadow_errors`` / ``lifecycle.shadow_dropped`` (counters,
  label ``version``) — candidate scoring failures and mirrored requests
  dropped because the off-hot-path shadow queue was full;
* ``lifecycle.swaps`` (counter, label ``kind``) — version activations:
  ``promoted`` (shadow gate passed), ``forced`` (explicit
  ``swap(force=True)``) or ``rolled-back`` (manual rollback to the
  previous version);
* ``lifecycle.rollbacks`` (counter) — candidates rejected by the
  promotion gate (automatic rollback) plus manual rollbacks;
* ``lifecycle.replay_rows`` / ``lifecycle.replay_seen`` (gauges) —
  distinct rows held by the replay buffer and total rows it has
  observed.

:func:`lifecycle_report` reads the series back into one row per model
version — the lifecycle counterpart of
:func:`repro.obs.parallel.parallel_report`.
"""

from __future__ import annotations

import math

from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.report import (
    Column,
    Report,
    ReportSpec,
    TableSpec,
    build_report,
    count,
    value,
)


def record_served_version(
    version: str,
    n_requests: int = 1,
    *,
    registry: MetricsRegistry | None = None,
) -> None:
    """Count ``n_requests`` logical requests served by ``version``."""
    registry = registry or get_registry()
    registry.counter("lifecycle.requests", version=version).inc(n_requests)


def record_version_documents(
    version: str,
    n_docs: int,
    *,
    registry: MetricsRegistry | None = None,
) -> None:
    """Count ``n_docs`` documents scored by ``version``."""
    registry = registry or get_registry()
    registry.counter("lifecycle.documents", version=version).inc(n_docs)


def record_shadow_comparison(
    version: str,
    *,
    drift_pct: float,
    agreement: float,
    registry: MetricsRegistry | None = None,
) -> None:
    """Fold one incumbent-vs-candidate shadow comparison into the series.

    NaN ``agreement`` (a zero-document mirror) leaves the gauge
    untouched rather than poisoning it.
    """
    registry = registry or get_registry()
    registry.counter("lifecycle.shadow_requests", version=version).inc()
    if math.isfinite(drift_pct):
        registry.gauge(
            "lifecycle.shadow_drift_pct", version=version
        ).set(drift_pct)
        registry.histogram(
            "lifecycle.shadow_drift_pct_hist", version=version
        ).add(drift_pct)
    if math.isfinite(agreement):
        registry.gauge(
            "lifecycle.shadow_agreement", version=version
        ).set(agreement)


def record_shadow_error(
    version: str, *, registry: MetricsRegistry | None = None
) -> None:
    """Count one candidate scoring failure during shadowing."""
    registry = registry or get_registry()
    registry.counter("lifecycle.shadow_errors", version=version).inc()


def record_shadow_dropped(
    version: str, *, registry: MetricsRegistry | None = None
) -> None:
    """Count one mirrored request dropped by the bounded shadow queue."""
    registry = registry or get_registry()
    registry.counter("lifecycle.shadow_dropped", version=version).inc()


def record_swap(kind: str, *, registry: MetricsRegistry | None = None) -> None:
    """Count one version activation of the given ``kind``."""
    registry = registry or get_registry()
    registry.counter("lifecycle.swaps", kind=kind).inc()


def record_rollback(*, registry: MetricsRegistry | None = None) -> None:
    """Count one candidate blocked by the gate (or manual rollback)."""
    registry = registry or get_registry()
    registry.counter("lifecycle.rollbacks").inc()


def record_replay(
    *,
    rows: int,
    total_seen: int,
    registry: MetricsRegistry | None = None,
) -> None:
    """Publish the replay buffer's occupancy gauges."""
    registry = registry or get_registry()
    registry.gauge("lifecycle.replay_rows").set(rows)
    registry.gauge("lifecycle.replay_seen").set(total_seen)


_LIFECYCLE = ReportSpec(
    {
        "versions": TableSpec(
            "Model lifecycle",
            (
                "lifecycle.requests",
                "lifecycle.documents",
                "lifecycle.shadow_requests",
                "lifecycle.shadow_errors",
                "lifecycle.shadow_drift_pct",
                "lifecycle.shadow_agreement",
            ),
            ("version",),
            (
                Column("requests", "requests", count("lifecycle.requests")),
                Column("documents", "documents",
                       count("lifecycle.documents")),
                Column("shadow_requests", "shadowed",
                       count("lifecycle.shadow_requests")),
                Column("shadow_errors", None,
                       count("lifecycle.shadow_errors")),
                Column("shadow_drift_pct", "drift%",
                       value("lifecycle.shadow_drift_pct"), ".2f"),
                Column("shadow_agreement", "agree",
                       value("lifecycle.shadow_agreement"), ".3f"),
            ),
        ),
        "totals": TableSpec(
            None,
            ("lifecycle.swaps", "lifecycle.rollbacks",
             "lifecycle.shadow_dropped"),
            (),
            (
                Column("swaps", None, count("lifecycle.swaps")),
                Column("rollbacks", None, count("lifecycle.rollbacks")),
                Column("shadow_dropped", None,
                       count("lifecycle.shadow_dropped")),
            ),
        ),
    },
    empty="(no versioned serving recorded)",
    footer=lambda report: (
        "swaps: {swaps}, rollbacks: {rollbacks}, "
        "shadow dropped: {shadow_dropped}".format(**report.totals)
    ),
)


def lifecycle_report(registry: MetricsRegistry | None = None) -> Report:
    """The per-version serving table, one row per ``version`` label;
    swap/rollback/shadow-dropped counts are its ``totals``."""
    return build_report(_LIFECYCLE, registry)
