"""Serving front-end metric series and the per-tenant traffic report.

The asyncio front-end (:mod:`repro.serving.frontend`) folds every
admission decision, coalesced batch and response into the default
:class:`~repro.obs.metrics.MetricsRegistry`, the same way the batch
engine feeds the drift series:

* ``serving.requests`` (counter, label ``tenant``) — requests admitted
  past the token buckets and queue-depth caps;
* ``serving.shed`` (counter, labels ``tenant``, ``reason``) — requests
  rejected at admission (``rate-limit``, ``queue-depth``,
  ``tenant-queue-depth``);
* ``serving.slo_miss`` (counter, label ``tenant``) — served responses
  whose enqueue→response wall time overran the tenant's SLO;
* ``serving.latency_us`` (histogram, label ``tenant``) — per-response
  enqueue→response wall time in µs, at bounded memory;
* ``serving.batches`` (counter) / ``serving.batch_requests`` /
  ``serving.batch_docs`` (histograms) — coalesced-batch shape: how many
  requests and document rows each engine call folded together;
* ``serving.queue_depth`` (gauge) — pending requests at the moment the
  batcher drained.

:func:`serving_report` reads the series back into one row per tenant —
admitted/shed/SLO-miss counts and latency percentiles — plus a
coalescing summary, the front-end counterpart of
:func:`repro.obs.parallel.parallel_report`.
"""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.report import (
    Column,
    Report,
    ReportSpec,
    TableSpec,
    build_report,
    count,
    ratio,
    stat,
    value,
)
from repro.obs.slo import record_slo_event


def record_admitted(
    tenant: str, *, registry: MetricsRegistry | None = None
) -> None:
    """Count one request admitted past the front-end's admission layer."""
    registry = registry or get_registry()
    registry.counter("serving.requests", tenant=tenant).inc()


def record_shed(
    tenant: str, reason: str, *, registry: MetricsRegistry | None = None
) -> None:
    """Count one request shed at admission, by reason."""
    registry = registry or get_registry()
    registry.counter("serving.shed", tenant=tenant, reason=reason).inc()


def record_response(
    tenant: str,
    latency_us: float,
    *,
    slo_us: float | None = None,
    registry: MetricsRegistry | None = None,
) -> None:
    """Fold one served response into the latency/SLO series.

    ``latency_us`` is enqueue→response wall time; when ``slo_us`` is
    given and overrun, the tenant's ``serving.slo_miss`` counter ticks.
    Every SLO-accounted response (hit or miss) also feeds the default
    :class:`~repro.obs.slo.SloMonitor`, which derives the multi-window
    burn rates the cumulative counter cannot express.
    """
    registry = registry or get_registry()
    registry.histogram("serving.latency_us", tenant=tenant).add(latency_us)
    if slo_us is not None:
        miss = latency_us > slo_us
        record_slo_event(tenant, miss)
        if miss:
            registry.counter("serving.slo_miss", tenant=tenant).inc()


def record_batch(
    *,
    n_requests: int,
    n_docs: int,
    queue_depth: int,
    registry: MetricsRegistry | None = None,
) -> None:
    """Fold one coalesced engine call into the batch-shape series."""
    registry = registry or get_registry()
    registry.counter("serving.batches").inc()
    registry.histogram("serving.batch_requests").add(n_requests)
    registry.histogram("serving.batch_docs").add(n_docs)
    registry.gauge("serving.queue_depth").set(queue_depth)


_LATENCY = "serving.latency_us"


def _offered(slot) -> int:
    """Requests the tenant offered: admitted plus shed."""
    return int(slot.get("serving.requests", 0) + slot.get("serving.shed", 0))


def _served(slot) -> int:
    """Responses in the tenant's latency histogram."""
    return int(slot.get(_LATENCY, {}).get("count", 0))


def _shed_reasons(slot) -> tuple[tuple[str, int], ...]:
    """``(reason, count)`` pairs of ``serving.shed``, sorted by reason."""
    split = slot.get(("serving.shed", "reason"), {})
    return tuple(sorted((reason, int(n)) for reason, n in split.items()))


_SERVING = ReportSpec(
    {
        "tenants": TableSpec(
            "Serving front-end",
            "serving.",
            ("tenant",),
            (
                Column("offered", "offered", _offered),
                Column("admitted", "admitted", count("serving.requests")),
                Column("served", None, _served),
                Column("shed", "shed", count("serving.shed")),
                Column("shed_reasons", None, _shed_reasons),
                Column("shed_ratio", "shed%", ratio("shed", "offered"), ".1%"),
                Column("slo_miss", "slo miss", count("serving.slo_miss")),
                Column("slo_miss_ratio", None, ratio("slo_miss", "served")),
                Column("p50_us", "p50 us", stat(_LATENCY, "p50"), ".0f"),
                Column("p95_us", "p95 us", stat(_LATENCY, "p95"), ".0f"),
                Column("p99_us", "p99 us", stat(_LATENCY, "p99"), ".0f"),
            ),
        ),
        "totals": TableSpec(
            None,
            ("serving.batches", "serving.batch_requests",
             "serving.batch_docs", "serving.queue_depth"),
            (),
            (
                Column("batches", None, count("serving.batches")),
                Column("mean_batch_requests", None,
                       stat("serving.batch_requests", "mean")),
                Column("mean_batch_docs", None,
                       stat("serving.batch_docs", "mean")),
                Column("last_queue_depth", None,
                       value("serving.queue_depth")),
            ),
        ),
    },
    empty="(no serving traffic recorded)",
    footer=lambda report: (
        "coalescing: {batches} batches, {mean_batch_requests:.1f} "
        "requests/batch, {mean_batch_docs:.1f} docs/batch, queue depth "
        "{last_queue_depth:.0f} at last drain".format(**report.totals)
    ),
)


def serving_report(registry: MetricsRegistry | None = None) -> Report:
    """The per-tenant traffic table, one row per ``tenant`` label; the
    coalesced-batch shape is its ``totals``."""
    return build_report(_SERVING, registry)
