"""Observability: tracing, metrics and predicted-vs-measured drift.

One light-weight layer used across the training and serving stack:

* :mod:`repro.obs.tracer` — nested, timed spans with a process-wide
  default tracer that is a true no-op while disabled (the default);
* :mod:`repro.obs.metrics` — counters, gauges and bounded streaming
  histograms in a process-wide registry (always on; recording is a few
  dict operations);
* :mod:`repro.obs.export` — JSON and Prometheus-text renderings of the
  span forest and the metrics snapshot;
* :mod:`repro.obs.report` — the one spec-driven table every series
  report below renders through;
* :mod:`repro.obs.drift` — per-backend predicted-vs-measured µs/doc
  series fed by the batch engine, the paper's design-time cost
  predictions audited at deployment time, read back by
  :func:`drift_report`;
* :mod:`repro.obs.compile` — per-dtype plan-compilation series fed by
  :func:`repro.runtime.compile.compile_network`, read back by
  :func:`compile_report`;
* :mod:`repro.obs.resilience` — retry/failure/breaker/fallback series
  fed by the resilience layer (:mod:`repro.runtime.resilience`), read
  back by :func:`resilience_report`;
* :mod:`repro.obs.parallel` — shard-balance / pool-utilization /
  cache-hit series fed by the sharded scorer
  (:mod:`repro.runtime.parallel`), read back by
  :func:`parallel_report`;
* :mod:`repro.obs.lifecycle` — per-model-version serving, shadow
  comparison and swap/rollback series fed by the versioned lifecycle
  layer (:mod:`repro.runtime.lifecycle`), read back by
  :func:`lifecycle_report`;
* :mod:`repro.obs.cascade` — per-stage survivor-funnel / early-exit /
  predicted-spend series fed by the cascade adapter
  (:class:`~repro.runtime.adapters.CascadeScorer`), read back by
  :func:`cascade_report`;
* :mod:`repro.obs.serving` — per-tenant admission/shed/SLO-miss/latency
  series and coalesced-batch shapes fed by the asyncio front-end
  (:mod:`repro.serving.frontend`), read back by
  :func:`serving_report`;
* :mod:`repro.obs.requests` — per-request trace ids and stage timelines
  (:class:`RequestContext`) propagated via ``contextvars`` across the
  async front-end, batcher and engine-executor thread, owned by the
  :class:`RequestRecorder` (disabled by default, true no-op);
* :mod:`repro.obs.flight` — bounded flight recorder with tail-based
  retention (slowest-N + all shed + all errored) and latency-bucket
  exemplars linking histograms back to trace ids;
* :mod:`repro.obs.slo` — per-tenant multi-window SLO burn-rate
  monitoring (fast/slow alert windows) fed by
  :func:`record_response`, read back by :func:`slo_burn_report`.

Typical use::

    from repro import obs

    obs.enable_tracing()
    with obs.span("experiment", dataset="msn30k"):
        service.score(features)
    print(obs.render_trace_tree())
    report = obs.drift_report()
    print(report.render())
    drift_pct = report.row("quickscorer")["drift_pct"]

See ``docs/observability.md`` for naming conventions and the
instrumentation guide.
"""

from repro.obs.cascade import cascade_report
from repro.obs.compile import compile_report, record_compile
from repro.obs.drift import drift_report
from repro.obs.lifecycle import (
    lifecycle_report,
    record_replay,
    record_rollback,
    record_served_version,
    record_shadow_comparison,
    record_shadow_dropped,
    record_shadow_error,
    record_swap,
    record_version_documents,
)
from repro.obs.parallel import (
    parallel_report,
    record_cache_eviction,
    record_cache_invalidation,
)
from repro.obs.resilience import (
    record_breaker_state,
    record_fallback,
    record_failure,
    record_retry,
    record_served,
    resilience_report,
)
from repro.obs.serving import (
    record_admitted,
    record_batch,
    record_response,
    record_shed,
    serving_report,
)
from repro.obs.export import (
    prometheus_name,
    render_json,
    render_prometheus,
    render_trace_tree,
    snapshot_dict,
)
from repro.obs.flight import (
    Exemplar,
    ExemplarStore,
    FlightRecorder,
    render_record,
)
from repro.obs.requests import (
    RequestContext,
    RequestRecorder,
    StageEvent,
    activate,
    activate_batch,
    active_requests,
    annotate_requests,
    current_request,
    enable_request_tracing,
    get_request_recorder,
    request_slots,
    request_tracing_enabled,
    set_request_recorder,
)
from repro.obs.slo import (
    BurnRow,
    SloBurnReport,
    SloMonitor,
    SloPolicy,
    get_slo_monitor,
    record_slo_event,
    set_slo_monitor,
    slo_burn_report,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    MetricError,
    MetricsRegistry,
    StreamingHistogram,
    counter,
    gauge,
    get_registry,
    histogram,
    set_registry,
)
from repro.obs.tracer import (
    Span,
    Tracer,
    enable_tracing,
    get_tracer,
    set_tracer,
    span,
    trace,
    tracing_enabled,
)

__all__ = [
    "BurnRow",
    "Counter",
    "Exemplar",
    "ExemplarStore",
    "FlightRecorder",
    "Gauge",
    "MetricError",
    "MetricsRegistry",
    "RequestContext",
    "RequestRecorder",
    "SloBurnReport",
    "SloMonitor",
    "SloPolicy",
    "Span",
    "StageEvent",
    "StreamingHistogram",
    "Tracer",
    "activate",
    "activate_batch",
    "active_requests",
    "annotate_requests",
    "cascade_report",
    "compile_report",
    "counter",
    "current_request",
    "drift_report",
    "enable_request_tracing",
    "enable_tracing",
    "gauge",
    "get_registry",
    "get_request_recorder",
    "get_slo_monitor",
    "get_tracer",
    "histogram",
    "lifecycle_report",
    "parallel_report",
    "prometheus_name",
    "record_admitted",
    "record_batch",
    "record_breaker_state",
    "record_cache_eviction",
    "record_cache_invalidation",
    "record_compile",
    "record_fallback",
    "record_failure",
    "record_replay",
    "record_response",
    "record_retry",
    "record_rollback",
    "record_served",
    "record_served_version",
    "record_shadow_comparison",
    "record_shadow_dropped",
    "record_shadow_error",
    "record_shed",
    "record_slo_event",
    "record_swap",
    "record_version_documents",
    "render_json",
    "render_prometheus",
    "render_record",
    "render_trace_tree",
    "request_slots",
    "request_tracing_enabled",
    "resilience_report",
    "serving_report",
    "set_registry",
    "set_request_recorder",
    "set_slo_monitor",
    "set_tracer",
    "slo_burn_report",
    "snapshot_dict",
    "span",
    "trace",
    "tracing_enabled",
]
