"""Async front-end under sustained multi-tenant load — throughput vs tails.

Replays seeded load scenarios against the asyncio front-end over a
dense probe student and reports, per scenario and tenant: offered /
served / shed volumes (with the shedding reasons), SLO misses,
achieved throughput, coalescing depth, and the p50/p95/p99
enqueue→response latency tails.  Expected shape: raising the offered
rate deepens coalescing (more requests share each GEMM) and fattens the
tails before it dents throughput; a token-bucketed tenant sheds instead
of starving its neighbours; and the closed-loop scenario finds the
service's natural throughput ceiling.

Latency percentiles here are wall time including queueing — the
coalesced accounting split (`ServiceStats.record(kernel_seconds=...)`)
keeps them apart from the kernel-time drift audit.  Every scenario's
scores stay bit-identical to sequential scoring (gated by
``tests/test_serving_async.py``; not re-asserted per row here).

Request tracing runs enabled throughout, and the emitted
``BENCH_serving.json`` carries a ``trace_sample``: the slowest retained
request's full stage timeline (queue-wait / coalesce / kernel /
respond), so the table's p99 has one concrete, attributable example
attached.
"""

from __future__ import annotations

import math

from benchmarks._common import emit
from repro import obs
from repro.obs.metrics import MetricsRegistry
from repro.obs.probe import build_probe_models
from repro.runtime import AsyncConfig, ServiceConfig, TenantConfig
from repro.serving import LoadSpec, ScoringService, make_queries, run_load

#: (label, LoadSpec, AsyncConfig) — each scenario runs against a fresh
#: service and metrics registry so per-tenant counts do not bleed over.
SCENARIOS = [
    (
        "open 300/s",
        LoadSpec(
            mode="open",
            duration_s=0.5,
            rate_per_s=300.0,
            burst_factor=2.0,
            burst_period_s=0.125,
            n_users=100_000,
            n_queries=64,
            docs_per_query=10,
            zipf_s=1.1,
            tenants=(("web", 3.0), ("batch", 1.0)),
            seed=11,
        ),
        AsyncConfig(
            max_wait_us=500.0,
            slo_us=20_000.0,
            tenants=(
                TenantConfig(name="web", priority=0),
                TenantConfig(name="batch", priority=2),
            ),
        ),
    ),
    (
        "open 1500/s",
        LoadSpec(
            mode="open",
            duration_s=0.5,
            rate_per_s=1500.0,
            burst_factor=2.0,
            burst_period_s=0.125,
            n_users=100_000,
            n_queries=64,
            docs_per_query=10,
            zipf_s=1.1,
            tenants=(("web", 3.0), ("batch", 1.0)),
            seed=11,
        ),
        AsyncConfig(
            max_wait_us=500.0,
            slo_us=20_000.0,
            tenants=(
                TenantConfig(name="web", priority=0),
                TenantConfig(name="batch", priority=2),
            ),
        ),
    ),
    (
        "open 1500/s + limited tenant",
        LoadSpec(
            mode="open",
            duration_s=0.5,
            rate_per_s=1500.0,
            burst_factor=2.0,
            burst_period_s=0.125,
            n_users=100_000,
            n_queries=64,
            docs_per_query=10,
            zipf_s=1.1,
            tenants=(("web", 3.0), ("batch", 1.0), ("limited", 1.0)),
            seed=11,
        ),
        AsyncConfig(
            max_wait_us=500.0,
            slo_us=20_000.0,
            tenants=(
                TenantConfig(name="web", priority=0),
                TenantConfig(name="batch", priority=2),
                TenantConfig(name="limited", rate_per_s=100.0, burst=20),
            ),
        ),
    ),
    (
        "closed 32 users",
        LoadSpec(
            mode="closed",
            workers=32,
            requests_per_worker=40,
            think_time_s=0.0,
            n_users=100_000,
            n_queries=64,
            docs_per_query=10,
            zipf_s=1.1,
            tenants=(("web", 3.0), ("batch", 1.0)),
            seed=11,
        ),
        AsyncConfig(
            max_wait_us=500.0,
            slo_us=20_000.0,
            tenants=(
                TenantConfig(name="web", priority=0),
                TenantConfig(name="batch", priority=2),
            ),
        ),
    ),
]


def _us(value: float) -> str:
    return f"{value:.0f}" if math.isfinite(value) else "-"


def test_serving_sustained_load(benchmark):
    models = build_probe_models(n_queries=8, docs_per_query=16, seed=0)
    n_features = models["dataset"].features.shape[1]

    rows = []
    previous_registry = None
    trace_sample = None
    # Request tracing on for the whole sweep: the flight recorder is
    # reset per scenario so the emitted trace sample belongs to the
    # last (closed-loop) scenario, same as the obs snapshot.
    previous_recorder = obs.set_request_recorder(
        obs.RequestRecorder(enabled=True)
    )
    for label, spec, frontend in SCENARIOS:
        # Fresh registry per scenario: serving.* counters are cumulative
        # and per-tenant rows must not bleed across scenarios.
        previous_registry = obs.set_registry(MetricsRegistry())
        obs.get_request_recorder().reset()
        service = ScoringService(
            models["student"], ServiceConfig(backend="compiled-network")
        )
        report = run_load(
            service, spec, make_queries(spec, n_features), frontend=frontend
        )
        trace_sample = report.trace_sample
        serving = obs.serving_report()
        assert report.errors == 0, f"{label}: {report.errors} errors"
        stats = service.stats
        rows.append(
            (
                label,
                "(all)",
                report.offered,
                report.served,
                report.shed,
                sum(row["slo_miss"] for row in serving.rows),
                round(report.throughput_rps),
                f"{serving.totals['mean_batch_requests']:.1f}",
                _us(stats.p50_us),
                _us(stats.p95_us),
                _us(stats.p99_us),
            )
        )
        for row in serving.rows:
            rows.append(
                (
                    "",
                    row["tenant"],
                    row["offered"],
                    row["served"],
                    row["shed"],
                    row["slo_miss"],
                    "-",
                    "-",
                    _us(row["p50_us"]),
                    _us(row["p95_us"]),
                    _us(row["p99_us"]),
                )
            )

    # The last scenario's registry stays installed so the emitted obs
    # snapshot carries real serving.* series alongside the table.
    emit(
        "BENCH_serving",
        [
            "Scenario", "Tenant", "Offered", "Served", "Shed", "SLO miss",
            "Req/s", "Req/batch", "p50 us", "p95 us", "p99 us",
        ],
        rows,
        title="Async front-end under sustained multi-tenant load",
        notes=(
            "Latency percentiles are enqueue->response wall time "
            "(queueing included); the drift audit keeps pricing kernel "
            "time only.  Raising the offered rate deepens coalescing "
            "(Req/batch) before it moves throughput; the token-bucketed "
            "'limited' tenant sheds at admission (rate-limit) instead of "
            "queueing; SLO misses are counted against each tenant's "
            "deadline_us or the 20 ms default.  The attached obs "
            "snapshot and trace_sample (the slowest retained request's "
            "stage timeline) cover the final (closed-loop) scenario."
        ),
        extra={"trace_sample": trace_sample},
    )
    if previous_registry is not None:
        obs.set_registry(previous_registry)
    obs.set_request_recorder(previous_recorder)

    # Representative kernel for pytest-benchmark: one coalesced engine
    # call over 16 concurrent 10-doc requests.
    service = ScoringService(
        models["student"], ServiceConfig(backend="compiled-network")
    )
    queries = make_queries(SCENARIOS[0][1], n_features)[:16]
    benchmark(lambda: service.engine.score_coalesced(queries))
