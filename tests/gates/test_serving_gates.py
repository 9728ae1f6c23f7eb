"""Serving gates: multi-tenant admission and SLO accounting hold under
one seeded load run.  (Coalescing bit-identity on every probe plan is
held in ``tests/test_serving_async.py``.)

1. Admission — over one seeded three-tenant run, the rate-limited
   tenant is admitted at most ``burst + rate x wall`` times and shed for
   ``rate-limit`` only, and the unlimited tenants are never shed.
   Shedding never fails a request: every offered request is served or
   shed, and none errors.
2. SLO accounting — every served response of a tenant with an
   unmeetable deadline counts as a miss; a tenant without one has none.
3. Observability — the ``serving.*`` series agree with the client-side
   load report, tenant by tenant.
"""

from __future__ import annotations

import math

import pytest

from repro.runtime import AsyncConfig, ServiceConfig, TenantConfig
from repro.serving import LoadSpec, ScoringService, make_queries, run_load


#: The rate-limited tenant's token bucket: over a sub-second run it can
#: admit only a few of its ~66 offered requests.
BURST, RATE_PER_S = 5, 1.0
TENANTS = ("limited", "strict", "bulk")


@pytest.fixture(scope="module")
def tenant_load(probe_models):
    """One seeded closed-loop run over three tenants: the client-side
    load report and the serving report of a fresh metrics registry."""
    from repro import obs

    previous = obs.set_registry(obs.MetricsRegistry())
    try:
        service = ScoringService(
            probe_models["student"], ServiceConfig(backend="compiled-network")
        )
        frontend = AsyncConfig(
            max_wait_us=500.0,
            tenants=(
                TenantConfig(
                    name="limited", rate_per_s=RATE_PER_S, burst=BURST
                ),
                # 0.5 us enqueue -> response cannot be met
                TenantConfig(name="strict", deadline_us=0.5, priority=0),
                TenantConfig(name="bulk", priority=2),
            ),
        )
        spec = LoadSpec(
            mode="closed",
            workers=8,
            requests_per_worker=25,
            n_users=5000,
            n_queries=16,
            docs_per_query=8,
            zipf_s=1.1,
            tenants=tuple((name, 1.0) for name in TENANTS),
            seed=42,
        )
        n_features = probe_models["dataset"].features.shape[1]
        report = run_load(
            service, spec, make_queries(spec, n_features), frontend=frontend
        )
        return report, obs.serving_report()
    finally:
        obs.set_registry(previous)


def test_rate_limit_admits_at_most_burst_plus_rate_times_wall(tenant_load):
    report, _ = tenant_load
    shed = report.shed_by_tenant.get("limited", {})
    admitted = report.served_by_tenant.get("limited", 0)
    assert 1 <= admitted <= BURST + RATE_PER_S * report.wall_s, (
        f"{admitted} admitted in {report.wall_s:.3f} s"
    )
    assert set(shed) == {"rate-limit"}
    for tenant in ("strict", "bulk"):
        assert tenant not in report.shed_by_tenant


def test_admission_serves_or_sheds_every_request(tenant_load):
    report, _ = tenant_load
    assert report.errors == 0
    assert report.served + report.shed == report.offered > 0
    assert report.shed > 0


def test_unmeetable_deadline_misses_every_served_response(tenant_load):
    report, serving = tenant_load
    strict = serving.row("strict")
    assert strict["served"] == report.served_by_tenant["strict"] > 0
    assert strict["slo_miss"] == strict["served"]
    assert serving.row("bulk")["slo_miss"] == 0


def test_serving_series_agree_with_client_report(tenant_load):
    report, serving = tenant_load
    for tenant in TENANTS:
        row = serving.row(tenant)
        assert row["served"] == report.served_by_tenant.get(tenant, 0)
        assert row["shed"] == sum(
            report.shed_by_tenant.get(tenant, {}).values()
        )
        if row["served"]:
            assert math.isfinite(row["p99_us"]) and row["p99_us"] > 0
        assert tenant in serving.render()
    assert serving.totals["batches"] > 0
