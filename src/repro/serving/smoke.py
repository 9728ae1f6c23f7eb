"""Self-checking serving front-end smoke run (``make serving-smoke``).

Exercises the asyncio multi-tenant front-end end to end and *asserts*
the outcomes, so CI can gate on ``python -m repro.serving.smoke``:

1. **Coalescing bit-identity** — concurrent async requests answered
   through shared cross-request micro-batches must reproduce sequential
   ``ScoringService.score`` bit for bit, on every probe model (the
   ``quickscorer`` forest, the dense and the pruned student's
   ``compiled-network`` plans, and an int8 plan of the pruned student).
   This is the contract that makes coalescing adoptable: sharing a GEMM
   may never change a score.
2. **Coalescing actually coalesces** — with a linger window and
   concurrent callers, the engine must see fewer batches than requests
   (requests/batch > 1), or the front-end is just a slow queue.
3. **Admission control** — a deterministic seeded load run over three
   tenants must shed a rate-limited tenant within provable bounds
   (its token bucket admits at most ``burst + rate x wall`` requests),
   shed it for the ``rate-limit`` reason only, and leave the unlimited
   tenant unshed.  Shedding raises; it never fails a served request.
4. **SLO accounting** — a tenant with an unmeetable ``deadline_us``
   must have every served response counted as an SLO miss (misses are
   served, not dropped), and the miss counts must agree between the
   admission layer and the ``serving.*`` series.
5. **Observability** — :func:`repro.obs.serving_report` must reflect
   the traffic just offered: per-tenant admitted/shed counts matching
   the client-side :class:`~repro.serving.loadgen.LoadReport`, finite
   latency percentiles, and a rendering that names every tenant.

Exits non-zero on any violation.
"""

from __future__ import annotations

import asyncio
import math
import sys

import numpy as np


def check_bit_identity() -> tuple[int, float]:
    """Interleaved async scoring == sequential scoring, across backends."""
    from repro.obs.probe import build_probe_models
    from repro.runtime import AsyncConfig, ServiceConfig
    from repro.serving import AsyncScoringService, ScoringService

    models = build_probe_models(n_queries=8, docs_per_query=16, seed=0)
    features = models["dataset"].features
    rng = np.random.default_rng(3)
    targets = [
        ("forest", {}),
        # coalescing composes with compiled execution because stable
        # plans are chunk-invariant, quantized ones exact-integer
        ("student", {}),
        ("pruned", {}),
        ("pruned", {"quantize": "int8"}),
    ]
    checked = 0
    best_coalesce = 0.0
    for role, opts in targets:
        service = ScoringService(
            models[role], ServiceConfig(backend_options=opts)
        )
        backend = f"{role} {service.scorer.backend}"
        # Uneven per-request slices of the probe matrix, so batch
        # boundaries never align with request boundaries.
        bounds = np.sort(
            rng.choice(np.arange(1, len(features)), size=7, replace=False)
        )
        requests = np.split(features, bounds)
        sequential = [service.score(x) for x in requests]

        async def _interleaved() -> tuple[list[np.ndarray], dict]:
            async with AsyncScoringService(
                service, frontend=AsyncConfig(max_wait_us=2000.0)
            ) as front:
                scores = await asyncio.gather(
                    *(front.score(x) for x in requests)
                )
                return scores, front.summary()

        interleaved, summary = asyncio.run(_interleaved())
        for index, (ref, got) in enumerate(zip(sequential, interleaved)):
            np.testing.assert_array_equal(
                got,
                ref,
                err_msg=(
                    f"{backend} request {index} scored through a coalesced "
                    "batch diverged from sequential scoring"
                ),
            )
            checked += 1
        ratio = summary["requests_per_batch"]
        if math.isfinite(ratio):
            best_coalesce = max(best_coalesce, ratio)
    assert checked >= 32, f"only {checked} identity checks ran"
    assert best_coalesce > 1.0, (
        f"concurrent requests never shared a batch "
        f"(best requests/batch {best_coalesce:.2f})"
    )
    print(
        f"bit-identity: {checked} coalesced requests reproduce sequential "
        f"scoring exactly (best coalescing {best_coalesce:.1f} requests/batch)"
    )
    return checked, best_coalesce


def check_admission_and_slo():
    """Deterministic seeded load: shed bounds, reasons, SLO accounting."""
    from repro import obs
    from repro.obs.probe import build_probe_models
    from repro.runtime import AsyncConfig, ServiceConfig, TenantConfig
    from repro.serving import LoadSpec, ScoringService, make_queries, run_load

    models = build_probe_models(n_queries=8, docs_per_query=16, seed=0)
    n_features = models["dataset"].features.shape[1]
    service = ScoringService(
        models["student"], ServiceConfig(backend="compiled-network")
    )
    frontend = AsyncConfig(
        max_wait_us=500.0,
        tenants=(
            # bucket of 5, refilling 1/s: over a sub-second run it can
            # admit at most ~6 of this tenant's ~66 offered requests
            TenantConfig(name="limited", rate_per_s=1.0, burst=5),
            # 0.5 us enqueue->response is unmeetable: every served
            # response must count as an SLO miss (served, not dropped)
            TenantConfig(name="strict", deadline_us=0.5, priority=0),
            TenantConfig(name="bulk", priority=2),
        ),
    )
    spec = LoadSpec(
        mode="closed",
        workers=8,
        requests_per_worker=25,
        think_time_s=0.0,
        n_users=5000,
        n_queries=16,
        docs_per_query=8,
        zipf_s=1.1,
        tenants=(("limited", 1.0), ("strict", 1.0), ("bulk", 1.0)),
        seed=42,
    )
    queries = make_queries(spec, n_features)
    report = run_load(service, spec, queries, frontend=frontend)

    assert report.errors == 0, f"{report.errors} requests errored"
    assert report.offered == spec.workers * spec.requests_per_worker
    assert report.served + report.shed == report.offered

    def offered(tenant: str) -> int:
        return report.served_by_tenant.get(tenant, 0) + sum(
            report.shed_by_tenant.get(tenant, {}).values()
        )

    # Rate-limited tenant: the bucket bounds admissions at
    # burst + rate x wall, so with ~66 offered and a sub-minute run the
    # shed ratio is provably in (0.5, 1.0) — the bounds the issue gates.
    limited_offered = offered("limited")
    limited_shed = sum(report.shed_by_tenant.get("limited", {}).values())
    admit_bound = 5 + 1.0 * max(report.wall_s, 1.0)
    assert limited_offered - limited_shed <= admit_bound + 1, (
        f"token bucket over-admitted: {limited_offered - limited_shed} "
        f"admitted vs bound {admit_bound:.0f}"
    )
    limited_ratio = limited_shed / limited_offered
    assert 0.5 <= limited_ratio < 1.0, (
        f"limited tenant shed ratio {limited_ratio:.1%} outside [0.5, 1.0)"
    )
    assert set(report.shed_by_tenant.get("limited", {})) == {"rate-limit"}, (
        "limited tenant shed for reasons other than rate-limit: "
        f"{report.shed_by_tenant.get('limited')}"
    )
    # Unlimited tenants must sail through admission untouched.
    for tenant in ("strict", "bulk"):
        assert tenant not in report.shed_by_tenant, (
            f"{tenant} was shed: {report.shed_by_tenant.get(tenant)}"
        )

    # SLO accounting: strict's deadline is unmeetable, so every served
    # response is a miss — and misses are *served* (client saw scores).
    serving = obs.serving_report()
    strict = serving.row("strict")
    assert strict is not None, "strict tenant missing from serving report"
    assert strict["served"] == report.served_by_tenant["strict"]
    assert strict["slo_miss"] == strict["served"], (
        f"strict tenant: {strict['slo_miss']} SLO misses != "
        f"{strict['served']} served under an unmeetable deadline"
    )
    bulk = serving.row("bulk")
    assert bulk is not None and bulk["slo_miss"] == 0, (
        "bulk tenant has no SLO configured but recorded misses"
    )
    print(
        f"admission: limited tenant shed {limited_ratio:.0%} "
        f"(rate-limit only), strict tenant {strict['slo_miss']}/"
        f"{strict['served']} SLO misses, bulk untouched"
    )
    return report, serving


def check_observability(report, serving) -> None:
    """The serving.* series must agree with the client-side report."""
    for tenant in ("limited", "strict", "bulk"):
        row = serving.row(tenant)
        assert row is not None, f"{tenant} missing from serving report"
        assert row["served"] == report.served_by_tenant.get(tenant, 0), (
            f"{tenant}: serving.latency_us count {row['served']} != "
            f"client-side served {report.served_by_tenant.get(tenant, 0)}"
        )
        client_shed = sum(report.shed_by_tenant.get(tenant, {}).values())
        assert row["shed"] == client_shed, (
            f"{tenant}: serving.shed {row['shed']} != client-side "
            f"{client_shed}"
        )
        if row["served"]:
            assert math.isfinite(row["p99_us"]) and row["p99_us"] > 0, (
                f"{tenant} served traffic but p99 is {row['p99_us']}"
            )
    totals = serving.totals
    assert totals["batches"] > 0, "no coalesced batches recorded"
    rendered = serving.render()
    for tenant in ("limited", "strict", "bulk"):
        assert tenant in rendered, f"{tenant} missing from rendering"
    print(
        f"obs: {totals['batches']} batches, "
        f"{totals['mean_batch_requests']:.1f} requests/batch, "
        "per-tenant counts agree with the client-side report"
    )


def main() -> int:
    check_bit_identity()
    report, serving = check_admission_and_slo()
    check_observability(report, serving)
    print()
    print(report.render())
    print()
    print(serving.render())
    print(
        "serving-smoke: coalescing is bit-identical and tenancy "
        "admission/SLO accounting holds"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
