"""Request-tracing smoke gate (``make trace-smoke``).

Deterministic, seconds-fast assertions over the per-request tracing
layer end to end:

1. **Disabled is a true no-op** — with the default (disabled) request
   recorder, a seeded load run retains zero records, and the scores it
   returns are bit-identical to the same run with tracing enabled
   (tracing must never touch a score).
2. **Traced load retains the tail** — with tracing enabled, a seeded
   closed-loop run yields ≥1 retained slow-request record, every
   exemplar resolves to a retrievable trace id, and each served
   record's stage timeline (queue-wait + coalesce + kernel + respond)
   sums to within 5% of its recorded enqueue→response wall time — the
   stage-tiling contract.
3. **Burn monitor sees the traffic** — the SLO burn report carries a
   row for every tenant the run served.

Exits non-zero on the first violated invariant.
"""

from __future__ import annotations

import asyncio
import sys

import numpy as np

from repro import obs
from repro.obs.metrics import MetricsRegistry
from repro.obs.probe import build_probe_models
from repro.runtime import AsyncConfig, ServiceConfig
from repro.serving import LoadSpec, ScoringService, make_queries
from repro.serving.loadgen import run_load_async

#: Closed-loop scenario: enough concurrency to coalesce, small enough
#: to finish in well under a second.
_SPEC = LoadSpec(
    mode="closed",
    workers=12,
    requests_per_worker=8,
    think_time_s=0.0,
    n_users=5_000,
    n_queries=16,
    docs_per_query=8,
    zipf_s=1.1,
    tenants=(("web", 3.0), ("batch", 1.0)),
    seed=7,
)
_FRONTEND = AsyncConfig(max_wait_us=300.0, slo_us=1_000.0)


def _run_load(service, n_features: int):
    async def _go():
        from repro.serving.frontend import AsyncScoringService

        queries = make_queries(_SPEC, n_features)
        async with AsyncScoringService(service, frontend=_FRONTEND) as front:
            return await run_load_async(front, _SPEC, queries)

    return asyncio.run(_go())


def _score_all(service, queries) -> list[np.ndarray]:
    """Every query scored through the async front-end, in order."""

    async def _go():
        from repro.serving.frontend import AsyncScoringService

        async with AsyncScoringService(service, frontend=_FRONTEND) as front:
            return await asyncio.gather(
                *(front.score(q, tenant="web") for q in queries)
            )

    return asyncio.run(_go())


def _fresh_service():
    models = build_probe_models(n_queries=8, docs_per_query=8, seed=0)
    return (
        ScoringService(
            models["student"], ServiceConfig(backend="compiled-network")
        ),
        models["dataset"].features.shape[1],
    )


def check_disabled_noop() -> None:
    """Disabled recorder: zero retained records, bit-identical scores."""
    service, n_features = _fresh_service()
    queries = make_queries(_SPEC, n_features)[:12]

    recorder = obs.RequestRecorder(enabled=False)
    previous = obs.set_request_recorder(recorder)
    try:
        scores_off = _score_all(service, queries)
    finally:
        obs.set_request_recorder(previous)
    counts = recorder.counts()
    assert counts["begun"] == 0, f"disabled recorder minted {counts}"
    assert all(
        counts[k] == 0 for k in ("recent", "slowest", "shed", "errored")
    ), f"disabled recorder retained records: {counts}"

    previous = obs.set_request_recorder(obs.RequestRecorder(enabled=True))
    try:
        scores_on = _score_all(service, queries)
    finally:
        obs.set_request_recorder(previous)
    for off, on in zip(scores_off, scores_on):
        assert np.array_equal(off, on), "tracing changed a score"


def check_traced_load() -> None:
    """Traced run: tail retained, exemplars resolve, timelines tile."""
    service, n_features = _fresh_service()
    recorder = obs.RequestRecorder(enabled=True)
    previous_recorder = obs.set_request_recorder(recorder)
    previous_registry = obs.set_registry(MetricsRegistry())
    previous_monitor = obs.set_slo_monitor(obs.SloMonitor())
    try:
        report = _run_load(service, n_features)
        assert report.errors == 0, f"{report.errors} load errors"
        assert report.served > 0, "load run served nothing"

        slowest = recorder.flight.slowest_records()
        assert len(slowest) >= 1, "no slow-request record retained"
        assert report.trace_sample is not None, "report carries no trace"
        assert (
            report.trace_sample["trace_id"] == slowest[0].trace_id
        ), "trace sample is not the slowest retained record"

        exemplars = recorder.exemplars.items()
        assert exemplars, "no exemplars recorded"
        for ex in exemplars:
            assert (
                recorder.flight.get(ex.trace_id) is not None
            ), f"exemplar trace {ex.trace_id} not retrievable"

        served = [
            r for r in recorder.flight.records() if r.status == "ok"
        ]
        assert served, "no served records retained"
        stage_names = {"queue-wait", "coalesce", "kernel", "respond"}
        for record in served:
            names = {s.name for s in record.stages}
            missing = stage_names - names
            assert not missing, (
                f"trace {record.trace_id} lacks stages {sorted(missing)}"
            )
            drift = abs(record.timeline_us - record.wall_us)
            assert drift <= 0.05 * record.wall_us, (
                f"trace {record.trace_id}: stage sum {record.timeline_us:.1f}"
                f" us vs wall {record.wall_us:.1f} us"
            )
            assert record.batch_id is not None, "served record has no batch"

        burn = obs.slo_burn_report()
        tenants = {row.tenant for row in burn.rows}
        assert set(report.served_by_tenant) <= tenants, (
            f"burn report lacks tenants: {report.served_by_tenant} "
            f"vs {tenants}"
        )
    finally:
        obs.set_request_recorder(previous_recorder)
        obs.set_registry(previous_registry)
        obs.set_slo_monitor(previous_monitor)


def main() -> int:
    """Run every check; non-zero exit on the first failure."""
    checks = [check_disabled_noop, check_traced_load]
    for check in checks:
        check()
        print(f"trace-smoke: {check.__name__} ok")
    print("trace-smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
