"""Observability gates.

* The probe workload, served with tracing on, renders well-formed JSON
  and Prometheus exports and drift rows for both serving backends.
* Request tracing: a disabled recorder retains nothing and never
  changes a score; a traced load run retains the slow tail, resolves
  every exemplar, tiles each trace's wall time with its stage timeline
  and feeds the SLO burn monitor for every served tenant.
"""

from __future__ import annotations

import asyncio
import json
import re

import numpy as np
import pytest

from repro.runtime import AsyncConfig, ServiceConfig
from repro.serving import LoadSpec, ScoringService, make_queries
from repro.serving.frontend import AsyncScoringService
from repro.serving.loadgen import run_load_async

_SAMPLE_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (NaN|[+-]?[0-9].*|[+-]Inf)$"
)

#: Closed-loop scenario: enough concurrency to coalesce, small enough
#: to finish in well under a second.
LOAD = LoadSpec(
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
FRONTEND = AsyncConfig(max_wait_us=300.0, slo_us=1_000.0)
STAGES = {"queue-wait", "coalesce", "kernel", "respond"}


@pytest.fixture(scope="module")
def traced_probe(probe_models):
    """Every probe query through each role's service, tracing on."""
    from repro import obs

    previous_tracer = obs.set_tracer(obs.Tracer(enabled=True))
    previous_registry = obs.set_registry(obs.MetricsRegistry())
    dataset = probe_models["dataset"]
    try:
        with obs.span("obs.gate"):
            for role in ("forest", "student", "pruned"):
                with obs.span("probe.serve", role=role):
                    service = ScoringService(
                        probe_models[role], max_batch_size=64
                    )
                    for q in range(dataset.n_queries):
                        service.score(dataset.features[dataset.query_slice(q)])
        yield obs.render_json(), obs.render_prometheus(), obs.drift_report()
    finally:
        obs.set_tracer(previous_tracer)
        obs.set_registry(previous_registry)


def test_json_export_is_well_formed(traced_probe):
    doc = json.loads(traced_probe[0])
    assert "trace" in doc and "metrics" in doc, "snapshot missing sections"
    assert doc["trace"], "no spans recorded with tracing enabled"
    assert doc["metrics"]["series"], "no metric series recorded"
    for root in doc["trace"]:
        assert root["finished"], f"unfinished root span {root['name']!r}"


def test_prometheus_export_is_well_formed(traced_probe):
    text = traced_probe[1]
    assert text.endswith("\n"), "exposition must end with a newline"
    for line in text.splitlines():
        if line and not line.startswith("#"):
            assert _SAMPLE_LINE.match(line), f"malformed sample line: {line!r}"


@pytest.mark.parametrize("backend", ["quickscorer", "compiled-network"])
def test_drift_rows_cover_serving_backends(traced_probe, backend):
    row = traced_probe[2].row(backend)
    assert row is not None and row["requests"] > 0, (
        f"no drift series for backend {backend!r}"
    )


# ----------------------------------------------------------------------
# Request tracing
# ----------------------------------------------------------------------
@pytest.fixture
def student_service(probe_models):
    return ScoringService(
        probe_models["student"], ServiceConfig(backend="compiled-network")
    )


def _score_all(service, queries) -> list[np.ndarray]:
    """Every query scored through the async front-end, in order."""

    async def _go():
        async with AsyncScoringService(service, frontend=FRONTEND) as front:
            return await asyncio.gather(
                *(front.score(q, tenant="web") for q in queries)
            )

    return asyncio.run(_go())


def test_disabled_recorder_is_a_noop(obs_clean, student_service, probe_models):
    obs = obs_clean
    n_features = probe_models["dataset"].n_features
    queries = make_queries(LOAD, n_features)[:12]

    recorder = obs.RequestRecorder(enabled=False)
    obs.set_request_recorder(recorder)
    scores_off = _score_all(student_service, queries)
    counts = recorder.counts()
    assert counts["begun"] == 0, f"disabled recorder minted {counts}"
    assert all(
        counts[k] == 0 for k in ("recent", "slowest", "shed", "errored")
    ), f"disabled recorder retained records: {counts}"

    obs.set_request_recorder(obs.RequestRecorder(enabled=True))
    scores_on = _score_all(student_service, queries)
    for off, on in zip(scores_off, scores_on):
        np.testing.assert_array_equal(off, on)


@pytest.fixture
def traced_load(obs_clean, student_service, probe_models):
    """A seeded closed-loop run with request tracing on."""
    recorder = obs_clean.RequestRecorder(enabled=True)
    obs_clean.set_request_recorder(recorder)
    queries = make_queries(LOAD, probe_models["dataset"].n_features)

    async def _go():
        async with AsyncScoringService(
            student_service, frontend=FRONTEND
        ) as front:
            return await run_load_async(front, LOAD, queries)

    report = asyncio.run(_go())
    assert report.errors == 0, f"{report.errors} load errors"
    assert report.served > 0, "load run served nothing"
    return report, recorder


def test_traced_load_retains_the_slow_tail(traced_load):
    report, recorder = traced_load
    slowest = recorder.flight.slowest_records()
    assert len(slowest) >= 1, "no slow-request record retained"
    assert report.trace_sample is not None, "report carries no trace"
    assert report.trace_sample["trace_id"] == slowest[0].trace_id
    exemplars = recorder.exemplars.items()
    assert exemplars, "no exemplars recorded"
    for ex in exemplars:
        assert recorder.flight.get(ex.trace_id) is not None, (
            f"exemplar trace {ex.trace_id} not retrievable"
        )


def test_stage_timelines_tile_wall_time(traced_load):
    _, recorder = traced_load
    served = [r for r in recorder.flight.records() if r.status == "ok"]
    assert served, "no served records retained"
    for record in served:
        missing = STAGES - {s.name for s in record.stages}
        assert not missing, (
            f"trace {record.trace_id} lacks stages {sorted(missing)}"
        )
        assert abs(record.timeline_us - record.wall_us) <= 0.05 * (
            record.wall_us
        ), (
            f"trace {record.trace_id}: stage sum {record.timeline_us:.1f}"
            f" us vs wall {record.wall_us:.1f} us"
        )
        assert record.batch_id is not None, "served record has no batch"


def test_burn_report_has_every_served_tenant(traced_load, obs_clean):
    report, _ = traced_load
    tenants = {row.tenant for row in obs_clean.slo_burn_report().rows}
    assert set(report.served_by_tenant) <= tenants, (
        f"burn report lacks tenants: {report.served_by_tenant} vs {tenants}"
    )
