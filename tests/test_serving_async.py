"""Asyncio front-end: coalescing bit-identity, QoS behaviour, stats safety."""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import ReproError
from repro.obs.probe import build_probe_models
from repro.runtime import AsyncConfig, ServiceConfig, TenantConfig
from repro.runtime.batching import ServiceStats
from repro.serving import (
    AsyncScoringService,
    RequestShedError,
    ScoringService,
)
from repro.serving.frontend import _Pending

#: Service label -> probe role and backend options: the forest, the
#: dense and the pruned student on their compiled plans, and both
#: students' int8 plans.
SERVED = {
    "quickscorer": ("forest", {}),
    "student": ("student", {}),
    "compiled-network": ("pruned", {}),
    "student-int8": ("student", {"quantize": "int8"}),
    "pruned-int8": ("pruned", {"quantize": "int8"}),
}


@pytest.fixture(scope="module")
def probe_models():
    return build_probe_models(n_queries=4, docs_per_query=8, seed=0)


@pytest.fixture(scope="module")
def services(probe_models):
    """One ScoringService per served model, shared across examples."""
    return {
        label: ScoringService(
            probe_models[role], ServiceConfig(backend_options=options)
        )
        for label, (role, options) in SERVED.items()
    }


def _score_interleaved(service, requests, *, frontend=None, tenant="default"):
    """All requests concurrently through a fresh front-end; ordered."""

    async def _run():
        async with AsyncScoringService(
            service, frontend=frontend or AsyncConfig(max_wait_us=1000.0)
        ) as front:
            return await asyncio.gather(
                *(front.score(x, tenant=tenant) for x in requests)
            )

    return asyncio.run(_run())


# ----------------------------------------------------------------------
# Satellite 3: hypothesis — interleaved == sequential, bitwise
# ----------------------------------------------------------------------
class TestCoalescingBitIdentity:
    @pytest.mark.parametrize("backend", list(SERVED))
    @given(
        sizes=st.lists(st.integers(0, 13), min_size=1, max_size=12),
        seed=st.integers(0, 2**16),
    )
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_interleaved_matches_sequential(
        self, services, backend, sizes, seed
    ):
        service = services[backend]
        n_features = service.scorer.input_dim
        rng = np.random.default_rng(seed)
        requests = [
            rng.standard_normal((n, n_features)) for n in sizes
        ]
        sequential = [service.score(x) for x in requests]
        interleaved = _score_interleaved(service, requests)
        for ref, got in zip(sequential, interleaved):
            np.testing.assert_array_equal(got, ref)
            assert got.dtype == np.float64

    def test_identity_survives_tiny_batch_caps(self, services):
        # Forcing many small coalesced batches must not change scores.
        service = services["student"]
        rng = np.random.default_rng(7)
        requests = [
            rng.standard_normal((n, service.scorer.input_dim))
            for n in (5, 1, 9, 3, 7)
        ]
        sequential = [service.score(x) for x in requests]
        interleaved = _score_interleaved(
            service,
            requests,
            frontend=AsyncConfig(
                max_wait_us=1000.0, max_batch_requests=2, max_batch_docs=8
            ),
        )
        for ref, got in zip(sequential, interleaved):
            np.testing.assert_array_equal(got, ref)


# ----------------------------------------------------------------------
# Front-end behaviour
# ----------------------------------------------------------------------
class TestFrontend:
    def test_requires_running(self, services):
        front = AsyncScoringService(services["student"])

        async def _call():
            await front.score(np.zeros((1, 136)))

        with pytest.raises(ReproError, match="not running"):
            asyncio.run(_call())

    def test_zero_doc_request(self, services):
        service = services["student"]
        [scores] = _score_interleaved(
            service, [np.zeros((0, service.scorer.input_dim))]
        )
        assert scores.shape == (0,)

    def test_requests_coalesce(self, services, obs_clean):
        service = services["student"]
        rng = np.random.default_rng(3)
        requests = [
            rng.standard_normal((4, service.scorer.input_dim))
            for _ in range(10)
        ]

        async def _run():
            async with AsyncScoringService(
                service, frontend=AsyncConfig(max_wait_us=2000.0)
            ) as front:
                await asyncio.gather(
                    *(front.score(x) for x in requests)
                )
                return front.summary()

        summary = asyncio.run(_run())
        assert summary["coalesced_requests"] == 10
        assert summary["batches"] < 10  # at least some sharing happened
        assert summary["requests_per_batch"] > 1.0
        report = obs_clean.serving_report()
        assert report.totals["batches"] == summary["batches"]
        row = report.row("default")
        assert row is not None and row["admitted"] == row["served"] == 10

    def test_shed_raises_and_is_recorded(self, services, obs_clean):
        service = services["student"]
        frontend = AsyncConfig(
            tenants=(TenantConfig(name="t", rate_per_s=1.0, burst=1),)
        )
        x = np.zeros((2, service.scorer.input_dim))

        async def _run():
            async with AsyncScoringService(
                service, frontend=frontend
            ) as front:
                first = await front.score(x, tenant="t")
                with pytest.raises(RequestShedError) as excinfo:
                    await front.score(x, tenant="t")
                return first, excinfo.value

        scores, err = asyncio.run(_run())
        assert scores.shape == (2,)
        assert (err.tenant, err.reason) == ("t", "rate-limit")
        row = obs_clean.serving_report().row("t")
        assert row["admitted"] == 1 and row["shed"] == 1
        assert row["shed_reasons"] == (("rate-limit", 1),)

    def test_stop_drains_pending_requests(self, services):
        service = services["student"]
        x = np.ones((3, service.scorer.input_dim))

        async def _run():
            front = await AsyncScoringService(
                service, frontend=AsyncConfig(max_wait_us=50_000.0)
            ).start()
            task = asyncio.ensure_future(front.score(x))
            await asyncio.sleep(0)  # let it enqueue
            await front.stop()  # must answer, not abandon
            return await task

        scores = asyncio.run(_run())
        np.testing.assert_array_equal(scores, service.score(x))

    def test_engine_failure_reaches_every_caller(self, probe_models):
        from repro.runtime import FaultPolicy, make_scorer, with_faults

        faulty = with_faults(
            make_scorer(probe_models["student"]),
            FaultPolicy.every(1, "error"),
        )
        service = ScoringService(faulty)
        x = np.zeros((2, service.scorer.input_dim))

        async def _run():
            async with AsyncScoringService(service) as front:
                return await asyncio.gather(
                    front.score(x),
                    front.score(x),
                    return_exceptions=True,
                )

        results = asyncio.run(_run())
        assert len(results) == 2
        assert all(isinstance(r, Exception) for r in results)

    def test_slo_miss_counted_but_served(self, services, obs_clean):
        service = services["student"]
        frontend = AsyncConfig(
            tenants=(TenantConfig(name="strict", deadline_us=0.5),)
        )
        x = np.zeros((2, service.scorer.input_dim))
        [scores] = _score_interleaved(
            service, [x], frontend=frontend, tenant="strict"
        )
        assert scores.shape == (2,)  # served despite the miss
        row = obs_clean.serving_report().row("strict")
        assert row["served"] == 1 and row["slo_miss"] == 1

    def test_latency_includes_queueing_drift_does_not(self, probe_models):
        # Satellite 2: a fresh service so stats are exclusively ours.
        service = ScoringService(
            probe_models["student"],
            ServiceConfig(backend="compiled-network"),
        )
        rng = np.random.default_rng(5)
        requests = [
            rng.standard_normal((4, service.scorer.input_dim))
            for _ in range(8)
        ]
        _score_interleaved(
            service, requests, frontend=AsyncConfig(max_wait_us=5000.0)
        )
        stats = service.stats
        assert stats.requests == 8
        # The ~5 ms linger sat in the queue: it must show in the
        # latency axis (p50 > linger) but not in the kernel axis.
        assert stats.queued_seconds > 0.0
        assert stats.p50_us > 5000.0
        assert stats.wall_seconds * 1e6 < stats.p50_us * len(requests)

    def test_config_flows_from_service_config(self, probe_models):
        service = ScoringService(
            probe_models["student"],
            ServiceConfig(
                backend="compiled-network",
                frontend=AsyncConfig(max_batch_requests=3),
            ),
        )
        front = AsyncScoringService(service)
        assert front.frontend.max_batch_requests == 3
        with pytest.raises(ValueError, match="not both"):
            AsyncScoringService(service, ServiceConfig())


# ----------------------------------------------------------------------
# Drain order: priority classes, FIFO within, batch caps
# ----------------------------------------------------------------------
class TestDrainOrder:
    def _pending(self, front, tenant, rows, tag):
        state = front.admission.state(tenant)
        state.queued += 1
        item = _Pending(
            np.full((rows, 2), tag, dtype=np.float64),
            tenant,
            state,
            0.0,
            None,  # future untouched by _drain
        )
        from collections import deque

        front._queues.setdefault(state.config.priority, deque()).append(item)
        front._queued += 1
        return item

    def _front(self, services, **kwargs):
        return AsyncScoringService(
            services["student"], frontend=AsyncConfig(**kwargs)
        )

    def test_priority_then_fifo(self, services):
        front = self._front(
            services,
            tenants=(
                TenantConfig(name="fast", priority=0),
                TenantConfig(name="slow", priority=2),
            ),
        )
        a = self._pending(front, "slow", 1, 1)
        b = self._pending(front, "fast", 1, 2)
        c = self._pending(front, "fast", 1, 3)
        d = self._pending(front, "default", 1, 4)  # implicit priority 1
        assert front._drain() == [b, c, d, a]
        assert front._queued == 0
        assert front.admission.state("fast").queued == 0

    def test_request_cap(self, services):
        front = self._front(services, max_batch_requests=2)
        items = [self._pending(front, "default", 1, i) for i in range(5)]
        assert front._drain() == items[:2]
        assert front._drain() == items[2:4]
        assert front._drain() == items[4:]

    def test_doc_cap_never_splits_a_request(self, services):
        front = self._front(services, max_batch_docs=10)
        a = self._pending(front, "default", 6, 1)
        b = self._pending(front, "default", 6, 2)
        c = self._pending(front, "default", 3, 3)
        # a+b exceeds 10 docs -> b starts the next batch; c rides along.
        assert front._drain() == [a]
        assert front._drain() == [b, c]

    def test_oversized_request_still_drains_alone(self, services):
        front = self._front(services, max_batch_docs=4)
        a = self._pending(front, "default", 9, 1)
        assert front._drain() == [a]


# ----------------------------------------------------------------------
# Satellite 1: stats and registry are safe under concurrent writers
# ----------------------------------------------------------------------
class TestConcurrentAccounting:
    def test_service_stats_record_is_thread_safe(self):
        stats = ServiceStats()
        threads, per_thread = 8, 1000

        def hammer():
            for _ in range(per_thread):
                # 0.5 / 0.25 are exact binary floats: the accumulated
                # sums are order-independent, so totals must be exact.
                stats.record(2, 0.5, kernel_seconds=0.25)

        workers = [threading.Thread(target=hammer) for _ in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        n = threads * per_thread
        assert stats.requests == n
        assert stats.documents == 2 * n
        assert stats.wall_seconds == 0.25 * n
        assert stats.queued_seconds == 0.25 * n
        assert stats._latency_us.count == n

    def test_registry_series_are_thread_safe(self, obs_clean):
        counter = obs_clean.counter("serving.requests", tenant="x")
        hist = obs_clean.histogram("serving.latency_us", tenant="x")
        threads, per_thread = 8, 1000

        def hammer():
            for _ in range(per_thread):
                counter.inc()
                hist.add(1.0)

        workers = [threading.Thread(target=hammer) for _ in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        assert counter.value == threads * per_thread
        assert hist.count == threads * per_thread
