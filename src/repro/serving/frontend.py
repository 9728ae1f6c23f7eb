"""Asyncio front-end: cross-request coalescing over the scoring runtime.

:class:`AsyncScoringService` puts an event loop in front of the
synchronous :class:`~repro.serving.service.ScoringService`.  Many
concurrent callers ``await service.score(features, tenant=...)``; a
single batcher task drains the queue and pushes **one coalesced
micro-batch per engine call** through
:meth:`~repro.runtime.batching.BatchEngine.score_coalesced` — one GEMM
for N users' candidate lists instead of N small ones — then slices the
scores back out per request.

The bit contract: coalescing never changes a score.  Every batchable
backend in the runtime is chunk-invariant (network adapters and
``stable=True`` compiled plans run BLAS GEMM on fixed document tiles;
QuickScorer traversal is row-independent),
so the slice a request gets back is bitwise what a lone synchronous
``score`` call would have produced.  Non-batchable but coalescable
cascades also take the batch in one engine call and run each stage over
every request's survivors, with the same bits as one request at a time.
The hypothesis suite (``tests/test_serving_async.py``) and
``tests/gates/test_cascade_gates.py`` pin this.

Threading model — single-writer everywhere:

* all queueing, admission and response bookkeeping happens on the event
  loop thread (the :class:`~repro.serving.tenancy.AdmissionController`
  is lock-free by this contract);
* only the engine call runs off-loop, on a dedicated one-thread
  executor; :class:`~repro.runtime.batching.ServiceStats` and the
  ``obs`` registry take their own locks, so stats written from that
  thread and read from the loop are safe.

Queueing and QoS:

* arrivals pass the admission layer first — global queue cap, per-tenant
  queue cap, per-tenant token bucket — and a refused request raises
  :class:`~repro.serving.tenancy.RequestShedError` immediately
  (shed-at-arrival, never mid-queue);
* admitted requests wait in per-priority FIFO deques; the batcher drains
  strictly by priority class (lower number first), FIFO within a class,
  up to ``max_batch_requests`` / ``max_batch_docs`` per coalesced call;
* ``max_wait_us`` is the linger window: with queued work the batcher
  waits that long for more arrivals to coalesce before dispatching
  (0 = dispatch whatever is there, the latency-first default);
* every response is timed **enqueue→response** against the tenant's SLO
  (``deadline_us``, falling back to ``AsyncConfig.slo_us``); overruns
  are served but counted as ``serving.slo_miss``.

When the default :class:`~repro.obs.requests.RequestRecorder` is
enabled, every request additionally carries a
:class:`~repro.obs.requests.RequestContext`: the front-end stamps the
``admission`` / ``queue-wait`` / ``respond`` stages with its own clock,
the engine stamps ``coalesce`` / ``kernel`` (the contexts ride into the
executor thread via ``score_coalesced(request_contexts=...)``), and the
finished record lands in the flight recorder.  While the recorder is
disabled (the default) none of this allocates — the per-request branch
is one attribute check.

Use it as an async context manager::

    service = ScoringService(student, ServiceConfig(frontend=AsyncConfig(
        max_wait_us=200.0,
        tenants=(TenantConfig(name="web", rate_per_s=500.0, priority=0),),
    )))
    async with AsyncScoringService(service) as front:
        scores = await front.score(features, tenant="web")
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro import obs
from repro.exceptions import ReproError
from repro.runtime.config import AsyncConfig, ServiceConfig
from repro.serving.service import ScoringService
from repro.serving.tenancy import (
    AdmissionController,
    RequestShedError,
    TenantState,
)
from repro.utils.validation import check_array_2d

__all__ = ["AsyncScoringService"]


class _Pending:
    """One admitted request waiting in the queue."""

    __slots__ = ("features", "tenant", "state", "enqueued_at", "future", "ctx")

    def __init__(
        self,
        features: np.ndarray,
        tenant: str,
        state: TenantState,
        enqueued_at: float,
        future: asyncio.Future,
        ctx=None,
    ) -> None:
        self.features = features
        self.tenant = tenant
        self.state = state
        self.enqueued_at = enqueued_at
        self.future = future
        self.ctx = ctx


class AsyncScoringService:
    """Async multi-tenant endpoint coalescing requests into shared batches.

    Parameters
    ----------
    service:
        The synchronous :class:`~repro.serving.service.ScoringService`
        to serve through — or any model accepted by its constructor, in
        which case one is built from ``config``/``scorer_opts``.
    config:
        :class:`~repro.runtime.config.ServiceConfig` used when ``service``
        is a bare model.  Its ``frontend`` section configures this class.
    frontend:
        Explicit :class:`~repro.runtime.config.AsyncConfig`, overriding
        ``service.config.frontend`` (default: that, or ``AsyncConfig()``).
    clock:
        Monotonic-seconds clock driving enqueue timestamps, the token
        buckets and the kernel timer — injectable so tests replay
        schedules deterministically.
    """

    def __init__(
        self,
        service,
        config: ServiceConfig | None = None,
        *,
        frontend: AsyncConfig | None = None,
        clock: Callable[[], float] = time.perf_counter,
        **scorer_opts,
    ) -> None:
        if not isinstance(service, ScoringService):
            service = ScoringService(service, config, **scorer_opts)
        elif config is not None or scorer_opts:
            raise ValueError(
                "pass either a built ScoringService or a model with "
                "config/scorer options, not both"
            )
        self.service = service
        self.engine = service.engine
        if frontend is None:
            frontend = service.config.frontend or AsyncConfig()
        self.frontend = frontend
        self._clock = clock
        self.admission = AdmissionController(frontend, clock=clock)
        self._queues: dict[int, deque[_Pending]] = {}
        self._queued = 0
        self._batches = 0
        self._batch_seq = 0
        self._coalesced_requests = 0
        self._task: asyncio.Task | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._wakeup: asyncio.Event | None = None
        self._closing = False

    # ------------------------------------------------------------------
    # Model lifecycle (delegated to the wrapped service)
    # ------------------------------------------------------------------
    @property
    def lifecycle(self):
        """The wrapped service's
        :class:`~repro.runtime.lifecycle.LifecycleManager`."""
        return self.service.lifecycle

    @property
    def registry(self):
        """The wrapped service's
        :class:`~repro.runtime.lifecycle.ModelRegistry`."""
        return self.service.registry

    def swap(self, candidate, **kwargs) -> dict[str, object]:
        """Hot-swap the served model zero-downtime (see
        :meth:`ScoringService.swap`).  Safe to call while the batcher
        is running: activation is atomic and in-flight coalesced
        batches finish on the version they resolved."""
        return self.service.swap(candidate, **kwargs)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._task is not None

    async def start(self) -> "AsyncScoringService":
        """Start the batcher task (idempotent via context manager use)."""
        if self._task is not None:
            raise ReproError("AsyncScoringService is already running")
        self._closing = False
        self._wakeup = asyncio.Event()
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serving"
        )
        self._task = asyncio.get_running_loop().create_task(
            self._batch_loop(), name="repro-serving-batcher"
        )
        return self

    async def stop(self) -> None:
        """Drain every queued request, then stop the batcher."""
        if self._task is None:
            return
        self._closing = True
        assert self._wakeup is not None
        self._wakeup.set()
        try:
            await self._task
        finally:
            self._task = None
            if self._executor is not None:
                self._executor.shutdown(wait=True)
                self._executor = None

    async def __aenter__(self) -> "AsyncScoringService":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # Request path (event-loop thread only)
    # ------------------------------------------------------------------
    async def score(self, features, *, tenant: str = "default") -> np.ndarray:
        """Score one request's documents through the shared batch queue.

        Admission runs first — a shed request raises
        :class:`~repro.serving.tenancy.RequestShedError` without being
        queued.  Admitted requests resolve with the same float64 score
        vector a synchronous ``service.score`` call would return,
        bit-for-bit, regardless of which requests shared the batch.
        """
        if self._task is None or self._closing:
            raise ReproError(
                "AsyncScoringService is not running; use "
                "'async with AsyncScoringService(...)' or await start()"
            )
        x = np.asarray(features, dtype=np.float64)
        if not (x.ndim == 2 and x.shape[0] == 0):
            x = check_array_2d(x, "features")
        recorder = obs.get_request_recorder()
        ctx = (
            recorder.begin(tenant, n_docs=len(x), now_s=self._clock())
            if recorder.enabled
            else None
        )
        state, reason = self.admission.admit(
            tenant, queue_depth=self._queued, now=self._clock()
        )
        if reason is not None:
            obs.record_shed(tenant, reason)
            if ctx is not None:
                ctx.annotate(reason=reason)
                recorder.finish(ctx, status="shed", now_s=self._clock())
            raise RequestShedError(tenant, reason)
        obs.record_admitted(tenant)
        future = asyncio.get_running_loop().create_future()
        enqueued_at = self._clock()
        pending = _Pending(x, tenant, state, enqueued_at, future, ctx)
        if ctx is not None:
            # The enqueue timestamp anchors the stage timeline; the
            # arrival→enqueue admission work is recorded but excluded
            # from the enqueue→response sum.
            ctx.enqueued_s = enqueued_at
            ctx.stage(
                "admission",
                ctx.created_s,
                enqueued_at,
                priority=state.config.priority,
            )
        self._queues.setdefault(state.config.priority, deque()).append(
            pending
        )
        self._queued += 1
        assert self._wakeup is not None
        self._wakeup.set()
        return await future

    # ------------------------------------------------------------------
    # Batcher (single task)
    # ------------------------------------------------------------------
    async def _batch_loop(self) -> None:
        assert self._wakeup is not None
        while True:
            if not self._queued:
                if self._closing:
                    return
                self._wakeup.clear()
                await self._wakeup.wait()
                continue
            if self.frontend.max_wait_us > 0 and not self._closing:
                # Linger: trade this much latency for deeper coalescing.
                await asyncio.sleep(self.frontend.max_wait_us * 1e-6)
            batch = self._drain()
            if batch:
                await self._execute(batch)

    def _drain(self) -> list[_Pending]:
        """Pop the next coalesced batch: priority order, FIFO within."""
        batch: list[_Pending] = []
        docs = 0
        drained_at = self._clock()
        for priority in sorted(self._queues):
            queue = self._queues[priority]
            while queue:
                n = len(queue[0].features)
                if batch and (
                    len(batch) >= self.frontend.max_batch_requests
                    or docs + n > self.frontend.max_batch_docs
                ):
                    return batch
                pending = queue.popleft()
                self._queued -= 1
                self.admission.release(pending.tenant)
                if pending.ctx is not None:
                    pending.ctx.stage(
                        "queue-wait", pending.enqueued_at, drained_at
                    )
                batch.append(pending)
                docs += n
        return batch

    async def _execute(self, batch: list[_Pending]) -> None:
        features = [pending.features for pending in batch]
        enqueue_times = [pending.enqueued_at for pending in batch]
        contexts = [pending.ctx for pending in batch]
        traced = any(ctx is not None for ctx in contexts)
        self._batch_seq += 1
        if traced:
            for ctx in contexts:
                if ctx is not None:
                    ctx.batch_id = self._batch_seq
        loop = asyncio.get_running_loop()
        try:
            results = await loop.run_in_executor(
                self._executor,
                lambda: self.engine.score_coalesced(
                    features,
                    enqueue_times=enqueue_times,
                    clock=self._clock,
                    request_contexts=contexts if traced else None,
                ),
            )
        except Exception as exc:  # noqa: BLE001 — relayed to each caller
            now = self._clock()
            recorder = obs.get_request_recorder()
            for pending in batch:
                if pending.ctx is not None:
                    pending.ctx.annotate(error=type(exc).__name__)
                    recorder.finish(pending.ctx, status="error", now_s=now)
                if not pending.future.done():
                    pending.future.set_exception(exc)
            return
        now = self._clock()
        self._batches += 1
        self._coalesced_requests += len(batch)
        obs.record_batch(
            n_requests=len(batch),
            n_docs=sum(len(f) for f in features),
            queue_depth=self._queued,
        )
        recorder = obs.get_request_recorder()
        for pending, scores in zip(batch, results):
            latency_us = max(now - pending.enqueued_at, 0.0) * 1e6
            slo_us = pending.state.effective_slo_us(self.frontend.slo_us)
            miss = slo_us is not None and latency_us > slo_us
            obs.record_response(pending.tenant, latency_us, slo_us=slo_us)
            pending.state.served += 1
            if miss:
                pending.state.slo_misses += 1
            if pending.ctx is not None:
                ctx = pending.ctx
                # Respond picks up where the kernel stage ended, so the
                # four post-enqueue stages tile enqueue→response exactly.
                ctx.stage("respond", ctx.last_stage_end(now), now)
                recorder.finish(
                    ctx,
                    status="ok",
                    now_s=now,
                    slo_us=slo_us,
                    slo_miss=miss,
                )
            if not pending.future.done():
                pending.future.set_result(scores)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def summary(self) -> dict[str, object]:
        """Front-end position: coalescing counters + per-tenant states."""
        return {
            "batches": self._batches,
            "coalesced_requests": self._coalesced_requests,
            "requests_per_batch": (
                self._coalesced_requests / self._batches
                if self._batches
                else float("nan")
            ),
            "queue_depth": self._queued,
            "tenants": self.admission.summary(),
        }
