"""Per-request tracing: trace ids and stage timelines across the stack.

The PR 2 tracer keeps *thread-local* span stacks, which is the right
shape for synchronous call trees and exactly the wrong shape for the
async front-end: a request is born on the event-loop thread, waits in
a queue, is drained by the batcher task, scored on the engine executor
thread (possibly fanning out over the ``ShardedScorer`` pool) and
resolved back on the loop.  No thread-local survives that journey.

:class:`RequestContext` does: one object per request carrying a trace
id and an append-only list of :class:`StageEvent` timings
(``admission`` → ``queue-wait`` → ``coalesce`` → ``kernel`` →
``respond``).  The front-end owns the object and stamps stages with
its own clock at each hop, so the four post-enqueue stages **tile** the
enqueue→response interval exactly — each stage starts where the
previous ended (``last_stage_end``) — which is what makes the
observability gates' "stage sum ≈ wall time" check
(``tests/gates/test_obs_gates.py``) hold by construction rather than
by luck.

Propagation into the engine thread uses :mod:`contextvars` set *inside*
the executor thread (``loop.run_in_executor`` does not copy the loop's
context, but a ``ContextVar.set`` in the worker thread binds in that
thread's own implicit context): :func:`activate_batch` installs the
coalesced batch's contexts around the kernel call, and deep layers —
``ShardedScorer``, ``InferencePlan`` — call :func:`annotate_requests`
to attach attributes (shards, plan fingerprints) to whichever requests
are live, without any parameter threading.

The :class:`RequestRecorder` is the lifecycle owner: ``begin`` mints a
context (or returns ``None`` while disabled — the true-no-op contract),
``finish`` files the finished record into its
:class:`~repro.obs.flight.FlightRecorder` and exemplar store.  The
process-wide default recorder starts disabled; ``begin`` then costs one
attribute check and allocates nothing.
"""

from __future__ import annotations

import threading
import uuid
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Iterator, Sequence

from repro.exceptions import ReproError
from repro.obs.flight import ExemplarStore, FlightRecorder, render_record

#: Canonical stage order; ``admission`` precedes the enqueue timestamp
#: and is excluded from the enqueue→response timeline sum.
STAGE_ORDER: tuple[str, ...] = (
    "admission",
    "queue-wait",
    "coalesce",
    "kernel",
    "respond",
)


class StageEvent:
    """One timed stage of a request's journey through the stack."""

    __slots__ = ("name", "start_s", "end_s", "attrs")

    def __init__(
        self, name: str, start_s: float, end_s: float, **attrs: Any
    ) -> None:
        self.name = name
        self.start_s = float(start_s)
        self.end_s = max(float(end_s), self.start_s)
        self.attrs = attrs

    @property
    def duration_us(self) -> float:
        """Stage length in microseconds."""
        return (self.end_s - self.start_s) * 1e6

    def to_dict(self, origin_s: float) -> dict[str, Any]:
        """JSON-ready form with ``start_us`` relative to ``origin_s``."""
        return {
            "name": self.name,
            "start_us": round((self.start_s - origin_s) * 1e6, 3),
            "duration_us": round(self.duration_us, 3),
            "attrs": dict(self.attrs),
        }


class RequestContext:
    """Trace id + stage timeline for one request.

    Mutated only by the owning front-end's loop/batcher/engine path —
    stages are stamped in order, never concurrently for one request —
    so the object itself needs no lock.  ``annotate`` may race only
    with itself across engine layers on the same thread.
    """

    __slots__ = (
        "trace_id",
        "tenant",
        "n_docs",
        "created_s",
        "enqueued_s",
        "finished_s",
        "batch_id",
        "status",
        "slo_us",
        "slo_miss",
        "stages",
        "attrs",
    )

    def __init__(
        self,
        tenant: str,
        *,
        n_docs: int,
        created_s: float,
        trace_id: str | None = None,
    ) -> None:
        self.trace_id = trace_id or uuid.uuid4().hex[:16]
        self.tenant = tenant
        self.n_docs = int(n_docs)
        self.created_s = float(created_s)
        self.enqueued_s: float | None = None
        self.finished_s: float | None = None
        self.batch_id: int | None = None
        self.status = "open"
        self.slo_us: float | None = None
        self.slo_miss = False
        self.stages: list[StageEvent] = []
        self.attrs: dict[str, Any] = {}

    # ------------------------------------------------------------------
    def stage(
        self, name: str, start_s: float, end_s: float, **attrs: Any
    ) -> StageEvent:
        """Record one stage ``[start_s, end_s]``; returns the event."""
        event = StageEvent(name, start_s, end_s, **attrs)
        self.stages.append(event)
        return event

    def annotate(self, **attrs: Any) -> "RequestContext":
        """Attach attributes; returns ``self`` for chaining."""
        self.attrs.update(attrs)
        return self

    def last_stage_end(self, default: float) -> float:
        """Where the previous stage ended (``default`` with no stages).

        The stage-tiling anchor: starting each new stage here guarantees
        the timeline has no gaps or overlaps.
        """
        return self.stages[-1].end_s if self.stages else default

    # ------------------------------------------------------------------
    @property
    def origin_s(self) -> float:
        """The timeline origin: enqueue time (arrival for shed requests)."""
        return self.enqueued_s if self.enqueued_s is not None else self.created_s

    @property
    def wall_us(self) -> float:
        """Enqueue→finish wall microseconds (0.0 while unfinished)."""
        if self.finished_s is None:
            return 0.0
        return max(self.finished_s - self.origin_s, 0.0) * 1e6

    @property
    def timeline_us(self) -> float:
        """Sum of post-enqueue *canonical* stage durations.

        Only the :data:`STAGE_ORDER` stages count (minus ``admission``):
        they tile the enqueue→response interval by construction.  Detail
        stages — e.g. the per-stage ``cascade:<name>`` spans a
        :class:`~repro.runtime.ranking.RankingPipeline` stamps *inside*
        the kernel window — overlap the canonical ones and would
        double-count.
        """
        return sum(
            s.duration_us
            for s in self.stages
            if s.name in STAGE_ORDER and s.name != "admission"
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """JSON-ready record (stage starts relative to the enqueue time)."""
        origin = self.origin_s
        return {
            "trace_id": self.trace_id,
            "tenant": self.tenant,
            "status": self.status,
            "n_docs": self.n_docs,
            "batch_id": self.batch_id,
            "wall_us": round(self.wall_us, 3),
            "timeline_us": round(self.timeline_us, 3),
            "slo_us": self.slo_us,
            "slo_miss": self.slo_miss,
            "attrs": dict(self.attrs),
            "stages": [s.to_dict(origin) for s in self.stages],
        }

    def render(self) -> str:
        """ASCII timeline of this request."""
        return render_record(self.to_dict())


# ----------------------------------------------------------------------
# Context propagation
# ----------------------------------------------------------------------
_CURRENT: ContextVar[RequestContext | None] = ContextVar(
    "repro_request", default=None
)
#: ``(live, slots)`` of the engine call bound in this context: the
#: traced requests, and one slot per request of the call (``None`` for
#: an untraced one).
_ACTIVE_BATCH: ContextVar[
    tuple[tuple[RequestContext, ...], tuple[RequestContext | None, ...]]
] = ContextVar("repro_request_batch", default=((), ()))


def current_request() -> RequestContext | None:
    """The single request bound to the calling context, if any."""
    return _CURRENT.get()


def active_requests() -> tuple[RequestContext, ...]:
    """Every request live in the calling context (batch, else current).

    Inside a coalesced engine call this is the whole batch's traced
    requests; inside a single-request scope it is a 1-tuple; elsewhere
    it is empty.
    """
    batch = _ACTIVE_BATCH.get()[0]
    if batch:
        return batch
    ctx = _CURRENT.get()
    return (ctx,) if ctx is not None else ()


def request_slots() -> tuple[RequestContext | None, ...]:
    """One entry per request of the engine call bound in this context,
    in request order, ``None`` for an untraced request; empty when no
    batch is bound.  A scorer that splits a coalesced batch at its
    request boundaries (a cascade) stamps each request's own context
    through these slots.
    """
    return _ACTIVE_BATCH.get()[1]


@contextmanager
def activate(ctx: RequestContext) -> Iterator[RequestContext]:
    """Bind one request to the calling context for the ``with`` body."""
    token = _CURRENT.set(ctx)
    try:
        yield ctx
    finally:
        _CURRENT.reset(token)


@contextmanager
def activate_batch(
    contexts: Sequence[RequestContext | None],
) -> Iterator[tuple[RequestContext, ...]]:
    """Bind a coalesced batch's requests to the calling context.

    ``contexts`` holds one slot per request of the engine call, ``None``
    for an untraced one (see :func:`request_slots`); the ``with`` body
    gets the traced ones.  Called *inside* the engine executor thread (a
    ``ContextVar.set`` in a worker thread binds in that thread's own
    implicit context), which is how request identity crosses the
    ``run_in_executor`` boundary that thread-locals and the loop's
    context cannot.
    """
    slots = tuple(contexts)
    live = tuple(ctx for ctx in slots if ctx is not None)
    token = _ACTIVE_BATCH.set((live, slots))
    try:
        yield live
    finally:
        _ACTIVE_BATCH.reset(token)


def annotate_requests(**attrs: Any) -> int:
    """Attach attributes to every request live in the calling context.

    The deep-layer hook (sharded scorer, compiled plans): costs two
    ``ContextVar`` reads and is a no-op when no request is active, so
    it can sit unconditionally in hot paths.  Returns how many requests
    were annotated.
    """
    contexts = active_requests()
    for ctx in contexts:
        ctx.annotate(**attrs)
    return len(contexts)


# ----------------------------------------------------------------------
# Recorder (lifecycle owner)
# ----------------------------------------------------------------------
class RequestRecorder:
    """Mints request contexts and retains finished ones.

    While ``enabled`` is false, :meth:`begin` returns ``None`` without
    allocating — the front-end then skips every per-request tracing
    branch, keeping the disabled path a true no-op (guard-tested, same
    contract as the disabled tracer).
    """

    def __init__(
        self,
        *,
        enabled: bool = False,
        flight: FlightRecorder | None = None,
        exemplars: ExemplarStore | None = None,
    ) -> None:
        self.enabled = enabled
        self.flight = flight if flight is not None else FlightRecorder()
        self.exemplars = (
            exemplars if exemplars is not None else ExemplarStore()
        )
        self._lock = threading.Lock()
        self._begun = 0
        self._finished = 0

    # ------------------------------------------------------------------
    def begin(
        self,
        tenant: str,
        *,
        n_docs: int,
        now_s: float,
        trace_id: str | None = None,
    ) -> RequestContext | None:
        """Mint a context for an arriving request (``None`` if disabled)."""
        if not self.enabled:
            return None
        ctx = RequestContext(
            tenant, n_docs=n_docs, created_s=now_s, trace_id=trace_id
        )
        with self._lock:
            self._begun += 1
        return ctx

    def finish(
        self,
        ctx: RequestContext,
        *,
        status: str,
        now_s: float,
        slo_us: float | None = None,
        slo_miss: bool = False,
    ) -> None:
        """Close a context and retain it (flight + exemplars).

        ``status`` is ``"ok"`` / ``"shed"`` / ``"error"``; only served
        requests feed the exemplar store (shed/error records have no
        meaningful latency).
        """
        if status not in ("ok", "shed", "error"):
            raise ReproError(f"unknown request status {status!r}")
        ctx.status = status
        ctx.finished_s = float(now_s)
        ctx.slo_us = slo_us
        ctx.slo_miss = bool(slo_miss)
        self.flight.retain(ctx)
        if status == "ok":
            self.exemplars.observe(ctx.tenant, ctx.wall_us, ctx.trace_id)
        with self._lock:
            self._finished += 1

    # ------------------------------------------------------------------
    def counts(self) -> dict[str, int]:
        """Begun/finished totals plus the flight recorder's store sizes."""
        with self._lock:
            counts = {"begun": self._begun, "finished": self._finished}
        counts.update(self.flight.counts())
        return counts

    def reset(self) -> None:
        """Drop retained records, exemplars and lifecycle counters."""
        self.flight.clear()
        self.exemplars.clear()
        with self._lock:
            self._begun = 0
            self._finished = 0


# ----------------------------------------------------------------------
# Process-wide default recorder (disabled until someone opts in)
# ----------------------------------------------------------------------
_default_recorder = RequestRecorder(enabled=False)


def get_request_recorder() -> RequestRecorder:
    """The process-wide default request recorder."""
    return _default_recorder


def set_request_recorder(recorder: RequestRecorder) -> RequestRecorder:
    """Replace the default request recorder; returns the previous one."""
    global _default_recorder
    previous = _default_recorder
    _default_recorder = recorder
    return previous


def enable_request_tracing(enabled: bool = True) -> None:
    """Switch the default request recorder on (or off)."""
    _default_recorder.enabled = enabled


def request_tracing_enabled() -> bool:
    """Whether the default request recorder is currently enabled."""
    return _default_recorder.enabled
