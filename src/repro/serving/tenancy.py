"""Per-tenant admission control: token buckets, QoS classes, shedding.

A production ranker is shared by many callers — product surfaces, batch
re-scorers, experiment traffic — and the front-end must keep one noisy
tenant from starving the rest.  This module is the admission layer the
asyncio front-end consults *before* a request is queued:

* :class:`TokenBucket` — the classic rate limiter, deterministic under
  an injectable clock: tokens refill at ``rate_per_s`` up to ``burst``;
  a request is admitted iff a whole token is available.
* :class:`TenantState` — one tenant's live position: its bucket, its
  queued-request count, and its admission counters.
* :class:`AdmissionController` — maps tenant names to states (declared
  tenants from :class:`~repro.runtime.config.AsyncConfig`, undeclared
  ones under an implicit default contract) and answers one question per
  arrival: *admit, or shed with which reason?*  Shedding reasons are
  ``rate-limit`` (token bucket empty), ``queue-depth`` (front-end-wide
  cap) and ``tenant-queue-depth`` (per-tenant cap).

Shedding happens at arrival, never mid-queue: once admitted, a request
is always answered (the engine's own resilience ladder handles scorer
failures).  Every decision feeds the ``serving.*`` metric series.
"""

from __future__ import annotations

import time
from collections.abc import Callable

from repro.exceptions import ReproError
from repro.runtime.config import AsyncConfig, TenantConfig

__all__ = [
    "AdmissionController",
    "RequestShedError",
    "SHED_REASONS",
    "TenantState",
    "TokenBucket",
]

#: Reasons an arrival may be shed, as recorded in ``serving.shed``.
SHED_REASONS = ("rate-limit", "queue-depth", "tenant-queue-depth")


class RequestShedError(ReproError):
    """The front-end refused a request at admission (load shedding).

    Carries the ``tenant`` and the shed ``reason`` (one of
    :data:`SHED_REASONS`) so callers — and the load generator — can
    account rejections per tenant without parsing messages.
    """

    def __init__(self, tenant: str, reason: str) -> None:
        super().__init__(
            f"request from tenant {tenant!r} shed at admission: {reason}"
        )
        self.tenant = tenant
        self.reason = reason


class TokenBucket:
    """Deterministic token-bucket rate limiter.

    Tokens refill continuously at ``rate_per_s`` up to a capacity of
    ``burst``; the bucket starts full.  All timing flows through the
    injected ``clock`` (monotonic seconds), so tests can drive it with a
    manual clock and replay schedules exactly.
    """

    def __init__(
        self,
        rate_per_s: float,
        burst: int,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if rate_per_s <= 0:
            raise ReproError(f"rate_per_s must be > 0, got {rate_per_s}")
        if burst < 1:
            raise ReproError(f"burst must be >= 1, got {burst}")
        self.rate_per_s = float(rate_per_s)
        self.burst = int(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._refilled_at = clock()

    def _refill(self, now: float) -> None:
        elapsed = max(now - self._refilled_at, 0.0)
        self._tokens = min(
            self.burst, self._tokens + elapsed * self.rate_per_s
        )
        self._refilled_at = now

    def available(self, now: float | None = None) -> float:
        """Tokens currently in the bucket (refilled to ``now``)."""
        self._refill(self._clock() if now is None else now)
        return self._tokens

    def try_acquire(self, now: float | None = None) -> bool:
        """Take one token if available; returns whether it was."""
        self._refill(self._clock() if now is None else now)
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False

    def __repr__(self) -> str:
        return (
            f"<TokenBucket {self._tokens:.1f}/{self.burst} "
            f"@ {self.rate_per_s:g}/s>"
        )


class TenantState:
    """One tenant's live admission position."""

    def __init__(
        self,
        config: TenantConfig,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config
        self.bucket: TokenBucket | None = (
            TokenBucket(config.rate_per_s, config.burst, clock=clock)
            if config.rate_per_s is not None
            else None
        )
        self.queued = 0
        self.admitted = 0
        self.shed = 0
        self.served = 0
        self.slo_misses = 0

    def effective_slo_us(self, default_slo_us: float | None) -> float | None:
        """The tenant's enqueue→response SLO, falling back to the default."""
        if self.config.deadline_us is not None:
            return self.config.deadline_us
        return default_slo_us

    def snapshot(self) -> dict[str, object]:
        """Counters + contract, for summaries and the load harness."""
        return {
            "tenant": self.config.name,
            "priority": self.config.priority,
            "rate_per_s": self.config.rate_per_s,
            "admitted": self.admitted,
            "shed": self.shed,
            "served": self.served,
            "slo_misses": self.slo_misses,
            "queued": self.queued,
        }


class AdmissionController:
    """Tenant-aware admit-or-shed decisions for the async front-end.

    Single-writer by design: the controller is only touched from the
    event-loop thread (``score`` admissions and batcher releases), so it
    needs no locks — the contract the front-end upholds by doing *all*
    bookkeeping on the loop and only the engine call on the executor.
    """

    def __init__(
        self,
        config: AsyncConfig,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config
        self._clock = clock
        self.tenants: dict[str, TenantState] = {
            tenant.name: TenantState(tenant, clock=clock)
            for tenant in config.tenants
        }

    # ------------------------------------------------------------------
    def state(self, name: str) -> TenantState:
        """The tenant's state, creating an implicit default on first use."""
        found = self.tenants.get(name)
        if found is None:
            found = self.tenants[name] = TenantState(
                TenantConfig(name=name), clock=self._clock
            )
        return found

    def admit(
        self, name: str, *, queue_depth: int, now: float | None = None
    ) -> tuple[TenantState, str | None]:
        """Decide one arrival; returns ``(state, shed_reason_or_None)``.

        Check order mirrors cost: the global queue cap (protects the
        whole service) first, the per-tenant cap second, the token
        bucket last — a rate-limited tenant does not burn bucket tokens
        on requests a full queue would have shed anyway.
        """
        state = self.state(name)
        reason: str | None = None
        if queue_depth >= self.config.max_queue_depth:
            reason = "queue-depth"
        elif (
            state.config.max_queue_depth is not None
            and state.queued >= state.config.max_queue_depth
        ):
            reason = "tenant-queue-depth"
        elif state.bucket is not None and not state.bucket.try_acquire(
            self._clock() if now is None else now
        ):
            reason = "rate-limit"
        if reason is None:
            state.admitted += 1
            state.queued += 1
        else:
            state.shed += 1
        return state, reason

    def release(self, name: str) -> None:
        """Mark one queued request of ``name`` as drained into a batch."""
        state = self.state(name)
        state.queued = max(state.queued - 1, 0)

    def summary(self) -> list[dict[str, object]]:
        """Per-tenant snapshots, declared tenants first, then implicit."""
        declared = [t.name for t in self.config.tenants]
        order = declared + sorted(set(self.tenants) - set(declared))
        return [self.tenants[name].snapshot() for name in order]
