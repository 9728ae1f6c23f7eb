"""Resilient serving: retries, deadlines, circuit breaking, fallbacks.

The paper prices every architecture against a latency budget *before*
it serves; this module keeps the service inside that budget when the
chosen model misbehaves at runtime.  Three cooperating pieces, all
deterministic under an injectable ``clock``/``sleep`` pair:

* :class:`ResilientScorer` — wraps one
  :class:`~repro.runtime.base.Scorer` with retry-with-backoff
  (:class:`RetryPolicy`), per-request deadline enforcement, a finite-
  score check (NaN output is a failure, not a result), and a
  :class:`CircuitBreaker` whose trip conditions are a sliding-window
  failure rate and — the paper-specific twist — the predicted-vs-
  measured latency *drift* the existing
  :class:`~repro.runtime.batching.ServiceStats` series already tracks;
* :class:`FallbackChain` — the degradation ladder: a primary backend
  (say ``quickscorer`` or a student's ``compiled-network`` plan) backed
  by progressively cheaper tiers (a pruned student, a
  :class:`StubScorer`), tried in order whenever a tier's breaker is
  open, its deadline is breached or its retries are exhausted.  The
  chain itself satisfies the :class:`~repro.runtime.base.Scorer`
  protocol, so it drops into
  :class:`~repro.runtime.batching.BatchEngine` and
  :class:`~repro.serving.ScoringService` unchanged and is priced by its
  primary tier;
* every retry, failure, breaker transition and fallback feeds the
  ``resilience.*`` metric series (:mod:`repro.obs.resilience`), read
  back by :func:`repro.obs.resilience_report`.

Pair with :mod:`repro.runtime.faults` to script failures
deterministically; see ``docs/resilience.md`` for the tuning guide.
"""

from __future__ import annotations

import math
import time
from collections import deque
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from repro.exceptions import ReproError
from repro.obs.resilience import (
    record_breaker_state,
    record_failure,
    record_fallback,
    record_retry,
    record_served,
)
from repro.runtime.base import is_scorer
from repro.runtime.batching import ServiceStats
from repro.utils.codec import ConfigCodec

__all__ = [
    "AllTiersFailedError",
    "BreakerState",
    "CircuitBreaker",
    "CircuitBreakerConfig",
    "CircuitOpenError",
    "DeadlineExceededError",
    "FallbackChain",
    "ResilienceError",
    "ResilientScorer",
    "RetryPolicy",
    "ScorerFaultError",
    "StubScorer",
    "make_fallback_chain",
]


class ResilienceError(ReproError):
    """Base class of the resilience layer's failures."""


class DeadlineExceededError(ResilienceError):
    """A request (including retries and backoff) overran its deadline."""


class CircuitOpenError(ResilienceError):
    """The tier's circuit breaker is open; the call was not attempted."""


class ScorerFaultError(ResilienceError):
    """A scorer returned unusable output (non-finite or mis-shaped)."""


class AllTiersFailedError(ResilienceError):
    """Every tier of a fallback chain failed the request."""


# ----------------------------------------------------------------------
# Retry policy
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy(ConfigCodec):
    """Bounded retries with deterministic exponential backoff.

    ``max_attempts`` counts the first try: ``max_attempts=1`` disables
    retries (fail fast into the fallback chain), ``3`` allows two
    re-attempts.  The backoff before retry ``r`` (1-based) is
    ``backoff_seconds * backoff_multiplier ** (r - 1)``, capped at
    ``max_backoff_seconds`` — no jitter, so schedules replay exactly.
    """

    max_attempts: int = 3
    backoff_seconds: float = 0.001
    backoff_multiplier: float = 2.0
    max_backoff_seconds: float = 0.25

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_seconds < 0:
            raise ValueError(
                f"backoff_seconds must be >= 0, got {self.backoff_seconds}"
            )
        if self.backoff_multiplier < 1.0:
            raise ValueError(
                f"backoff_multiplier must be >= 1, "
                f"got {self.backoff_multiplier}"
            )
        if self.max_backoff_seconds < self.backoff_seconds:
            raise ValueError(
                f"max_backoff_seconds must be >= backoff_seconds, "
                f"got {self.max_backoff_seconds} < {self.backoff_seconds}"
            )

    def backoff_before(self, retry: int) -> float:
        """Seconds to pause before the ``retry``-th re-attempt (1-based)."""
        if retry < 1:
            raise ValueError(f"retry must be >= 1, got {retry}")
        raw = self.backoff_seconds * self.backoff_multiplier ** (retry - 1)
        return min(raw, self.max_backoff_seconds)


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------
class BreakerState(str, Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


@dataclass(frozen=True)
class CircuitBreakerConfig(ConfigCodec):
    """Trip and recovery tuning of a :class:`CircuitBreaker`.

    The breaker trips when, over a sliding window of the last ``window``
    outcomes (at least ``min_samples`` of them), the failure rate
    reaches ``failure_rate_threshold`` — or, independently, when the
    tier's measured-vs-predicted latency drift exceeds
    ``drift_pct_limit`` percent (``None`` disables the drift trip).
    After ``cooldown_seconds`` an open breaker admits probe traffic
    (half-open); ``half_open_probes`` consecutive successes close it,
    any probe failure reopens it and restarts the cooldown.
    """

    window: int = 8
    min_samples: int = 4
    failure_rate_threshold: float = 0.5
    cooldown_seconds: float = 1.0
    half_open_probes: int = 2
    drift_pct_limit: float | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if not 1 <= self.min_samples <= self.window:
            raise ValueError(
                f"min_samples must be in [1, window], got {self.min_samples}"
            )
        if not 0.0 < self.failure_rate_threshold <= 1.0:
            raise ValueError(
                f"failure_rate_threshold must be in (0, 1], "
                f"got {self.failure_rate_threshold}"
            )
        if self.cooldown_seconds < 0:
            raise ValueError(
                f"cooldown_seconds must be >= 0, got {self.cooldown_seconds}"
            )
        if self.half_open_probes < 1:
            raise ValueError(
                f"half_open_probes must be >= 1, got {self.half_open_probes}"
            )


class CircuitBreaker:
    """closed → open → half-open state machine over call outcomes.

    Deterministic by construction: state only changes in response to
    :meth:`record_success` / :meth:`record_failure` and to the injected
    ``clock`` crossing the cooldown boundary.  ``history`` records every
    transition (state, reason) in order, which is what the property
    tests assert on.
    """

    def __init__(
        self,
        config: CircuitBreakerConfig | None = None,
        *,
        clock: Callable[[], float] = time.monotonic,
        drift_fn: Callable[[], float] | None = None,
        backend: str = "scorer",
    ) -> None:
        self.config = config or CircuitBreakerConfig()
        self.backend = backend
        self._clock = clock
        self._drift_fn = drift_fn
        #: Sliding window of outcomes; ``True`` marks a failure.
        self._outcomes: deque[bool] = deque(maxlen=self.config.window)
        self._state = BreakerState.CLOSED
        self._opened_at = float("-inf")
        self._probe_successes = 0
        self.last_trip_reason: str | None = None
        self.history: list[tuple[BreakerState, str]] = []
        record_breaker_state(backend, self._state, transition=False)

    # ------------------------------------------------------------------
    @property
    def state(self) -> BreakerState:
        """Current state; an expired cooldown surfaces as half-open."""
        self._maybe_half_open()
        return self._state

    def allow(self) -> bool:
        """Whether a call may proceed (half-open admits probe traffic)."""
        return self.state is not BreakerState.OPEN

    def failure_rate(self) -> float:
        """Failure fraction over the current window (0 when empty)."""
        if not self._outcomes:
            return 0.0
        return sum(self._outcomes) / len(self._outcomes)

    # ------------------------------------------------------------------
    def record_success(self) -> None:
        """Fold one successful call into the window / probe count."""
        state = self.state
        if state is BreakerState.HALF_OPEN:
            self._probe_successes += 1
            if self._probe_successes >= self.config.half_open_probes:
                self._outcomes.clear()
                self._transition(BreakerState.CLOSED, "probes succeeded")
            return
        self._outcomes.append(False)
        limit = self.config.drift_pct_limit
        if limit is not None and self._drift_fn is not None:
            drift = self._drift_fn()
            if math.isfinite(drift) and drift > limit:
                self._trip(f"latency drift {drift:.1f}% > {limit:.1f}%")

    def record_failure(self) -> None:
        """Fold one failed call; may trip or (half-open) reopen."""
        state = self.state
        if state is BreakerState.HALF_OPEN:
            self._trip("half-open probe failed")
            return
        if state is BreakerState.OPEN:
            return
        self._outcomes.append(True)
        if len(self._outcomes) >= self.config.min_samples:
            rate = self.failure_rate()
            if rate >= self.config.failure_rate_threshold:
                self._trip(
                    f"failure rate {rate:.2f} >= "
                    f"{self.config.failure_rate_threshold:.2f} "
                    f"over {len(self._outcomes)} calls"
                )

    # ------------------------------------------------------------------
    def _maybe_half_open(self) -> None:
        if self._state is BreakerState.OPEN and (
            self._clock() - self._opened_at >= self.config.cooldown_seconds
        ):
            self._probe_successes = 0
            self._transition(BreakerState.HALF_OPEN, "cooldown elapsed")

    def _trip(self, reason: str) -> None:
        self.last_trip_reason = reason
        self._opened_at = self._clock()
        self._outcomes.clear()
        self._probe_successes = 0
        self._transition(BreakerState.OPEN, reason)

    def _transition(self, to: BreakerState, reason: str) -> None:
        if to is self._state:
            return
        self._state = to
        self.history.append((to, reason))
        record_breaker_state(self.backend, to)

    def __repr__(self) -> str:
        return (
            f"<CircuitBreaker [{self.backend}] {self._state.value} "
            f"rate={self.failure_rate():.2f}>"
        )


# ----------------------------------------------------------------------
# Resilient scorer
# ----------------------------------------------------------------------
class ResilientScorer:
    """One scorer hardened with retries, a deadline and a breaker.

    Satisfies the :class:`~repro.runtime.base.Scorer` protocol with the
    wrapped scorer's backend name, price, batchability, coalescability
    and input dimension, so hardening is transparent to engines and chains.  A
    call fails — and feeds the breaker — when the scorer raises, returns
    non-finite scores, or comes back after ``deadline_us``; successes
    within the deadline are returned *bit-identically* (the output array
    is not copied or re-rounded).

    The per-tier :class:`ServiceStats` records successful calls, which
    is what arms the breaker's latency-drift trip: ``drift_pct`` of
    those stats is the breaker's ``drift_fn``.
    """

    backend = "resilient"
    batchable = True
    coalescable = False

    def __init__(
        self,
        scorer,
        *,
        retry: RetryPolicy | None = None,
        breaker: CircuitBreaker | CircuitBreakerConfig | None = None,
        deadline_us: float | None = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        stats: ServiceStats | None = None,
    ) -> None:
        if not is_scorer(scorer):
            raise TypeError(
                f"expected a Scorer, got {type(scorer).__name__} "
                "(build one with make_scorer)"
            )
        if deadline_us is not None and deadline_us <= 0:
            raise ValueError(f"deadline_us must be > 0, got {deadline_us}")
        self.inner = scorer
        self.backend = scorer.backend
        self.batchable = getattr(scorer, "batchable", True)
        self.coalescable = getattr(scorer, "coalescable", False)
        self.retry = retry or RetryPolicy()
        self.deadline_us = deadline_us
        self._clock = clock
        self._sleep = sleep
        self.stats = stats or ServiceStats()
        if isinstance(breaker, CircuitBreaker):
            self.breaker = breaker
        else:
            self.breaker = CircuitBreaker(
                breaker,
                clock=clock,
                drift_fn=lambda: self.stats.drift_pct,
                backend=scorer.backend,
            )
        # Pricing is lazy and can be expensive (GFLOPS calibration), so
        # only force it when the drift trip actually needs a reference.
        self._needs_price = self.breaker.config.drift_pct_limit is not None
        self.retries = 0
        self.failures = 0

    # ------------------------------------------------------------------
    @property
    def input_dim(self) -> int | None:
        return self.inner.input_dim

    @property
    def predicted_us_per_doc(self) -> float:
        return self.inner.predicted_us_per_doc

    def describe(self) -> str:
        return f"resilient({self.inner.describe()})"

    def __repr__(self) -> str:
        return (
            f"<ResilientScorer [{self.backend}] "
            f"breaker={self.breaker.state.value} retries={self.retries}>"
        )

    # ------------------------------------------------------------------
    def score(self, features) -> np.ndarray:
        """Score with retries inside the deadline, feeding the breaker."""
        if not self.breaker.allow():
            record_failure(self.backend, "CircuitOpenError")
            reason = self.breaker.last_trip_reason
            raise CircuitOpenError(
                f"circuit open for backend {self.backend!r}"
                + (f" ({reason})" if reason else "")
            )
        if self._needs_price and math.isnan(self.stats.predicted_us_per_doc):
            self.stats.predicted_us_per_doc = float(
                self.inner.predicted_us_per_doc
            )
        deadline_s = (
            self.deadline_us * 1e-6 if self.deadline_us is not None else None
        )
        start = self._clock()
        last_exc: Exception | None = None
        for attempt in range(1, self.retry.max_attempts + 1):
            if attempt > 1:
                if not self.breaker.allow():
                    raise CircuitOpenError(
                        f"circuit opened mid-request for backend "
                        f"{self.backend!r}"
                    ) from last_exc
                pause = self.retry.backoff_before(attempt - 1)
                if deadline_s is not None and (
                    self._clock() - start + pause >= deadline_s
                ):
                    record_failure(self.backend, "DeadlineExceededError")
                    raise DeadlineExceededError(
                        f"no deadline budget left to retry backend "
                        f"{self.backend!r} ({self.deadline_us:.0f} us)"
                    ) from last_exc
                if pause > 0:
                    self._sleep(pause)
                self.retries += 1
                record_retry(self.backend)
            call_start = self._clock()
            try:
                scores = np.asarray(
                    self.inner.score(features), dtype=np.float64
                )
                if not np.all(np.isfinite(scores)):
                    raise ScorerFaultError(
                        f"backend {self.backend!r} returned non-finite scores"
                    )
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as exc:
                last_exc = exc
                self.failures += 1
                self.breaker.record_failure()
                record_failure(self.backend, type(exc).__name__)
                continue
            elapsed = max(self._clock() - call_start, 0.0)
            if deadline_s is not None and self._clock() - start > deadline_s:
                # The call came back, but past the deadline: the client
                # has already lost its budget, so degrade instead.
                self.failures += 1
                self.breaker.record_failure()
                record_failure(self.backend, "DeadlineExceededError")
                raise DeadlineExceededError(
                    f"backend {self.backend!r} answered after the "
                    f"{self.deadline_us:.0f} us deadline"
                )
            self.breaker.record_success()
            if len(scores):
                self.stats.record(len(scores), elapsed)
            return scores
        assert last_exc is not None
        raise last_exc


# ----------------------------------------------------------------------
# Fallback chain
# ----------------------------------------------------------------------
class FallbackChain:
    """The degradation ladder: primary scorer, then cheaper stand-ins.

    Tiers are tried in order; a tier is skipped (and the next one
    serves) when its breaker is open, its deadline is breached or its
    retries are exhausted.  Tiers that are not already
    :class:`ResilientScorer` instances are wrapped with the shared
    ``retry``/``breaker``/``deadline_us`` settings (each tier gets its
    *own* breaker built from the shared config).

    The chain satisfies the Scorer protocol under the **primary's**
    backend name and price — the paper's budget admission check judges
    the architecture you intend to serve, not the emergency stand-ins —
    and when no fault fires the primary's scores pass through
    bit-identically.
    """

    backend = "fallback-chain"
    batchable = True
    coalescable = False

    def __init__(
        self,
        tiers: Sequence,
        *,
        retry: RetryPolicy | None = None,
        breaker: CircuitBreakerConfig | None = None,
        deadline_us: float | None = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if not tiers:
            raise ValueError("a fallback chain needs at least one scorer")
        built: list[ResilientScorer] = []
        for tier in tiers:
            if isinstance(tier, ResilientScorer):
                built.append(tier)
            elif is_scorer(tier):
                built.append(
                    ResilientScorer(
                        tier,
                        retry=retry,
                        breaker=breaker,
                        deadline_us=deadline_us,
                        clock=clock,
                        sleep=sleep,
                    )
                )
            else:
                raise TypeError(
                    f"tier must be a Scorer or ResilientScorer, got "
                    f"{type(tier).__name__} (build one with make_scorer "
                    "or make_fallback_chain)"
                )
        self.tiers: tuple[ResilientScorer, ...] = tuple(built)
        self.primary = self.tiers[0]
        self.backend = self.primary.backend
        self.batchable = all(t.batchable for t in self.tiers)
        # A coalesced batch may reach any tier whole: a batchable tier
        # scores it chunk-invariantly, a coalescable one splits it.
        self.coalescable = all(
            t.batchable or t.coalescable for t in self.tiers
        )
        self.served = [0] * len(self.tiers)
        self.fallbacks = 0

    # ------------------------------------------------------------------
    @property
    def input_dim(self) -> int | None:
        return self.primary.input_dim

    @property
    def predicted_us_per_doc(self) -> float:
        return self.primary.predicted_us_per_doc

    @property
    def requests(self) -> int:
        """Requests the chain has answered (any tier)."""
        return sum(self.served)

    @property
    def fallback_ratio(self) -> float:
        """Fraction of answered requests a non-primary tier served."""
        return self.fallbacks / self.requests if self.requests else 0.0

    def describe(self) -> str:
        ladder = " -> ".join(t.backend for t in self.tiers)
        return f"fallback chain [{ladder}]"

    def __repr__(self) -> str:
        return (
            f"<FallbackChain [{self.backend}] tiers={len(self.tiers)} "
            f"fallback_ratio={self.fallback_ratio:.1%}>"
        )

    # ------------------------------------------------------------------
    def score(self, features) -> np.ndarray:
        """Serve the request from the first tier that can answer it."""
        errors: list[tuple[str, Exception]] = []
        for index, tier in enumerate(self.tiers):
            try:
                scores = tier.score(features)
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as exc:
                errors.append((tier.backend, exc))
                continue
            self.served[index] += 1
            record_served(self.backend, tier.backend)
            if index > 0:
                self.fallbacks += 1
                record_fallback(self.backend, tier.backend)
            return scores
        raise AllTiersFailedError(
            "every tier failed the request: "
            + "; ".join(
                f"{backend}: {type(exc).__name__}: {exc}"
                for backend, exc in errors
            )
        )

    def tier_summary(self) -> list[dict[str, object]]:
        """Per-tier serving/breaker/retry snapshot, primary first."""
        return [
            {
                "backend": tier.backend,
                "served": self.served[index],
                "retries": tier.retries,
                "failures": tier.failures,
                "breaker": tier.breaker.state.value,
                "predicted_us_per_doc": tier.stats.predicted_us_per_doc,
            }
            for index, tier in enumerate(self.tiers)
        ]


# ----------------------------------------------------------------------
# Last-resort stub tier
# ----------------------------------------------------------------------
class StubScorer:
    """A last-resort, near-zero-cost linear scorer.

    The degradation ladder wants a final tier that cannot realistically
    fail: one numpy reduction per request (``features @ weights``, or
    the per-row feature mean when no weights are given), priced at a
    nominal ``price_us_per_doc``.  Quality is whatever a linear model
    gives — the point is answering *something* inside the budget when
    every learned tier is down, mirroring a distilled-to-the-bone
    student.
    """

    backend = "stub"
    batchable = True

    def __init__(
        self,
        *,
        weights=None,
        input_dim: int | None = None,
        price_us_per_doc: float = 0.01,
    ) -> None:
        if weights is not None:
            self.weights = np.asarray(weights, dtype=np.float64).ravel()
            if not self.weights.size:
                raise ValueError("weights must be non-empty")
            input_dim = self.weights.size
        else:
            self.weights = None
        self._input_dim = input_dim
        self._price = float(price_us_per_doc)

    @property
    def input_dim(self) -> int | None:
        return self._input_dim

    @property
    def predicted_us_per_doc(self) -> float:
        return self._price

    def score(self, features) -> np.ndarray:
        x = np.asarray(features, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError(
                f"features must be 2-dimensional, got shape {x.shape}"
            )
        if self.weights is None:
            return x.mean(axis=1) if x.shape[1] else np.zeros(len(x))
        if x.shape[1] != self.weights.size:
            raise ValueError(
                f"expected {self.weights.size} features, got {x.shape[1]}"
            )
        return x @ self.weights

    def describe(self) -> str:
        kind = "weighted" if self.weights is not None else "feature-mean"
        return f"stub linear scorer ({kind})"

    def __repr__(self) -> str:
        return f"<StubScorer [{self.backend}] {self.describe()}>"


# ----------------------------------------------------------------------
# Registry-integrated construction
# ----------------------------------------------------------------------
def make_fallback_chain(
    models: Sequence,
    *,
    backends: Sequence[str | None] | None = None,
    context=None,
    retry: RetryPolicy | None = None,
    breaker: CircuitBreakerConfig | None = None,
    deadline_us: float | None = None,
    clock: Callable[[], float] = time.monotonic,
    sleep: Callable[[float], None] = time.sleep,
) -> FallbackChain:
    """Build a :class:`FallbackChain` straight from models.

    Each entry of ``models`` may be a raw model (adapted through the
    backend registry, optionally pinned by the matching ``backends``
    name) or an already-built scorer.  Order is the degradation order:
    primary first, cheapest stand-in last.
    """
    from repro.runtime.registry import make_scorer

    if backends is not None and len(backends) != len(models):
        raise ValueError(
            f"backends must match models one-to-one, got "
            f"{len(backends)} backends for {len(models)} models"
        )
    tiers = []
    for index, model in enumerate(models):
        if is_scorer(model):
            tiers.append(model)
        else:
            backend = backends[index] if backends is not None else None
            tiers.append(make_scorer(model, backend=backend, context=context))
    return FallbackChain(
        tiers,
        retry=retry,
        breaker=breaker,
        deadline_us=deadline_us,
        clock=clock,
        sleep=sleep,
    )
