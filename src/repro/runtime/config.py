"""Typed service configuration: one object instead of sprawling kwargs.

:class:`~repro.serving.ScoringService` grew organically — budgets, then
batching, then five resilience kwargs, and now parallelism and caching.
This module consolidates that surface into a family of dataclasses:

* :class:`~repro.runtime.parallel.ParallelConfig` — workers, shard
  strategy, score cache (defined next to the engine it tunes);
* :class:`ResilienceConfig` — fallback ladder, retry policy, breaker
  tuning, deadline;
* :class:`TenantConfig` / :class:`AsyncConfig` — per-tenant admission,
  QoS and cross-request coalescing knobs of the asyncio front-end
  (:class:`~repro.serving.AsyncScoringService`);
* :class:`ServiceConfig` — the top-level bundle a service is built
  from.

Every config round-trips through one codec,
:class:`~repro.utils.codec.ConfigCodec`: ``to_dict()``/``from_dict()``
follow the dataclass fields, unknown keys raise
:class:`~repro.exceptions.ConfigError`, and a nested config field
accepts a dict at construction.  ``to_dict`` is declarative-only:
``fallback_models`` hold *live model objects* and cannot be serialized
— a config carrying them raises ``ConfigError`` on ``to_dict()``
rather than silently dropping tiers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import ConfigError
from repro.runtime.lifecycle import LifecycleConfig
from repro.runtime.parallel import ParallelConfig
from repro.runtime.ranking import PipelineConfig
from repro.runtime.resilience import CircuitBreakerConfig, RetryPolicy
from repro.utils.codec import LIVE, ConfigCodec

__all__ = ["AsyncConfig", "ResilienceConfig", "ServiceConfig", "TenantConfig"]


@dataclass(frozen=True)
class ResilienceConfig(ConfigCodec):
    """Degradation-ladder tuning for a scoring service.

    Any non-default field routes the service through a
    :class:`~repro.runtime.resilience.FallbackChain` (a config with only
    defaults still does — constructing one *is* the opt-in).

    Parameters
    ----------
    fallback_models:
        Models (or pre-built scorers) to degrade to, in order, cheapest
        last.  These are live objects and are **not** serialized.
    retry:
        Shared :class:`~repro.runtime.resilience.RetryPolicy` for every
        tier (``None`` = the policy's defaults).
    breaker:
        Shared :class:`~repro.runtime.resilience.CircuitBreakerConfig`
        (each tier still gets its own breaker instance).
    deadline_us:
        Deadline in microseconds on each call the engine makes to the
        chain, retries and backoff included.  Under ``parallel`` that
        call is a whole request, or a whole coalesced batch from the
        async front-end, whose members all wait for it; without
        ``parallel`` it is one ``max_batch_size`` micro-batch.  The
        tier that answers the call serves every row of it.
    """

    fallback_models: tuple = field(default=(), metadata=LIVE)
    retry: RetryPolicy | None = None
    breaker: CircuitBreakerConfig | None = None
    deadline_us: float | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if not isinstance(self.fallback_models, tuple):
            object.__setattr__(
                self, "fallback_models", tuple(self.fallback_models)
            )
        if self.deadline_us is not None and self.deadline_us <= 0:
            raise ConfigError(
                f"deadline_us must be > 0, got {self.deadline_us}"
            )


@dataclass(frozen=True)
class TenantConfig(ConfigCodec):
    """Admission and QoS contract of one tenant of the async front-end.

    Fully declarative (JSON round-trips through
    ``to_dict``/``from_dict``): a tenant is a name plus numbers, never a
    live object.

    Parameters
    ----------
    name:
        Tenant identifier, matched against the ``tenant=`` argument of
        :meth:`~repro.serving.AsyncScoringService.score`.
    rate_per_s:
        Token-bucket refill rate in requests per second; ``None``
        disables rate limiting for this tenant.
    burst:
        Token-bucket capacity — how many requests the tenant may issue
        back to back before the refill rate binds.
    priority:
        QoS class; **lower is more urgent**.  The batcher drains pending
        requests in ascending priority order (FIFO within a class), so
        an interactive tenant at priority 0 coalesces ahead of a batch
        tenant at priority 2.
    max_queue_depth:
        Per-tenant cap on queued-but-unserved requests; arrivals beyond
        it are shed with reason ``tenant-queue-depth``.  ``None`` leaves
        only the front-end-wide cap.
    deadline_us:
        Per-tenant SLO on **enqueue→response** wall time.  Responses
        are still delivered when it is overrun, but each overrun counts
        as an SLO miss (``serving.slo_miss``).  ``None`` falls back to
        :attr:`AsyncConfig.slo_us`.
    """

    name: str = "default"
    rate_per_s: float | None = None
    burst: int = 32
    priority: int = 1
    max_queue_depth: int | None = None
    deadline_us: float | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.name or not isinstance(self.name, str):
            raise ConfigError(
                f"tenant name must be a non-empty string, got {self.name!r}"
            )
        if self.rate_per_s is not None and self.rate_per_s <= 0:
            raise ConfigError(
                f"rate_per_s must be > 0 (or None), got {self.rate_per_s}"
            )
        if self.burst < 1:
            raise ConfigError(f"burst must be >= 1, got {self.burst}")
        if self.priority < 0:
            raise ConfigError(
                f"priority must be >= 0, got {self.priority}"
            )
        if self.max_queue_depth is not None and self.max_queue_depth < 1:
            raise ConfigError(
                f"max_queue_depth must be >= 1 (or None), "
                f"got {self.max_queue_depth}"
            )
        if self.deadline_us is not None and self.deadline_us <= 0:
            raise ConfigError(
                f"deadline_us must be > 0 (or None), got {self.deadline_us}"
            )


@dataclass(frozen=True)
class AsyncConfig(ConfigCodec):
    """Queueing, coalescing and tenancy tuning of the async front-end.

    Consumed by :class:`~repro.serving.AsyncScoringService`: requests
    admitted past the per-tenant token buckets wait in priority queues
    until the batcher coalesces them — many users' small candidate lists
    concatenated into one cross-request micro-batch per engine call,
    sliced back out bit-identically (chunk-invariant scorers only; see
    ``docs/serving_async.md``).

    Parameters
    ----------
    max_wait_us:
        How long the batcher lingers for more arrivals once at least one
        request is pending.  ``0`` coalesces only what is already queued
        when the batcher wakes (lowest latency, still coalesces
        concurrent arrivals).
    max_batch_requests:
        Most requests folded into one coalesced engine call.
    max_batch_docs:
        Most document rows folded into one coalesced engine call (a
        request is never split across coalesced batches).
    max_queue_depth:
        Front-end-wide cap on queued requests; arrivals beyond it are
        shed with reason ``queue-depth`` — load shedding under burst.
    slo_us:
        Default enqueue→response SLO applied to tenants without their
        own ``deadline_us``; ``None`` disables SLO accounting for them.
    tenants:
        Declared :class:`TenantConfig` entries.  Unknown tenant names
        arriving at the front-end are admitted under an implicit
        default-constructed ``TenantConfig`` (rate-unlimited,
        priority 1).
    """

    max_wait_us: float = 0.0
    max_batch_requests: int = 64
    max_batch_docs: int = 4096
    max_queue_depth: int = 1024
    slo_us: float | None = None
    tenants: tuple[TenantConfig, ...] = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.max_wait_us < 0:
            raise ConfigError(
                f"max_wait_us must be >= 0, got {self.max_wait_us}"
            )
        if self.max_batch_requests < 1:
            raise ConfigError(
                f"max_batch_requests must be >= 1, "
                f"got {self.max_batch_requests}"
            )
        if self.max_batch_docs < 1:
            raise ConfigError(
                f"max_batch_docs must be >= 1, got {self.max_batch_docs}"
            )
        if self.max_queue_depth < 1:
            raise ConfigError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth}"
            )
        if self.slo_us is not None and self.slo_us <= 0:
            raise ConfigError(
                f"slo_us must be > 0 (or None), got {self.slo_us}"
            )
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise ConfigError(
                f"tenant names must be unique, got {names}"
            )

    # ------------------------------------------------------------------
    def tenant(self, name: str) -> TenantConfig | None:
        """The declared config for ``name``, or ``None`` if undeclared."""
        for tenant in self.tenants:
            if tenant.name == name:
                return tenant
        return None


@dataclass(frozen=True)
class ServiceConfig(ConfigCodec):
    """Everything a :class:`~repro.serving.ScoringService` is tuned by.

    Parameters
    ----------
    budget_us_per_doc:
        Per-document latency budget checked against the calibrated cost
        model at construction (the paper's design rule at deploy time).
    max_batch_size:
        Largest number of documents handed to the model in one call;
        ``None`` disables splitting.  Without ``parallel`` the
        :class:`~repro.runtime.batching.BatchEngine` cuts each request
        into micro-batches of this size.  With ``parallel`` the engine
        hands whole requests to the
        :class:`~repro.runtime.parallel.ShardedScorer`, which looks the
        request up in the cache once and scores only the missing rows,
        in calls of at most this size; fallback tiers are capped the
        same way.
    backend:
        Explicit runtime backend name (``None`` = registry
        auto-dispatch).
    backend_options:
        Extra keyword options forwarded to the backend factory by
        ``make_scorer`` — e.g. ``{"plan_dtype": "float32"}`` or
        ``{"quantize": "int8"}`` for the ``compiled-network`` backend.
        Per-call ``scorer_opts`` passed to the service constructor
        override same-named keys.
    allow_unpriced:
        Admit a scorer with a non-finite predicted cost under a budget.
    resilience:
        Optional :class:`ResilienceConfig`; presence routes the service
        through a fallback chain.
    parallel:
        Optional :class:`~repro.runtime.parallel.ParallelConfig`;
        presence shards requests over a worker pool (and, with
        ``cache_entries``, short-circuits repeated documents).
    frontend:
        Optional :class:`AsyncConfig` consumed by the asyncio front-end
        (:class:`~repro.serving.AsyncScoringService`): coalescing
        windows, queue depths, and per-tenant admission/QoS.  Ignored by
        the synchronous :class:`~repro.serving.ScoringService`.
    pipeline:
        Optional :class:`~repro.runtime.ranking.PipelineConfig` turning
        the service into a multi-stage budgeted ranking cascade.  When
        set, the service's ``model`` argument must be a mapping of the
        role names the stages reference to live models, and ``backend``
        / ``backend_options`` must stay unset (each stage names its
        own).  See ``docs/cascade.md``.
    lifecycle:
        Optional :class:`~repro.runtime.lifecycle.LifecycleConfig`
        tuning the versioned-model lifecycle: shadow-scored promotion
        gates for :meth:`~repro.serving.ScoringService.swap`, automatic
        rollback, and the replay buffer behind ``redistill()``.  The
        service always serves through a versioned registry; this config
        only changes the promotion policy.  See ``docs/lifecycle.md``.
    """

    budget_us_per_doc: float | None = None
    max_batch_size: int | None = 256
    backend: str | None = None
    backend_options: dict | None = None
    allow_unpriced: bool = False
    resilience: ResilienceConfig | None = None
    parallel: ParallelConfig | None = None
    frontend: AsyncConfig | None = None
    pipeline: PipelineConfig | None = None
    lifecycle: LifecycleConfig | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.pipeline is not None and (
            self.backend is not None or self.backend_options
        ):
            raise ConfigError(
                "pipeline and backend/backend_options are mutually "
                "exclusive: each pipeline stage names its own backend"
            )
        if self.backend_options is not None:
            try:
                items = dict(self.backend_options)
            except (TypeError, ValueError):
                raise ConfigError(
                    "backend_options must be a mapping of option name "
                    f"to value, got {type(self.backend_options).__name__}"
                ) from None
            if any(not isinstance(k, str) for k in items):
                raise ConfigError("backend_options keys must be strings")
            object.__setattr__(self, "backend_options", items or None)
