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
  from, with ``to_dict()``/``from_dict()`` for JSON-able round-trips.

``to_dict`` is declarative-only: ``fallback_models`` hold *live model
objects* and cannot be serialized — a config carrying them raises
:class:`~repro.exceptions.ConfigError` on ``to_dict()`` rather than
silently dropping tiers.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any

from repro.exceptions import ConfigError
from repro.runtime.lifecycle import LifecycleConfig
from repro.runtime.parallel import ParallelConfig
from repro.runtime.ranking import PipelineConfig
from repro.runtime.resilience import CircuitBreakerConfig, RetryPolicy

__all__ = ["AsyncConfig", "ResilienceConfig", "ServiceConfig", "TenantConfig"]


def _rebuild(cls, data: Any, label: str):
    """Reconstruct a frozen dataclass from its ``asdict`` form."""
    if data is None:
        return None
    if isinstance(data, cls):
        return data
    if not isinstance(data, dict):
        raise ConfigError(
            f"{label} must be a dict or {cls.__name__}, "
            f"got {type(data).__name__}"
        )
    try:
        return cls(**data)
    except TypeError as exc:
        raise ConfigError(f"invalid {label}: {exc}") from None


@dataclass(frozen=True)
class ResilienceConfig:
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

    fallback_models: tuple = ()
    retry: RetryPolicy | None = None
    breaker: CircuitBreakerConfig | None = None
    deadline_us: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.fallback_models, tuple):
            object.__setattr__(
                self, "fallback_models", tuple(self.fallback_models)
            )
        if self.deadline_us is not None and self.deadline_us <= 0:
            raise ConfigError(
                f"deadline_us must be > 0, got {self.deadline_us}"
            )

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready representation of the declarative fields.

        Raises :class:`ConfigError` when ``fallback_models`` is
        non-empty — live models have no dict form, and dropping them
        silently would serialize a *different* service.
        """
        if self.fallback_models:
            raise ConfigError(
                "fallback_models hold live model objects and cannot be "
                "serialized; attach them when constructing the service"
            )
        return {
            "retry": asdict(self.retry) if self.retry else None,
            "breaker": asdict(self.breaker) if self.breaker else None,
            "deadline_us": self.deadline_us,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ResilienceConfig":
        """Rebuild a config from :meth:`to_dict` output."""
        unknown = set(data) - {"retry", "breaker", "deadline_us"}
        if unknown:
            raise ConfigError(
                f"unknown ResilienceConfig keys: {', '.join(sorted(unknown))}"
            )
        return cls(
            retry=_rebuild(RetryPolicy, data.get("retry"), "retry"),
            breaker=_rebuild(
                CircuitBreakerConfig, data.get("breaker"), "breaker"
            ),
            deadline_us=data.get("deadline_us"),
        )


@dataclass(frozen=True)
class TenantConfig:
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

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready representation (round-trips via :meth:`from_dict`)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "TenantConfig":
        """Rebuild a config from :meth:`to_dict` output."""
        unknown = set(data) - {
            "name",
            "rate_per_s",
            "burst",
            "priority",
            "max_queue_depth",
            "deadline_us",
        }
        if unknown:
            raise ConfigError(
                f"unknown TenantConfig keys: {', '.join(sorted(unknown))}"
            )
        defaults = cls()
        return cls(
            name=data.get("name", defaults.name),
            rate_per_s=data.get("rate_per_s"),
            burst=data.get("burst", defaults.burst),
            priority=data.get("priority", defaults.priority),
            max_queue_depth=data.get("max_queue_depth"),
            deadline_us=data.get("deadline_us"),
        )


@dataclass(frozen=True)
class AsyncConfig:
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
    tenants: tuple = ()

    def __post_init__(self) -> None:
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
        tenants = tuple(
            t if isinstance(t, TenantConfig) else TenantConfig(**t)
            for t in self.tenants
        )
        names = [t.name for t in tenants]
        if len(set(names)) != len(names):
            raise ConfigError(
                f"tenant names must be unique, got {names}"
            )
        object.__setattr__(self, "tenants", tenants)

    # ------------------------------------------------------------------
    def tenant(self, name: str) -> TenantConfig | None:
        """The declared config for ``name``, or ``None`` if undeclared."""
        for tenant in self.tenants:
            if tenant.name == name:
                return tenant
        return None

    def to_dict(self) -> dict:
        """JSON-ready representation (round-trips via :meth:`from_dict`)."""
        return {
            "max_wait_us": self.max_wait_us,
            "max_batch_requests": self.max_batch_requests,
            "max_batch_docs": self.max_batch_docs,
            "max_queue_depth": self.max_queue_depth,
            "slo_us": self.slo_us,
            "tenants": [t.to_dict() for t in self.tenants],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AsyncConfig":
        """Rebuild a config from :meth:`to_dict` output."""
        known = {
            "max_wait_us",
            "max_batch_requests",
            "max_batch_docs",
            "max_queue_depth",
            "slo_us",
            "tenants",
        }
        unknown = set(data) - known
        if unknown:
            raise ConfigError(
                f"unknown AsyncConfig keys: {', '.join(sorted(unknown))}"
            )
        defaults = cls()
        tenants = tuple(
            _rebuild(TenantConfig, t, "tenant") if isinstance(t, dict) else t
            for t in data.get("tenants", ())
        )
        return cls(
            max_wait_us=data.get("max_wait_us", defaults.max_wait_us),
            max_batch_requests=data.get(
                "max_batch_requests", defaults.max_batch_requests
            ),
            max_batch_docs=data.get(
                "max_batch_docs", defaults.max_batch_docs
            ),
            max_queue_depth=data.get(
                "max_queue_depth", defaults.max_queue_depth
            ),
            slo_us=data.get("slo_us"),
            tenants=tenants,
        )


@dataclass(frozen=True)
class ServiceConfig:
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
        if self.lifecycle is not None and not isinstance(
            self.lifecycle, LifecycleConfig
        ):
            if isinstance(self.lifecycle, dict):
                object.__setattr__(
                    self,
                    "lifecycle",
                    LifecycleConfig.from_dict(self.lifecycle),
                )
            else:
                raise ConfigError(
                    "lifecycle must be a LifecycleConfig or dict, "
                    f"got {type(self.lifecycle).__name__}"
                )
        if self.pipeline is not None:
            if not isinstance(self.pipeline, PipelineConfig):
                if isinstance(self.pipeline, dict):
                    object.__setattr__(
                        self,
                        "pipeline",
                        PipelineConfig.from_dict(self.pipeline),
                    )
                else:
                    raise ConfigError(
                        "pipeline must be a PipelineConfig or dict, "
                        f"got {type(self.pipeline).__name__}"
                    )
            if self.backend is not None or self.backend_options:
                raise ConfigError(
                    "pipeline and backend/backend_options are mutually "
                    "exclusive: each pipeline stage names its own backend"
                )
        if self.backend_options is not None:
            if not isinstance(self.backend_options, dict):
                try:
                    items = dict(self.backend_options)
                except (TypeError, ValueError):
                    raise ConfigError(
                        "backend_options must be a mapping of option name "
                        f"to value, got {type(self.backend_options).__name__}"
                    ) from None
            else:
                items = dict(self.backend_options)
            if any(not isinstance(k, str) for k in items):
                raise ConfigError("backend_options keys must be strings")
            object.__setattr__(self, "backend_options", items)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready representation (round-trips via :meth:`from_dict`)."""
        return {
            "budget_us_per_doc": self.budget_us_per_doc,
            "max_batch_size": self.max_batch_size,
            "backend": self.backend,
            "backend_options": (
                dict(self.backend_options) if self.backend_options else None
            ),
            "allow_unpriced": self.allow_unpriced,
            "resilience": (
                self.resilience.to_dict() if self.resilience else None
            ),
            "parallel": self.parallel.to_dict() if self.parallel else None,
            "frontend": self.frontend.to_dict() if self.frontend else None,
            "pipeline": self.pipeline.to_dict() if self.pipeline else None,
            "lifecycle": (
                self.lifecycle.to_dict() if self.lifecycle else None
            ),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ServiceConfig":
        """Rebuild a config from :meth:`to_dict` output."""
        known = {
            "budget_us_per_doc",
            "max_batch_size",
            "backend",
            "backend_options",
            "allow_unpriced",
            "resilience",
            "parallel",
            "frontend",
            "pipeline",
            "lifecycle",
        }
        unknown = set(data) - known
        if unknown:
            raise ConfigError(
                f"unknown ServiceConfig keys: {', '.join(sorted(unknown))}"
            )
        resilience = data.get("resilience")
        if isinstance(resilience, dict):
            resilience = ResilienceConfig.from_dict(resilience)
        parallel = data.get("parallel")
        if isinstance(parallel, dict):
            parallel = ParallelConfig.from_dict(parallel)
        frontend = data.get("frontend")
        if isinstance(frontend, dict):
            frontend = AsyncConfig.from_dict(frontend)
        pipeline = data.get("pipeline")
        if isinstance(pipeline, dict):
            pipeline = PipelineConfig.from_dict(pipeline)
        lifecycle = data.get("lifecycle")
        if isinstance(lifecycle, dict):
            lifecycle = LifecycleConfig.from_dict(lifecycle)
        defaults = cls()
        return cls(
            budget_us_per_doc=data.get("budget_us_per_doc"),
            max_batch_size=data.get(
                "max_batch_size", defaults.max_batch_size
            ),
            backend=data.get("backend"),
            backend_options=data.get("backend_options"),
            allow_unpriced=data.get(
                "allow_unpriced", defaults.allow_unpriced
            ),
            resilience=resilience,
            parallel=parallel,
            frontend=frontend,
            pipeline=pipeline,
            lifecycle=lifecycle,
        )
