"""A miniature document-scoring service.

Wraps any model the scoring runtime knows (forests via QuickScorer,
dense or pruned students through their ahead-of-time compiled plans
via the ``compiled-network`` backend, early-exit cascades — see
:mod:`repro.runtime`) behind one endpoint with the operational
features a query processor needs:

* per-request latency *budget* checking against the calibrated cost
  models (requests are priced before execution, the paper's predictors
  doing in deployment what they do at design time);
* micro-batching of documents per query through the shared
  :class:`~repro.runtime.batching.BatchEngine`;
* running latency/volume statistics with p50/p95/p99 percentiles;
* **parallel scoring**: a :class:`~repro.runtime.parallel.ParallelConfig`
  shards each request across a persistent worker pool and (optionally)
  short-circuits repeated documents through a
  :class:`~repro.runtime.parallel.ScoreCache` — bit-identically to
  single-threaded scoring.  The sharder then takes over micro-batching:
  the engine hands it whole requests, and it splits only the rows the
  cache misses into ``max_batch_size`` calls;
* **graceful degradation**: a :class:`~repro.runtime.config.
  ResilienceConfig` serves through a
  :class:`~repro.runtime.resilience.FallbackChain` — retries with
  backoff, deadlines, and per-tier circuit breakers that
  trip on failure rate or predicted-vs-measured latency drift.  The
  resilience layer wraps the sharded scorer unchanged;
* **versioned models with zero-downtime hot swap**: every service
  serves through a :class:`~repro.runtime.lifecycle.ModelRegistry`
  (a plain model is auto-wrapped as the single version ``v1``).
  :meth:`ScoringService.swap` registers a candidate and promotes it
  behind a shadow-scoring gate — or immediately with ``force=True`` —
  with in-flight requests finishing on the incumbent, fingerprint-keyed
  cache invalidation, and automatic rollback when the gate trips.  See
  ``docs/lifecycle.md``.

Configuration is one typed object, :class:`~repro.runtime.config.
ServiceConfig`::

    service = ScoringService(model, ServiceConfig(
        budget_us_per_doc=25.0,
        parallel=ParallelConfig(workers=4, cache_entries=8192),
        resilience=ResilienceConfig(fallback_models=[cheap, StubScorer()]),
    ))

This is the integration surface a downstream search stack would adopt;
``examples/scoring_service.py`` shows the multi-stage variant,
``examples/resilient_service.py`` the degradation ladder and
``examples/parallel_scoring.py`` the sharded engine.
"""

from __future__ import annotations

import time
from collections.abc import Mapping

import numpy as np

from repro import obs
from repro.runtime import (
    BatchEngine,
    BudgetExceededError,
    FallbackChain,
    LifecycleConfig,
    LifecycleManager,
    ModelRegistry,
    PricingContext,
    RankingPipeline,
    ResilientScorer,
    ScoreCache,
    ServiceConfig,
    ServiceStats,
    ShardedScorer,
    VersionedScorer,
    build_pipeline,
    is_scorer,
    make_scorer,
)
from repro.runtime.batching import ChunkedScorer

__all__ = [
    "BudgetExceededError",
    "ScoringService",
    "ServiceConfig",
    "ServiceStats",
]

#: Sentinel distinguishing "not passed" from an explicit ``None``.
_UNSET = object()


class ScoringService:
    """A single-model scoring endpoint with a latency budget.

    Parameters
    ----------
    model:
        Any model with a registered runtime backend — a
        :class:`~repro.forest.ensemble.TreeEnsemble` (scored through
        QuickScorer), a :class:`~repro.distill.student.DistilledStudent`
        (dense or first-layer-pruned, served through its compiled plan), an
        :class:`~repro.design.cascade.EarlyExitCascade` — or an
        already-built :class:`~repro.runtime.base.Scorer`.  When
        ``config.pipeline`` is set, a mapping of stage role names to
        models instead (resolved through
        :func:`~repro.runtime.ranking.build_pipeline`), or a pre-built
        :class:`~repro.runtime.ranking.RankingPipeline`.
    config:
        A :class:`~repro.runtime.config.ServiceConfig` bundling budget,
        batching, backend choice, parallelism and resilience.  Mutually
        exclusive with the per-field keyword shorthands below.
    budget_us_per_doc, max_batch_size, backend:
        Convenience shorthands for the matching :class:`ServiceConfig`
        fields (for one-liner services without a config object).
    predictor:
        Shared :class:`~repro.timing.network_predictor.
        NetworkTimePredictor` for pricing networks (defaults to the
        process-wide one).
    cost_model:
        QuickScorer cost model override for pricing forests.
    context:
        Pre-built :class:`~repro.runtime.context.PricingContext`
        (overrides ``predictor``/``cost_model``).
    clock, sleep:
        Injectable time pair forwarded to the resilience layer (see
        :class:`~repro.runtime.faults.ManualClock`).
    **scorer_opts:
        Extra options forwarded to :func:`repro.runtime.make_scorer`
        (e.g. ``plan_dtype="float32"`` or ``quantize="int8"`` for a
        student's :class:`~repro.runtime.compile.InferencePlan`).
        Merged over ``config.backend_options`` (per-call keys win).
    """

    def __init__(
        self,
        model,
        config: ServiceConfig | None = None,
        *,
        budget_us_per_doc: float | None = None,
        predictor=None,
        cost_model=None,
        max_batch_size=_UNSET,
        backend: str | None = None,
        context: PricingContext | None = None,
        clock=time.monotonic,
        sleep=time.sleep,
        **scorer_opts,
    ) -> None:
        if config is not None:
            conflicting = [
                name
                for name, given in (
                    ("budget_us_per_doc", budget_us_per_doc is not None),
                    ("max_batch_size", max_batch_size is not _UNSET),
                    ("backend", backend is not None),
                )
                if given
            ]
            if conflicting:
                raise ValueError(
                    "pass service settings via config=ServiceConfig(...) "
                    "or keywords, not both (got config plus "
                    + ", ".join(conflicting)
                    + ")"
                )
        else:
            config = ServiceConfig(
                budget_us_per_doc=budget_us_per_doc,
                max_batch_size=(
                    256 if max_batch_size is _UNSET else max_batch_size
                ),
                backend=backend,
            )
        self.config = config

        if context is None:
            context = PricingContext(predictor=predictor, qs_cost=cost_model)
        self.pipeline: RankingPipeline | None = None
        if config.pipeline is not None:
            if isinstance(model, ModelRegistry):
                raise ValueError(
                    "a ServiceConfig with pipeline= cannot take a "
                    "ModelRegistry: each pipeline stage names its own model"
                )
            if isinstance(model, RankingPipeline):
                self.pipeline = model
            else:
                if not isinstance(model, Mapping):
                    raise ValueError(
                        "a ServiceConfig with pipeline= needs model to be "
                        "a mapping of stage role names to models, got "
                        f"{type(model).__name__}"
                    )
                self.pipeline = build_pipeline(
                    model, config.pipeline, context=context
                )
            model = self.pipeline
        # Every service serves through a versioned registry; a plain
        # model (or pipeline) is auto-wrapped as single version "v1".
        opts = {**(config.backend_options or {}), **scorer_opts}
        if isinstance(model, ModelRegistry):
            if len(model) == 0:
                raise ValueError(
                    "cannot serve an empty ModelRegistry; register a "
                    "model first"
                )
            self.registry = model
        else:
            self.registry = ModelRegistry(
                context=context,
                backend=config.backend,
                backend_options=opts,
            )
            self.registry.register(model, version="v1", source="seed")
        self.cache: ScoreCache | None = None
        if config.parallel is not None and config.parallel.cache_entries:
            self.cache = ScoreCache(config.parallel.cache_entries)
        # Under ``parallel`` the sharder is the one place a request is
        # split: it keys and looks up the whole (coalesced) request once,
        # then cuts only the cache misses into ``max_batch_size`` calls.
        sharding = config.parallel is not None
        self.versioned = VersionedScorer(
            self.registry,
            parallel=config.parallel,
            cache=self.cache,
            max_batch_size=config.max_batch_size,
        )
        self.scorer = self.versioned
        engine_scorer = self.scorer
        self.chain: FallbackChain | None = None
        resilience = config.resilience
        if resilience is not None:
            tiers = [engine_scorer]
            for fallback in resilience.fallback_models:
                tier = (
                    fallback
                    if is_scorer(fallback)
                    else make_scorer(fallback, context=context)
                )
                if (
                    sharding
                    and config.max_batch_size is not None
                    and not isinstance(tier, ResilientScorer)
                ):
                    # Only the primary's shard stack splits, so cap the
                    # stand-ins' calls here (inside their deadline).
                    tier = ChunkedScorer(tier, config.max_batch_size)
                tiers.append(tier)
            self.chain = FallbackChain(
                tiers,
                retry=resilience.retry,
                breaker=resilience.breaker,
                deadline_us=resilience.deadline_us,
                clock=clock,
                sleep=sleep,
            )
            engine_scorer = self.chain
        self.engine = BatchEngine(
            engine_scorer,
            max_batch_size=None if sharding else config.max_batch_size,
            budget_us_per_doc=config.budget_us_per_doc,
            allow_unpriced=config.allow_unpriced,
        )
        self.stats = self.engine.stats
        self.budget_us_per_doc = config.budget_us_per_doc
        self.lifecycle = LifecycleManager(
            self.registry,
            config.lifecycle or LifecycleConfig(),
            versioned=self.versioned,
            cache=self.cache,
            engine=self.engine,
            budget_us_per_doc=config.budget_us_per_doc,
            allow_unpriced=config.allow_unpriced,
        )

    # ------------------------------------------------------------------
    @property
    def model(self):
        """The active version's model (the ``v1`` seed until a swap)."""
        return self.registry.active.model

    @property
    def sharded(self) -> ShardedScorer | None:
        """The active version's shard stack (``None`` without
        :class:`~repro.runtime.parallel.ParallelConfig`)."""
        if self.config.parallel is None:
            return None
        return self.versioned.active_stack()

    # ------------------------------------------------------------------
    def score(self, features) -> np.ndarray:
        """Score one request's documents, updating the running stats."""
        with obs.span("service.request", backend=self.scorer.backend):
            return self.engine.score(features)

    # ------------------------------------------------------------------
    def swap(
        self,
        candidate,
        *,
        version: str | None = None,
        force: bool = False,
        source: str = "candidate",
        **backend_options,
    ) -> dict[str, object]:
        """Register ``candidate`` and promote it zero-downtime.

        With the default :class:`~repro.runtime.lifecycle.
        LifecycleConfig` the swap opens a *shadow phase*: a fraction of
        live traffic is mirrored to the candidate off the hot path and
        the promotion gate (score drift + NDCG ranking agreement vs the
        incumbent) decides.  ``force=True`` promotes immediately.
        Either way the activation itself is one atomic pointer flip:
        in-flight requests finish on the incumbent, new arrivals score
        on the candidate, and the incumbent's
        :class:`~repro.runtime.parallel.ScoreCache` rows are
        invalidated by fingerprint.  See ``docs/lifecycle.md``.
        """
        return self.lifecycle.swap(
            candidate,
            version=version,
            force=force,
            source=source,
            **backend_options,
        )

    def rollback(self):
        """Re-activate the previously active model version."""
        return self.lifecycle.rollback()

    def redistill(self, **kwargs) -> dict[str, object]:
        """Fine-tune the active student on the replay buffer and swap
        the result in (see :meth:`~repro.runtime.lifecycle.
        LifecycleManager.redistill`)."""
        return self.lifecycle.redistill(**kwargs)

    def lifecycle_summary(self) -> dict[str, object]:
        """Registry/shadow/swap snapshot of the versioned lifecycle."""
        return self.lifecycle.summary()

    def close(self) -> None:
        """Release worker pools and the shadow executor."""
        self.lifecycle.close()
        self.versioned.close()
        self.registry.close()

    def drift_summary(self) -> dict[str, float]:
        """Predicted vs measured µs/doc for this service's traffic.

        The deployment-time audit of the paper's cost predictors: the
        calibrated price the model was admitted under, the measured
        running unit cost, and their signed percentage gap.
        """
        return self.stats.drift_summary()

    def resilience_summary(self) -> list[dict[str, object]] | None:
        """Per-tier serving/breaker snapshot, or ``None`` when the
        service was built without a fallback chain."""
        return self.chain.tier_summary() if self.chain else None

    def parallel_summary(self) -> dict[str, object] | None:
        """Shard/pool/cache snapshot, or ``None`` when the service was
        built without a :class:`ParallelConfig`."""
        return self.sharded.summary() if self.sharded else None

    def pipeline_summary(self) -> list[dict[str, object]] | None:
        """Per-stage name/cost/keep snapshot, or ``None`` when the
        service was built without a
        :class:`~repro.runtime.ranking.PipelineConfig`."""
        if self.pipeline is None:
            return None
        return [
            {
                "stage": stage.name,
                "cost_us_per_doc": stage.cost_us_per_doc,
                "keep_fraction": stage.keep_fraction,
            }
            for stage in self.pipeline.stages
        ]

    @property
    def fallback_ratio(self) -> float:
        """Fraction of requests served by a non-primary tier (0 when
        the service has no fallback chain)."""
        return self.chain.fallback_ratio if self.chain else 0.0

    def rank(self, features) -> np.ndarray:
        """Document indices in descending score order."""
        return self.engine.rank(features)

    def top_k(self, features, k: int) -> np.ndarray:
        """Indices of the ``k`` highest-scored documents.

        Partial selection (``argpartition`` + sort of the ``k`` winners)
        rather than a full per-request argsort.
        """
        return self.engine.top_k(features, k)
