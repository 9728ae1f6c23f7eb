"""The unified scoring runtime.

One surface for "score documents with any model at a known price":

* :class:`Scorer` — the protocol every backend adapts to;
* :func:`make_scorer` — registry-dispatched adapter construction;
* :func:`price` — the single pricing function over models *and* shapes;
* :class:`BatchEngine` — micro-batched, budget-checked execution with
  latency percentiles;
* :func:`register_backend` — the plug-in point for new model families;
* :class:`ResilientScorer` / :class:`FallbackChain` — retries,
  deadlines, circuit breaking and graceful degradation over any
  backend (see ``docs/resilience.md``);
* :class:`FaultPolicy` / :class:`FaultyScorer` — deterministic fault
  injection so the resilience layer is testable without real outages;
* :class:`ShardedScorer` / :class:`ScoreCache` — row-sharded parallel
  execution over a persistent worker pool with an optional LRU score
  cache, bit-identical to unsharded scoring (see ``docs/parallel.md``);
* :class:`ServiceConfig` / :class:`ResilienceConfig` /
  :class:`ParallelConfig` / :class:`AsyncConfig` / :class:`TenantConfig`
  — the typed configuration surface a
  :class:`~repro.serving.ScoringService` (and its asyncio front-end,
  :class:`~repro.serving.AsyncScoringService`) is built from;
* :func:`compile_network` / :class:`InferencePlan` — ahead-of-time
  compiled forward passes: per-layer dense/sparse kernel selection by
  the calibrated predictors, frozen weights, fused epilogues and
  zero-allocation ping-pong buffers, served through the
  ``compiled-network`` backend (see ``docs/compiled.md``);
* :class:`RankingPipeline` / :class:`PipelineConfig` /
  :func:`build_pipeline` — declarative multi-stage budgeted ranking
  cascades served through the ``cascade`` backend (see
  ``docs/cascade.md``);
* :class:`ModelRegistry` / :class:`VersionedScorer` /
  :class:`LifecycleManager` / :class:`LifecycleConfig` — versioned,
  fingerprinted model entries with zero-downtime hot swap,
  shadow-scored promotion gates and automatic rollback (see
  ``docs/lifecycle.md``).

See ``docs/runtime.md`` for the design and extension guide.
"""

from repro.runtime.adapters import (
    CascadeScorer,
    CompiledNetworkScorer,
    GpuQuickScorerAdapter,
    QuickScorerAdapter,
)
from repro.runtime.base import BaseScorer, Scorer, is_scorer
from repro.runtime.batching import BatchEngine, BudgetExceededError, ServiceStats
from repro.runtime.compile import (
    BLOCK_KERNEL,
    CompileError,
    DENSE_KERNEL,
    INT8_KERNEL,
    InferencePlan,
    LayerPlan,
    SPARSE_KERNEL,
    compile_network,
    reference_scores,
)
from repro.runtime.config import (
    AsyncConfig,
    ResilienceConfig,
    ServiceConfig,
    TenantConfig,
)
from repro.runtime.context import (
    PricingContext,
    default_context,
    set_default_context,
    shared_predictor,
)
from repro.runtime.lifecycle import (
    GateReport,
    LifecycleConfig,
    LifecycleError,
    LifecycleManager,
    ModelRegistry,
    ModelVersion,
    ShadowStats,
    SwapEvent,
    VersionedScorer,
    ranking_agreement,
    score_drift_pct,
)
from repro.runtime.faults import (
    FaultPolicy,
    FaultSpec,
    FaultyScorer,
    InjectedFaultError,
    ManualClock,
    with_faults,
)
from repro.runtime.parallel import (
    ParallelConfig,
    ParallelError,
    PoolClosedError,
    ScoreCache,
    ShardPlan,
    ShardedScorer,
    plan_shards,
    scorer_fingerprint,
)
from repro.runtime.pricing import (
    ForestShape,
    NetworkShape,
    network_report,
    price,
    price_forest_shape,
    price_network_shape,
    student_shape,
)
from repro.runtime.ranking import (
    PipelineConfig,
    PipelineStageConfig,
    RankingPipeline,
    build_pipeline,
)
from repro.runtime.registry import (
    ScorerBackend,
    UnknownBackendError,
    backend_names,
    get_backend,
    make_scorer,
    register_backend,
    unregister_backend,
)
from repro.runtime.resilience import (
    AllTiersFailedError,
    BreakerState,
    CircuitBreaker,
    CircuitBreakerConfig,
    CircuitOpenError,
    DeadlineExceededError,
    FallbackChain,
    ResilienceError,
    ResilientScorer,
    RetryPolicy,
    ScorerFaultError,
    StubScorer,
    make_fallback_chain,
)

__all__ = [
    "AllTiersFailedError",
    "AsyncConfig",
    "BLOCK_KERNEL",
    "BaseScorer",
    "BatchEngine",
    "BreakerState",
    "BudgetExceededError",
    "CascadeScorer",
    "CircuitBreaker",
    "CircuitBreakerConfig",
    "CircuitOpenError",
    "CompileError",
    "CompiledNetworkScorer",
    "DENSE_KERNEL",
    "DeadlineExceededError",
    "FallbackChain",
    "FaultPolicy",
    "FaultSpec",
    "FaultyScorer",
    "ForestShape",
    "GateReport",
    "GpuQuickScorerAdapter",
    "INT8_KERNEL",
    "InferencePlan",
    "InjectedFaultError",
    "LayerPlan",
    "LifecycleConfig",
    "LifecycleError",
    "LifecycleManager",
    "ManualClock",
    "ModelRegistry",
    "ModelVersion",
    "NetworkShape",
    "ParallelConfig",
    "ParallelError",
    "PipelineConfig",
    "PipelineStageConfig",
    "PoolClosedError",
    "PricingContext",
    "QuickScorerAdapter",
    "RankingPipeline",
    "ResilienceConfig",
    "ResilienceError",
    "ResilientScorer",
    "RetryPolicy",
    "SPARSE_KERNEL",
    "ScoreCache",
    "Scorer",
    "ScorerBackend",
    "ScorerFaultError",
    "ServiceConfig",
    "ServiceStats",
    "ShadowStats",
    "ShardPlan",
    "ShardedScorer",
    "StubScorer",
    "SwapEvent",
    "TenantConfig",
    "UnknownBackendError",
    "VersionedScorer",
    "backend_names",
    "build_pipeline",
    "compile_network",
    "default_context",
    "get_backend",
    "is_scorer",
    "make_fallback_chain",
    "make_scorer",
    "network_report",
    "plan_shards",
    "price",
    "price_forest_shape",
    "price_network_shape",
    "ranking_agreement",
    "reference_scores",
    "register_backend",
    "score_drift_pct",
    "scorer_fingerprint",
    "set_default_context",
    "shared_predictor",
    "student_shape",
    "unregister_backend",
    "with_faults",
]
