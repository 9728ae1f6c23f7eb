"""Serving: the scoring endpoint and its async multi-tenant front-end.

Two surfaces over one runtime:

* :mod:`repro.serving.service` — the synchronous
  :class:`ScoringService`: one model behind a latency budget, with
  micro-batching, sharded parallel scoring, and the resilience ladder
  (see that module for the full tour).  ``from repro.serving import
  ScoringService`` is unchanged from when this package was a module.
* :mod:`repro.serving.frontend` — :class:`AsyncScoringService`, the
  asyncio front-end that coalesces many concurrent callers' candidate
  lists into shared cross-request micro-batches (bit-identically) with
  per-tenant admission control — token buckets, priority classes and
  load shedding (:mod:`repro.serving.tenancy`) — and enqueue→response
  SLO accounting into the ``serving.*`` series.
* :mod:`repro.serving.loadgen` — the closed-loop load harness:
  :class:`LoadSpec` scenarios (seeded Zipfian popularity, bursty open /
  think-time closed arrivals, weighted tenant mixes) replayed by
  :func:`run_load` into a :class:`LoadReport`.

``tests/test_serving_async.py`` holds coalescing to bit-identity on
every probe plan, and ``tests/gates/test_serving_gates.py`` gates the
provable shed bound and SLO-miss accounting under load.  See
``docs/serving_async.md``.
"""

from repro.runtime.config import AsyncConfig, TenantConfig
from repro.runtime.lifecycle import (
    LifecycleConfig,
    LifecycleManager,
    ModelRegistry,
    ModelVersion,
)
from repro.serving.frontend import AsyncScoringService
from repro.serving.loadgen import (
    LoadReport,
    LoadSpec,
    build_schedule,
    make_queries,
    run_load,
    run_load_async,
)
from repro.serving.service import (
    BudgetExceededError,
    ScoringService,
    ServiceConfig,
    ServiceStats,
)
from repro.serving.tenancy import (
    AdmissionController,
    RequestShedError,
    TenantState,
    TokenBucket,
)

__all__ = [
    "AdmissionController",
    "AsyncConfig",
    "AsyncScoringService",
    "BudgetExceededError",
    "LifecycleConfig",
    "LifecycleManager",
    "LoadReport",
    "LoadSpec",
    "ModelRegistry",
    "ModelVersion",
    "RequestShedError",
    "ScoringService",
    "ServiceConfig",
    "ServiceStats",
    "TenantConfig",
    "TenantState",
    "TokenBucket",
    "build_schedule",
    "make_queries",
    "run_load",
    "run_load_async",
]
