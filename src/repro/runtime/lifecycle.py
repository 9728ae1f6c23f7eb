"""Versioned model lifecycle: registry, hot swap, shadow-scored promotion.

The serving substrate froze its model at construction time; this module
makes the model a *versioned, swappable* dependency without giving up
the substrate's core guarantee (bit-identical, chunk-invariant
scoring):

* :class:`ModelRegistry` — an append-mostly store of fingerprinted,
  immutable :class:`ModelVersion` entries (model + adapted scorer +
  calibrated price), exactly one of which is *active*;
* :class:`VersionedScorer` — a :class:`~repro.runtime.base.Scorer` that
  resolves the active version **once per engine call** via the request
  pin (:func:`~repro.runtime.base.pinned_scope`): in-flight requests
  finish on the incumbent, new arrivals score on the candidate, and no
  single request ever mixes versions across its micro-batches;
* :class:`LifecycleManager` — owns promotion policy.  ``swap(candidate)``
  registers the candidate and either promotes it atomically (``force``)
  or opens a *shadow-scoring* phase that mirrors a configurable
  fraction of live traffic to the candidate off the hot path, compares
  per-request score drift and NDCG@k ranking agreement against the
  incumbent, and promotes only if the gate passes — otherwise the
  candidate is rolled back automatically.  Promotion invalidates
  :class:`~repro.runtime.parallel.ScoreCache` entries by the outgoing
  version's fingerprint and refreshes the engine's advertised price.

Policy lives in :class:`LifecycleConfig`, JSON round-trippable and
nested in :class:`~repro.runtime.config.ServiceConfig` like
``parallel``/``resilience``/``frontend``/``pipeline``.

Import discipline: this module must not import
:mod:`repro.runtime.config` (config imports it for the nested
dataclass); the backend registry (``make_scorer``) and the replay
buffer are imported lazily for the same reason.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from threading import RLock, local
from typing import Any, Mapping, Sequence

import numpy as np

from repro.exceptions import ConfigError, ReproError
from repro.metrics.ranking import ndcg
from repro.obs.lifecycle import (
    record_replay,
    record_rollback,
    record_served_version,
    record_shadow_comparison,
    record_shadow_dropped,
    record_shadow_error,
    record_swap,
    record_version_documents,
)
from repro.obs.requests import annotate_requests
from repro.runtime.base import (
    current_pin,
    hidden_request_rows,
    is_scorer,
    request_rows,
)
from repro.runtime.batching import BudgetExceededError, admit_to_budget
from repro.runtime.parallel import (
    ParallelConfig,
    ScoreCache,
    ShardedScorer,
    scorer_fingerprint,
)
from repro.utils.codec import ConfigCodec


class LifecycleError(ReproError):
    """Raised on invalid registry/lifecycle operations."""


# ----------------------------------------------------------------------
# Config
# ----------------------------------------------------------------------
_SHADOW_MODES = ("sync", "background")


@dataclass(frozen=True)
class LifecycleConfig(ConfigCodec):
    """Promotion policy for candidate model versions.

    shadow_fraction:
        Fraction of live requests mirrored to the candidate during a
        shadow phase (0 disables shadowing: every swap is immediate).
    shadow_min_requests:
        Comparisons to accumulate before the promotion gate decides.
    max_drift_pct:
        Gate: mean absolute candidate-vs-incumbent score drift, as a
        percentage of the incumbent's score scale, must not exceed this.
    min_agreement:
        Gate: mean NDCG@``agreement_k`` of the candidate's scores
        against the incumbent's ranking must reach this.
    agreement_k:
        Cutoff for the ranking-agreement NDCG.
    shadow_mode:
        ``"background"`` scores mirrors on a single worker thread off
        the hot path (bounded by ``shadow_queue``, overflow mirrors are
        dropped and counted); ``"sync"`` scores them inline — fully
        deterministic, for tests and probes.
    shadow_queue:
        Max in-flight background mirrors before new ones are dropped.
    replay_capacity:
        Distinct rows retained by the Zipf-aware replay reservoir that
        feeds :meth:`LifecycleManager.redistill` (0 disables it).
    replay_seed:
        Seed for the replay reservoir's RNG.
    auto_rollback:
        Reject (roll back) a candidate automatically when the gate
        trips; when false the shadow phase keeps accumulating until
        an explicit :meth:`LifecycleManager.decide`.
    """

    shadow_fraction: float = 0.25
    shadow_min_requests: int = 16
    max_drift_pct: float = 10.0
    min_agreement: float = 0.95
    agreement_k: int = 10
    shadow_mode: str = "background"
    shadow_queue: int = 64
    replay_capacity: int = 0
    replay_seed: int = 0
    auto_rollback: bool = True

    def __post_init__(self) -> None:
        super().__post_init__()
        f = self.shadow_fraction
        if not isinstance(f, (int, float)) or not 0.0 <= float(f) <= 1.0:
            raise ConfigError(
                f"shadow_fraction must be in [0, 1], got {f!r}"
            )
        if self.shadow_min_requests < 1:
            raise ConfigError(
                f"shadow_min_requests must be >= 1, "
                f"got {self.shadow_min_requests}"
            )
        if not math.isfinite(self.max_drift_pct) or self.max_drift_pct <= 0:
            raise ConfigError(
                f"max_drift_pct must be finite and > 0, "
                f"got {self.max_drift_pct}"
            )
        if not 0.0 <= float(self.min_agreement) <= 1.0:
            raise ConfigError(
                f"min_agreement must be in [0, 1], got {self.min_agreement}"
            )
        if self.agreement_k < 1:
            raise ConfigError(
                f"agreement_k must be >= 1, got {self.agreement_k}"
            )
        if self.shadow_mode not in _SHADOW_MODES:
            raise ConfigError(
                f"shadow_mode must be one of {_SHADOW_MODES}, "
                f"got {self.shadow_mode!r}"
            )
        if self.shadow_queue < 1:
            raise ConfigError(
                f"shadow_queue must be >= 1, got {self.shadow_queue}"
            )
        if self.replay_capacity < 0:
            raise ConfigError(
                f"replay_capacity must be >= 0, got {self.replay_capacity}"
            )


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ModelVersion:
    """One immutable registered model version."""

    version_id: str
    model: Any = field(repr=False)
    scorer: Any = field(repr=False)
    fingerprint: str
    price: float
    sequence: int
    source: str = "registered"

    def summary(self) -> dict[str, Any]:
        """JSON-safe description of this version."""
        return {
            "version": self.version_id,
            "fingerprint": self.fingerprint,
            "backend": getattr(self.scorer, "backend", "?"),
            "price_us_per_doc": (
                self.price if math.isfinite(self.price) else None
            ),
            "sequence": self.sequence,
            "source": self.source,
            "description": self.scorer.describe(),
        }


class ModelRegistry:
    """Versioned store of fingerprinted, immutable model entries.

    Exactly one entry is *active* at a time; :meth:`activate` is an
    atomic pointer flip under the registry lock, which is what makes
    the hot swap zero-downtime — readers
    (:class:`VersionedScorer`) snapshot :attr:`active` once per pinned
    request and never observe a half-switched state.

    The registry adapts plain models through the backend registry
    (:func:`~repro.runtime.registry.make_scorer`) using the default
    ``backend``/``backend_options``/``context`` it was built with;
    objects already satisfying the Scorer protocol pass through.
    """

    def __init__(
        self,
        model: Any | None = None,
        *,
        context: Any | None = None,
        backend: str | None = None,
        backend_options: Mapping[str, Any] | None = None,
        version: str | None = None,
        source: str = "seed",
    ) -> None:
        self._lock = RLock()
        self._entries: dict[str, ModelVersion] = {}
        self._order: list[str] = []
        self._active_id: str | None = None
        self._previous_id: str | None = None
        self._seq = 0
        self.history: list[dict[str, Any]] = []
        self.context = context
        self.default_backend = backend
        self.default_options = dict(backend_options or {})
        if model is not None:
            self.register(model, version=version, source=source)

    # ------------------------------------------------------------------
    def register(
        self,
        model: Any,
        *,
        version: str | None = None,
        backend: str | None = None,
        source: str = "registered",
        activate: bool | None = None,
        **backend_options: Any,
    ) -> ModelVersion:
        """Adapt, fingerprint and store ``model`` as a new version.

        The first registered version auto-activates; later ones stay
        inactive unless ``activate=True`` (the lifecycle manager's
        promotion path is the intended activator).
        """
        if is_scorer(model):
            scorer = model
        else:
            from repro.runtime.registry import make_scorer

            opts = {**self.default_options, **backend_options}
            scorer = make_scorer(
                model,
                backend=backend or self.default_backend,
                context=self.context,
                **opts,
            )
        try:
            price = float(scorer.predicted_us_per_doc)
        except Exception:
            price = float("nan")
        fingerprint = scorer_fingerprint(scorer)
        with self._lock:
            incumbent = (
                self._entries[self._active_id] if self._active_id else None
            )
            if incumbent is not None:
                if any(
                    bool(getattr(scorer, attr, default))
                    != bool(getattr(incumbent.scorer, attr, default))
                    for attr, default in (
                        ("batchable", True),
                        ("coalescable", False),
                    )
                ):
                    raise LifecycleError(
                        "candidate batchability differs from the incumbent; "
                        "a hot swap cannot change the engine's chunking "
                        "contract"
                    )
                cand_dim = scorer.input_dim
                inc_dim = incumbent.scorer.input_dim
                if (
                    cand_dim is not None
                    and inc_dim is not None
                    and cand_dim != inc_dim
                ):
                    raise LifecycleError(
                        f"candidate expects {cand_dim} features but the "
                        f"incumbent serves {inc_dim}"
                    )
            self._seq += 1
            version_id = version or f"v{self._seq}"
            if version_id in self._entries:
                raise LifecycleError(
                    f"version {version_id!r} is already registered"
                )
            entry = ModelVersion(
                version_id=version_id,
                model=model,
                scorer=scorer,
                fingerprint=fingerprint,
                price=price,
                sequence=self._seq,
                source=source,
            )
            self._entries[version_id] = entry
            self._order.append(version_id)
            self.history.append(
                {
                    "event": "registered",
                    "version": version_id,
                    "source": source,
                    "at_s": time.time(),
                }
            )
            if activate or (activate is None and self._active_id is None):
                self.activate(version_id)
            return entry

    def discard(self, version_id: str) -> None:
        """Drop a non-active version (a candidate that failed admission)."""
        with self._lock:
            if version_id == self._active_id:
                raise LifecycleError(
                    f"cannot discard the active version {version_id!r}"
                )
            if version_id in self._entries:
                del self._entries[version_id]
                self._order.remove(version_id)
                if self._previous_id == version_id:
                    self._previous_id = None
                self.history.append(
                    {
                        "event": "discarded",
                        "version": version_id,
                        "source": "discard",
                        "at_s": time.time(),
                    }
                )

    def activate(
        self, version_id: str, *, event: str = "activated"
    ) -> tuple[ModelVersion | None, ModelVersion]:
        """Atomically make ``version_id`` the active version.

        Returns ``(previous, entry)``.  This is the swap's commit point:
        one pointer write under the lock.
        """
        with self._lock:
            if version_id not in self._entries:
                raise LifecycleError(
                    f"unknown version {version_id!r}; registered: "
                    f"{self._order}"
                )
            previous = (
                self._entries[self._active_id] if self._active_id else None
            )
            if self._active_id != version_id:
                self._previous_id = self._active_id
            self._active_id = version_id
            entry = self._entries[version_id]
            self.history.append(
                {
                    "event": event,
                    "version": version_id,
                    "source": entry.source,
                    "at_s": time.time(),
                }
            )
            return previous, entry

    # ------------------------------------------------------------------
    @property
    def active(self) -> ModelVersion:
        with self._lock:
            if self._active_id is None:
                raise LifecycleError("registry holds no active version")
            return self._entries[self._active_id]

    @property
    def previous(self) -> ModelVersion | None:
        with self._lock:
            if self._previous_id is None:
                return None
            return self._entries.get(self._previous_id)

    def get(self, version_id: str) -> ModelVersion:
        with self._lock:
            if version_id not in self._entries:
                raise LifecycleError(f"unknown version {version_id!r}")
            return self._entries[version_id]

    def versions(self) -> tuple[ModelVersion, ...]:
        with self._lock:
            return tuple(self._entries[v] for v in self._order)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, version_id: object) -> bool:
        with self._lock:
            return version_id in self._entries

    def close(self) -> None:
        """Best-effort close of scorers that own resources."""
        for entry in self.versions():
            closer = getattr(entry.scorer, "close", None)
            if callable(closer):
                try:
                    closer()
                except Exception:
                    pass

    def summary(self) -> dict[str, Any]:
        with self._lock:
            active = self._active_id
            return {
                "active": active,
                "previous": self._previous_id,
                "versions": [e.summary() for e in self.versions()],
                "history": list(self.history),
            }

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"<ModelRegistry {len(self._entries)} version(s), "
                f"active={self._active_id!r}>"
            )


# ----------------------------------------------------------------------
# Versioned scorer
# ----------------------------------------------------------------------
class VersionedScorer:
    """Scorer facade over a :class:`ModelRegistry`'s active version.

    Satisfies the Scorer protocol by delegation, so it drops into the
    existing :class:`~repro.runtime.resilience.FallbackChain` →
    :class:`~repro.runtime.batching.BatchEngine` stack unchanged.  Each
    version gets its own (memoized) execution stack — a
    :class:`~repro.runtime.parallel.ShardedScorer` over a **shared**
    :class:`~repro.runtime.parallel.ScoreCache` when parallel scoring
    is configured — so cache entries stay keyed by the fingerprint of
    the version that computed them.

    ``max_batch_size`` caps each call the shard stack makes to a
    version's scorer (the sharder splits a request's cache misses; see
    :class:`~repro.runtime.parallel.ShardedScorer`).

    Version resolution is snapshotted per engine pin
    (:func:`~repro.runtime.base.current_pin`): every chunk of one
    request — and every member of one coalesced batch — scores on the
    same version even if a swap lands mid-request.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        *,
        parallel: ParallelConfig | None = None,
        cache: ScoreCache | None = None,
        max_batch_size: int | None = None,
    ) -> None:
        if not isinstance(registry, ModelRegistry):
            raise TypeError(
                f"expected a ModelRegistry, got {type(registry).__name__}"
            )
        self.registry = registry
        self.parallel = parallel
        self.cache = cache
        self.max_batch_size = max_batch_size
        #: Set by the LifecycleManager that owns promotion policy.
        self.manager: "LifecycleManager | None" = None
        self._stacks: dict[str, Any] = {}
        self._stack_lock = RLock()
        self._pin = local()
        self._count_lock = RLock()
        self.served_by_version: dict[str, int] = {}
        self.requests = 0

    # -- version resolution -------------------------------------------
    def _resolve(self, *, record: bool) -> ModelVersion:
        pin = current_pin()
        if pin is not None:
            token, rows = pin
            n_requests = len(rows) if rows is not None else 1
            state = getattr(self._pin, "state", None)
            if state is not None and state[0] is token:
                entry, counted = state[1], state[2]
                if record and not counted:
                    self._count(entry, n_requests)
                    self._pin.state = (token, entry, True)
                return entry
            entry = self.registry.active
            counted = False
            if record:
                self._count(entry, n_requests)
                counted = True
            self._pin.state = (token, entry, counted)
            return entry
        entry = self.registry.active
        if record:
            self._count(entry, 1)
        return entry

    def _count(self, entry: ModelVersion, n_requests: int) -> None:
        with self._count_lock:
            self.requests += n_requests
            self.served_by_version[entry.version_id] = (
                self.served_by_version.get(entry.version_id, 0) + n_requests
            )
        record_served_version(entry.version_id, n_requests)

    def _stack_for(self, entry: ModelVersion):
        """The per-version execution stack (built once per version)."""
        with self._stack_lock:
            stack = self._stacks.get(entry.version_id)
            if stack is None:
                if self.parallel is not None:
                    stack = ShardedScorer(
                        entry.scorer,
                        self.parallel,
                        cache=self.cache,
                        max_batch_size=self.max_batch_size,
                    )
                else:
                    stack = entry.scorer
                self._stacks[entry.version_id] = stack
            return stack

    def active_stack(self):
        """The active version's execution stack (``sharded`` surface)."""
        return self._stack_for(self.registry.active)

    # -- Scorer protocol ----------------------------------------------
    @property
    def backend(self) -> str:
        return self._resolve(record=False).scorer.backend

    @property
    def batchable(self) -> bool:
        return bool(
            getattr(self._resolve(record=False).scorer, "batchable", True)
        )

    @property
    def coalescable(self) -> bool:
        return bool(
            getattr(self._resolve(record=False).scorer, "coalescable", False)
        )

    @property
    def input_dim(self) -> int | None:
        return self._resolve(record=False).scorer.input_dim

    @property
    def predicted_us_per_doc(self) -> float:
        return self._resolve(record=False).price

    def fingerprint(self) -> str:
        """The *current* version's fingerprint (pin-aware)."""
        return self._resolve(record=False).fingerprint

    def score(self, features) -> np.ndarray:
        entry = self._resolve(record=True)
        stack = self._stack_for(entry)
        scores = stack.score(features)
        record_version_documents(entry.version_id, int(scores.shape[0]))
        manager = self.manager
        if manager is not None and manager.hot:
            manager.observe(
                entry, features, scores, rows=request_rows(len(scores))
            )
        annotate_requests(model_version=entry.version_id)
        return scores

    def describe(self) -> str:
        return self._resolve(record=False).scorer.describe()

    def __getattr__(self, name: str):
        if name.startswith("_") or name == "registry":
            raise AttributeError(name)
        return getattr(self.registry.active.scorer, name)

    def __repr__(self) -> str:
        try:
            active = self.registry.active.version_id
        except LifecycleError:
            active = None
        return (
            f"<VersionedScorer active={active!r} "
            f"versions={len(self.registry)}>"
        )

    # ------------------------------------------------------------------
    def close(self) -> None:
        with self._stack_lock:
            for stack in self._stacks.values():
                if isinstance(stack, ShardedScorer):
                    stack.close()

    def summary(self) -> dict[str, Any]:
        with self._count_lock:
            served = dict(self.served_by_version)
            requests = self.requests
        return {
            "requests": requests,
            "served_by_version": served,
            "stacks": sorted(self._stacks),
        }


# ----------------------------------------------------------------------
# Shadow comparison math
# ----------------------------------------------------------------------
def score_drift_pct(incumbent, candidate) -> float:
    """Mean |candidate − incumbent| as a % of the incumbent's scale."""
    inc = np.asarray(incumbent, dtype=np.float64).ravel()
    cand = np.asarray(candidate, dtype=np.float64).ravel()
    if inc.size == 0 or inc.size != cand.size:
        return float("nan")
    scale = max(float(np.mean(np.abs(inc))), 1e-12)
    return float(np.mean(np.abs(cand - inc)) / scale * 100.0)


def ranking_agreement(incumbent, candidate, k: int = 10) -> float:
    """NDCG@k of the candidate's scores against the incumbent's ranking.

    The incumbent's ordering is graded into five quantile bins (its own
    top fifth gets relevance 4, the bottom fifth 0) and the candidate's
    scores are evaluated as a ranking of those grades: an identical
    ordering scores 1.0, a reversed one near 0.
    """
    inc = np.asarray(incumbent, dtype=np.float64).ravel()
    cand = np.asarray(candidate, dtype=np.float64).ravel()
    n = inc.size
    if n == 0 or n != cand.size:
        return float("nan")
    order = np.argsort(-inc, kind="stable")
    ranks = np.arange(n)
    grades = np.empty(n, dtype=np.float64)
    grades[order] = 4 - np.minimum(4, ranks * 5 // n)
    return float(ndcg(cand, grades, k=int(k)))


class ShadowStats:
    """Thread-safe accumulator for one shadow-scoring phase."""

    def __init__(self) -> None:
        self._lock = RLock()
        self.mirrored = 0
        self.compared = 0
        self.dropped = 0
        self.errors = 0
        self._drift_sum = 0.0
        self._drift_n = 0
        self._agreement_sum = 0.0
        self._agreement_n = 0
        self.worst_drift_pct = float("nan")
        self.worst_agreement = float("nan")

    def record(self, drift_pct: float, agreement: float) -> None:
        with self._lock:
            self.compared += 1
            if math.isfinite(drift_pct):
                self._drift_sum += drift_pct
                self._drift_n += 1
                if not (self.worst_drift_pct >= drift_pct):
                    self.worst_drift_pct = drift_pct
            if math.isfinite(agreement):
                self._agreement_sum += agreement
                self._agreement_n += 1
                if not (self.worst_agreement <= agreement):
                    self.worst_agreement = agreement

    def record_mirrored(self) -> None:
        with self._lock:
            self.mirrored += 1

    def record_dropped(self) -> None:
        with self._lock:
            self.dropped += 1

    def record_error(self) -> None:
        with self._lock:
            self.compared += 1
            self.errors += 1

    @property
    def mean_drift_pct(self) -> float:
        with self._lock:
            if not self._drift_n:
                return float("nan")
            return self._drift_sum / self._drift_n

    @property
    def mean_agreement(self) -> float:
        with self._lock:
            if not self._agreement_n:
                return float("nan")
            return self._agreement_sum / self._agreement_n

    def snapshot(self) -> dict[str, float]:
        with self._lock:
            return {
                "mirrored": self.mirrored,
                "compared": self.compared,
                "dropped": self.dropped,
                "errors": self.errors,
                "mean_drift_pct": self.mean_drift_pct,
                "mean_agreement": self.mean_agreement,
                "worst_drift_pct": self.worst_drift_pct,
                "worst_agreement": self.worst_agreement,
            }


@dataclass(frozen=True)
class GateReport(ConfigCodec):
    """Outcome of evaluating the promotion gate on shadow evidence."""

    passed: bool
    reasons: tuple[str, ...]
    compared: int
    mean_drift_pct: float
    mean_agreement: float
    errors: int


@dataclass(frozen=True)
class SwapEvent(ConfigCodec):
    """One committed lifecycle transition (promotion or rollback)."""

    kind: str  # "promoted" | "forced" | "rolled-back"
    from_version: str | None
    to_version: str
    at_s: float
    compared: int = 0
    mean_drift_pct: float = float("nan")
    mean_agreement: float = float("nan")
    invalidated: int = 0


# ----------------------------------------------------------------------
# Lifecycle manager
# ----------------------------------------------------------------------
class LifecycleManager:
    """Promotion policy: shadow-scored swaps, rollback, re-distillation.

    State machine::

        serving ──swap(candidate)──▶ shadowing
        shadowing ──gate passes──▶ serving (candidate promoted)
        shadowing ──gate trips───▶ serving (candidate rolled back)
        serving ──swap(force=True)─▶ serving (immediate promotion)
        serving ──rollback()───────▶ serving (previous re-activated)

    Lock ordering: the manager lock may take the registry lock, never
    the reverse.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        config: LifecycleConfig | None = None,
        *,
        versioned: VersionedScorer | None = None,
        cache: ScoreCache | None = None,
        engine: Any | None = None,
        budget_us_per_doc: float | None = None,
        allow_unpriced: bool = False,
    ) -> None:
        self.registry = registry
        self.config = config or LifecycleConfig()
        self.versioned = versioned
        self.cache = cache
        self.engine = engine
        self.budget_us_per_doc = budget_us_per_doc
        self.allow_unpriced = allow_unpriced
        self._lock = RLock()
        self.state = "serving"
        self.candidate: ModelVersion | None = None
        self.shadow = ShadowStats()
        self.last_gate: GateReport | None = None
        self.swap_events: list[SwapEvent] = []
        self._mirror_index = 0
        self._executor: ThreadPoolExecutor | None = None
        self._pending = 0
        self.replay = None
        if self.config.replay_capacity > 0:
            from repro.distill.replay import ReplayBuffer

            self.replay = ReplayBuffer(
                self.config.replay_capacity, seed=self.config.replay_seed
            )
        if versioned is not None:
            versioned.manager = self

    # ------------------------------------------------------------------
    @property
    def hot(self) -> bool:
        """Whether the serve path must call :meth:`observe` at all."""
        return self.state == "shadowing" or self.replay is not None

    # ------------------------------------------------------------------
    def swap(
        self,
        candidate: Any,
        *,
        version: str | None = None,
        force: bool = False,
        source: str = "candidate",
        **backend_options: Any,
    ) -> dict[str, Any]:
        """Register ``candidate`` and promote it (or open a shadow phase).

        ``candidate`` may be a model, a Scorer, an already-registered
        :class:`ModelVersion`, or a version id string.  Admission
        re-applies the engine's latency budget to the candidate's
        calibrated price, so a swap can never smuggle an over-budget
        model past the check the engine ran at construction.

        Returns a JSON-safe dict: ``{"action": "promoted"|"forced",
        "event": ...}`` on immediate promotion, or ``{"action":
        "shadowing", "version": ...}`` when the gate phase opened.
        """
        with self._lock:
            if self.state == "shadowing":
                self._cancel_locked(reason="superseded")
            if isinstance(candidate, ModelVersion):
                entry = self.registry.get(candidate.version_id)
            elif isinstance(candidate, str):
                entry = self.registry.get(candidate)
            else:
                entry = self.registry.register(
                    candidate,
                    version=version,
                    source=source,
                    activate=False,
                    **backend_options,
                )
            try:
                admit_to_budget(
                    f"candidate {entry.version_id!r}",
                    entry.price,
                    self.budget_us_per_doc,
                    allow_unpriced=self.allow_unpriced,
                )
            except BudgetExceededError:
                self.registry.discard(entry.version_id)
                raise
            if (
                force
                or self.config.shadow_fraction <= 0.0
                or entry.version_id == self.registry.active.version_id
            ):
                # no shadow evidence backs an immediate promotion; a
                # stale ShadowStats from an earlier phase must not be
                # attributed to this event
                empty = GateReport(
                    passed=True,
                    reasons=(),
                    compared=0,
                    mean_drift_pct=float("nan"),
                    mean_agreement=float("nan"),
                    errors=0,
                )
                event = self._promote_locked(
                    entry, kind="forced" if force else "promoted", gate=empty
                )
                return {"action": event.kind, "event": event.to_dict()}
            self.candidate = entry
            self.state = "shadowing"
            self.shadow = ShadowStats()
            self.last_gate = None
            self._mirror_index = 0
            self.registry.history.append(
                {
                    "event": "shadowing",
                    "version": entry.version_id,
                    "source": entry.source,
                    "at_s": time.time(),
                }
            )
            return {"action": "shadowing", "version": entry.version_id}

    # ------------------------------------------------------------------
    def observe(
        self,
        entry: ModelVersion,
        features,
        scores,
        *,
        rows: Sequence[int] | None = None,
    ) -> None:
        """Serve-path hook: feed the replay buffer, mirror to the shadow.

        Called by :class:`VersionedScorer` only while :attr:`hot`; the
        mirror decision is O(1) per query under the lock and candidate
        scoring happens off the hot path in ``background`` mode.
        ``rows`` splits a coalesced call into its queries (one query
        when ``None``): each query is mirrored, scored and compared on
        its own, so coalescing never changes the shadow's evidence.
        The replay buffer takes rows, which need no split.
        """
        if self.replay is not None:
            self.replay.add(features, scores)
            record_replay(
                rows=len(self.replay), total_seen=self.replay.total_rows
            )
        rows = (len(scores),) if rows is None else tuple(rows)
        candidate = None
        mirrored: list[tuple[int, int]] = []
        with self._lock:
            if (
                self.state == "shadowing"
                and self.candidate is not None
                and entry.version_id != self.candidate.version_id
            ):
                candidate = self.candidate
                f = self.config.shadow_fraction
                lo = 0
                for n in rows:
                    self._mirror_index += 1
                    i = self._mirror_index
                    if int(i * f) != int((i - 1) * f):
                        mirrored.append((lo, lo + n))
                        self.shadow.record_mirrored()
                    lo += n
        if not mirrored:
            return
        features = np.asarray(features, dtype=np.float64)
        scores = np.asarray(scores, dtype=np.float64)
        for lo, hi in mirrored:
            x = features[lo:hi].copy()
            inc = scores[lo:hi].copy()
            if self.config.shadow_mode == "sync":
                self._compare(candidate, x, inc)
                continue
            with self._lock:
                if self._pending >= self.config.shadow_queue:
                    self.shadow.record_dropped()
                    record_shadow_dropped(candidate.version_id)
                    continue
                if self._executor is None:
                    self._executor = ThreadPoolExecutor(
                        max_workers=1, thread_name_prefix="repro-shadow"
                    )
                self._pending += 1
                self._executor.submit(
                    self._compare_background, candidate, x, inc
                )

    def _compare_background(
        self, candidate: ModelVersion, x: np.ndarray, inc: np.ndarray
    ) -> None:
        try:
            self._compare(candidate, x, inc)
        finally:
            with self._lock:
                self._pending -= 1

    def _compare(
        self, candidate: ModelVersion, x: np.ndarray, inc: np.ndarray
    ) -> None:
        with self._lock:
            if self.candidate is not candidate or self.state != "shadowing":
                return
            shadow = self.shadow
        try:
            # ``x`` is one query: in sync mode the engine's pin still
            # holds the whole call's boundaries, which must not reach
            # the candidate.
            with hidden_request_rows():
                if self.versioned is not None:
                    cand_scores = self.versioned._stack_for(candidate).score(x)
                else:
                    cand_scores = candidate.scorer.score(x)
        except Exception:
            with self._lock:
                if self.candidate is candidate:
                    shadow.record_error()
                    record_shadow_error(candidate.version_id)
            self._maybe_decide()
            return
        drift = score_drift_pct(inc, cand_scores)
        agreement = ranking_agreement(
            inc, cand_scores, k=self.config.agreement_k
        )
        with self._lock:
            if self.candidate is not candidate or self.state != "shadowing":
                return
            shadow.record(drift, agreement)
        record_shadow_comparison(
            candidate.version_id, drift_pct=drift, agreement=agreement
        )
        self._maybe_decide()

    # ------------------------------------------------------------------
    def evaluate_gate(self) -> GateReport:
        """Evaluate the promotion gate on the evidence gathered so far."""
        snap = self.shadow.snapshot()
        cfg = self.config
        reasons: list[str] = []
        if snap["errors"]:
            reasons.append(
                f"{int(snap['errors'])} candidate scoring error(s)"
            )
        if not snap["compared"]:
            reasons.append("no shadow comparisons recorded")
        else:
            drift = snap["mean_drift_pct"]
            if math.isfinite(drift) and drift > cfg.max_drift_pct:
                reasons.append(
                    f"mean score drift {drift:.2f}% exceeds "
                    f"{cfg.max_drift_pct:.2f}%"
                )
            agreement = snap["mean_agreement"]
            if math.isfinite(agreement) and agreement < cfg.min_agreement:
                reasons.append(
                    f"mean NDCG@{cfg.agreement_k} agreement "
                    f"{agreement:.3f} below {cfg.min_agreement:.3f}"
                )
        return GateReport(
            passed=not reasons,
            reasons=tuple(reasons),
            compared=int(snap["compared"]),
            mean_drift_pct=snap["mean_drift_pct"],
            mean_agreement=snap["mean_agreement"],
            errors=int(snap["errors"]),
        )

    def _maybe_decide(self) -> None:
        with self._lock:
            if self.state != "shadowing" or self.candidate is None:
                return
            if self.shadow.compared < self.config.shadow_min_requests:
                return
            gate = self.evaluate_gate()
            self.last_gate = gate
            if gate.passed:
                self._promote_locked(self.candidate, kind="promoted", gate=gate)
            elif self.config.auto_rollback:
                self._reject_locked(gate)
            # else: keep shadowing until an explicit decide()

    def decide(self) -> GateReport:
        """Force a gate decision now, regardless of ``shadow_min_requests``."""
        with self._lock:
            if self.state != "shadowing" or self.candidate is None:
                raise LifecycleError("no shadow phase in progress")
            gate = self.evaluate_gate()
            self.last_gate = gate
            if gate.passed:
                self._promote_locked(self.candidate, kind="promoted", gate=gate)
            else:
                self._reject_locked(gate)
            return gate

    def cancel(self) -> None:
        """Abandon the shadow phase without a promotion decision."""
        with self._lock:
            if self.state == "shadowing":
                self._cancel_locked(reason="cancelled")

    def _cancel_locked(self, *, reason: str) -> None:
        candidate = self.candidate
        self.candidate = None
        self.state = "serving"
        if candidate is not None:
            self.registry.history.append(
                {
                    "event": f"shadow-{reason}",
                    "version": candidate.version_id,
                    "source": candidate.source,
                    "at_s": time.time(),
                }
            )

    # ------------------------------------------------------------------
    def _promote_locked(
        self,
        entry: ModelVersion,
        *,
        kind: str,
        gate: GateReport | None = None,
    ) -> SwapEvent:
        previous, entry = self.registry.activate(
            entry.version_id, event=kind
        )
        invalidated = 0
        if (
            self.cache is not None
            and previous is not None
            and previous.fingerprint != entry.fingerprint
        ):
            invalidated = self.cache.invalidate(previous.fingerprint)
        if self.engine is not None:
            self.engine.stats.predicted_us_per_doc = entry.price
        snap = gate or self.evaluate_gate()
        event = SwapEvent(
            kind=kind,
            from_version=previous.version_id if previous else None,
            to_version=entry.version_id,
            at_s=time.time(),
            compared=snap.compared,
            mean_drift_pct=snap.mean_drift_pct,
            mean_agreement=snap.mean_agreement,
            invalidated=invalidated,
        )
        self.swap_events.append(event)
        record_swap(kind)
        annotate_requests(
            swap=f"{event.from_version or '-'}→{event.to_version}"
        )
        self.candidate = None
        self.state = "serving"
        return event

    def _reject_locked(self, gate: GateReport) -> SwapEvent:
        candidate = self.candidate
        assert candidate is not None
        kept = self.registry.active
        invalidated = 0
        if self.cache is not None:
            # the shadow phase may have warmed cache rows for the
            # rejected candidate's fingerprint
            invalidated = self.cache.invalidate(candidate.fingerprint)
        event = SwapEvent(
            kind="rolled-back",
            from_version=candidate.version_id,
            to_version=kept.version_id,
            at_s=time.time(),
            compared=gate.compared,
            mean_drift_pct=gate.mean_drift_pct,
            mean_agreement=gate.mean_agreement,
            invalidated=invalidated,
        )
        self.swap_events.append(event)
        record_rollback()
        annotate_requests(
            swap=f"{candidate.version_id}⇒rolled-back"
        )
        self.registry.history.append(
            {
                "event": "rolled-back",
                "version": candidate.version_id,
                "source": candidate.source,
                "at_s": time.time(),
            }
        )
        self.candidate = None
        self.state = "serving"
        return event

    def rollback(self) -> SwapEvent:
        """Manually re-activate the previously active version."""
        with self._lock:
            if self.state == "shadowing":
                self._cancel_locked(reason="cancelled")
            previous = self.registry.previous
            if previous is None:
                raise LifecycleError("no previous version to roll back to")
            current = self.registry.active
            _, entry = self.registry.activate(
                previous.version_id, event="rolled-back"
            )
            invalidated = 0
            if (
                self.cache is not None
                and current.fingerprint != entry.fingerprint
            ):
                invalidated = self.cache.invalidate(current.fingerprint)
            if self.engine is not None:
                self.engine.stats.predicted_us_per_doc = entry.price
            event = SwapEvent(
                kind="rolled-back",
                from_version=current.version_id,
                to_version=entry.version_id,
                at_s=time.time(),
                invalidated=invalidated,
            )
            self.swap_events.append(event)
            record_swap("rolled-back")
            record_rollback()
            return event

    # ------------------------------------------------------------------
    def drain_shadow(self, timeout: float = 5.0) -> bool:
        """Block until in-flight background mirrors finish (or timeout)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._lock:
                if self._pending == 0:
                    return True
            time.sleep(0.002)
        with self._lock:
            return self._pending == 0

    def redistill(
        self,
        *,
        teacher: Any | None = None,
        epochs: int = 3,
        batch_size: int = 64,
        learning_rate: float = 1e-3,
        seed: int = 0,
        version: str | None = None,
        force: bool = False,
    ) -> dict[str, Any]:
        """Fine-tune the active student on the replay buffer and swap it in.

        Closes the distill → serve → drift → re-distill loop: the buffer
        holds teacher-scored (or self-scored) served traffic, the clone
        is trained on a popularity-weighted sample of it, and the result
        goes through the same shadow-gated :meth:`swap` as any other
        candidate.
        """
        if self.replay is None or len(self.replay) == 0:
            raise LifecycleError(
                "redistill requires a non-empty replay buffer "
                "(set replay_capacity > 0 in LifecycleConfig)"
            )
        from repro.distill.replay import redistill_student
        from repro.distill.student import DistilledStudent

        student = self.registry.active.model
        if not isinstance(student, DistilledStudent):
            raise LifecycleError(
                "redistill requires the active model to be a "
                f"DistilledStudent, got {type(student).__name__}"
            )
        candidate = redistill_student(
            student,
            self.replay,
            teacher=teacher,
            epochs=epochs,
            batch_size=batch_size,
            learning_rate=learning_rate,
            seed=seed,
        )
        return self.swap(
            candidate, version=version, force=force, source="redistilled"
        )

    # ------------------------------------------------------------------
    def close(self) -> None:
        self.drain_shadow(timeout=2.0)
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def summary(self) -> dict[str, Any]:
        with self._lock:
            candidate = (
                self.candidate.version_id if self.candidate else None
            )
            return {
                "state": self.state,
                "active": self.registry.active.version_id
                if len(self.registry)
                else None,
                "candidate": candidate,
                "shadow": self.shadow.snapshot(),
                "gate": self.last_gate.to_dict() if self.last_gate else None,
                "swap_events": [e.to_dict() for e in self.swap_events],
                "replay": self.replay.snapshot() if self.replay else None,
                "config": self.config.to_dict(),
            }
