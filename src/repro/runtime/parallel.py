"""Sharded parallel scoring with a per-row score cache.

The analytic cost models the library prices against (oneDNN, LIBXSMM)
are multi-core kernels, yet every backend scores a request on a single
thread.  This module closes that gap without giving up the runtime's
defining property — bit-identical output no matter how a request is
split:

* :class:`ShardPlan` — deterministic row-shard planning.  Three
  strategies: ``even`` (one shard per worker, sizes within one row of
  each other), ``size-capped`` (as many equal shards as needed to keep
  every shard at or below a row cap) and ``cost-weighted`` (the row cap
  is derived from the scorer's calibrated ``price()`` so each shard
  lands near a target microsecond budget).  Same inputs, same plan —
  always.
* :class:`ScoreCache` — a thread-safe, LRU-like table over *(model
  fingerprint, 128-bit row key)* → score, keyed in one vectorized pass
  per request.  Repeated documents (hot queries, shared candidates)
  short-circuit straight to their previously computed bits.
* :class:`ShardedScorer` — wraps any :class:`~repro.runtime.base.Scorer`
  with a persistent thread pool; shards are scored concurrently and
  reassembled in row order.  Adapters guarantee chunk-invariant scoring
  (stable compiled plans / row-independent tree traversal), so the
  reassembled vector is **bit-identical** to an unsharded call.

Why threads help at all: the heavy numpy kernels (BLAS GEMV/GEMM
matmuls, the QuickScorer bitvector loops) release the GIL while they
run, so row shards genuinely overlap on multi-core hosts.  See
``docs/parallel.md`` for the full rationale and tuning guide.

Non-batchable scorers (cascades rank *within* a request) are passed
through whole — no sharding, no per-row cache — because their scores
depend on the entire request.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import repeat
from threading import RLock

import numpy as np

from repro.exceptions import ConfigError, ReproError
from repro.obs.parallel import ParallelSeries
from repro.utils.codec import ConfigCodec
from repro.utils.rowkeys import key_bytes, row_keys
from repro.utils.validation import check_array_2d

__all__ = [
    "ParallelConfig",
    "ParallelError",
    "PoolClosedError",
    "SHARD_STRATEGIES",
    "ScoreCache",
    "ShardPlan",
    "ShardedScorer",
    "plan_shards",
    "scorer_fingerprint",
]

#: Supported shard-planning strategies.
SHARD_STRATEGIES = ("even", "size-capped", "cost-weighted")


class ParallelError(ReproError):
    """A shard plan, cache or worker pool was misused or misconfigured."""


class PoolClosedError(ParallelError):
    """A :class:`ShardedScorer` was asked to score after ``close()``."""


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ParallelConfig(ConfigCodec):
    """Tuning of a :class:`ShardedScorer` (and its optional cache).

    Parameters
    ----------
    workers:
        Size of the persistent thread pool.  ``1`` scores inline (still
        through the planner, so behaviour is identical minus the pool).
    strategy:
        One of :data:`SHARD_STRATEGIES`.  ``even`` makes one shard per
        worker; ``size-capped`` caps every shard at ``max_shard_rows``;
        ``cost-weighted`` derives the cap from the scorer's calibrated
        µs/doc price and ``target_shard_us``.
    max_shard_rows:
        Row cap per shard (required by ``size-capped``).
    target_shard_us:
        Target shard duration in µs (required by ``cost-weighted``).
    cache_entries:
        Capacity of the per-scorer :class:`ScoreCache`; ``0`` disables
        caching.
    """

    workers: int = 2
    strategy: str = "even"
    max_shard_rows: int | None = None
    target_shard_us: float | None = None
    cache_entries: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.strategy not in SHARD_STRATEGIES:
            raise ConfigError(
                f"strategy must be one of {', '.join(SHARD_STRATEGIES)}, "
                f"got {self.strategy!r}"
            )
        if self.strategy == "size-capped":
            if self.max_shard_rows is None or self.max_shard_rows < 1:
                raise ConfigError(
                    "size-capped sharding needs max_shard_rows >= 1, "
                    f"got {self.max_shard_rows}"
                )
        if self.strategy == "cost-weighted":
            if self.target_shard_us is None or self.target_shard_us <= 0:
                raise ConfigError(
                    "cost-weighted sharding needs target_shard_us > 0, "
                    f"got {self.target_shard_us}"
                )
        if self.cache_entries < 0:
            raise ConfigError(
                f"cache_entries must be >= 0, got {self.cache_entries}"
            )


# ----------------------------------------------------------------------
# Shard planning
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardPlan:
    """A deterministic partition of ``n_rows`` into contiguous spans.

    ``spans`` is a tuple of half-open ``(lo, hi)`` row ranges that cover
    ``[0, n_rows)`` in order with no gaps.  Construction validates the
    invariant, so a plan in hand is always safe to execute.
    """

    n_rows: int
    spans: tuple[tuple[int, int], ...]
    strategy: str = "even"

    def __post_init__(self) -> None:
        if self.n_rows < 0:
            raise ParallelError(f"n_rows must be >= 0, got {self.n_rows}")
        expected = 0
        for lo, hi in self.spans:
            if lo != expected or hi <= lo:
                raise ParallelError(
                    f"spans must be contiguous, ordered and non-empty; "
                    f"got {self.spans}"
                )
            expected = hi
        if expected != self.n_rows:
            raise ParallelError(
                f"spans cover {expected} rows, expected {self.n_rows}"
            )

    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return len(self.spans)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(hi - lo for lo, hi in self.spans)

    @property
    def balance(self) -> float:
        """Largest shard over the mean shard size (1.0 = perfectly even)."""
        if not self.spans:
            return float("nan")
        sizes = self.sizes
        return max(sizes) * len(sizes) / sum(sizes)

    def describe(self) -> str:
        return (
            f"{self.strategy} plan: {self.n_rows} rows in "
            f"{self.n_shards} shards (balance {self.balance:.2f})"
        )

    def capped(self, max_rows: int) -> "ShardPlan":
        """This plan with every span longer than ``max_rows`` cut into
        ``max_rows``-row pieces plus one remainder."""
        if max_rows < 1:
            raise ParallelError(f"max_rows must be >= 1, got {max_rows}")
        spans = tuple(
            (a, min(a + max_rows, hi))
            for lo, hi in self.spans
            for a in range(lo, hi, max_rows)
        )
        return ShardPlan(self.n_rows, spans, self.strategy)

    # ------------------------------------------------------------------
    @classmethod
    def even(cls, n_rows: int, n_shards: int) -> "ShardPlan":
        """Split into at most ``n_shards`` spans, sizes within one row."""
        if n_shards < 1:
            raise ParallelError(f"n_shards must be >= 1, got {n_shards}")
        if n_rows <= 0:
            return cls(max(n_rows, 0), (), "even")
        shards = min(n_shards, n_rows)
        base, extra = divmod(n_rows, shards)
        spans = []
        lo = 0
        for index in range(shards):
            hi = lo + base + (1 if index < extra else 0)
            spans.append((lo, hi))
            lo = hi
        return cls(n_rows, tuple(spans), "even")

    @classmethod
    def size_capped(cls, n_rows: int, max_rows: int) -> "ShardPlan":
        """As many near-equal spans as needed to keep each <= ``max_rows``."""
        if max_rows < 1:
            raise ParallelError(f"max_rows must be >= 1, got {max_rows}")
        if n_rows <= 0:
            return cls(max(n_rows, 0), (), "size-capped")
        shards = -(-n_rows // max_rows)  # ceil division
        plan = cls.even(n_rows, shards)
        return cls(n_rows, plan.spans, "size-capped")

    @classmethod
    def cost_weighted(
        cls, n_rows: int, us_per_doc: float, target_shard_us: float
    ) -> "ShardPlan":
        """Cap shard size so each shard costs about ``target_shard_us``.

        The per-row price comes from the runtime's calibrated cost
        models (``Scorer.predicted_us_per_doc`` / ``price()``), putting
        the paper's analytic predictors to work a third time: design,
        admission, and now shard sizing.
        """
        if not (math.isfinite(us_per_doc) and us_per_doc > 0):
            raise ParallelError(
                "cost-weighted sharding needs a finite positive µs/doc "
                f"price, got {us_per_doc} (is the scorer unpriced?)"
            )
        if not (math.isfinite(target_shard_us) and target_shard_us > 0):
            raise ParallelError(
                f"target_shard_us must be finite and > 0, "
                f"got {target_shard_us}"
            )
        rows = max(1, int(target_shard_us / us_per_doc))
        plan = cls.size_capped(n_rows, rows)
        return cls(plan.n_rows, plan.spans, "cost-weighted")


def plan_shards(
    n_rows: int,
    config: ParallelConfig,
    *,
    us_per_doc: float = float("nan"),
) -> ShardPlan:
    """Build the :class:`ShardPlan` ``config`` asks for over ``n_rows``."""
    if config.strategy == "even":
        return ShardPlan.even(n_rows, config.workers)
    if config.strategy == "size-capped":
        return ShardPlan.size_capped(n_rows, config.max_shard_rows)
    return ShardPlan.cost_weighted(
        n_rows, us_per_doc, config.target_shard_us
    )


# ----------------------------------------------------------------------
# Score cache
# ----------------------------------------------------------------------
def scorer_fingerprint(scorer) -> str:
    """A cache-keying identity for ``scorer``.

    A scorer may publish its own ``fingerprint()`` (e.g. a weights
    digest); otherwise the default ties cache entries to the *instance*
    — a new scorer never reuses another's entries, which is the safe
    direction.  Mutating a live scorer's model in place is the caller's
    responsibility: call :meth:`ScoreCache.clear` afterwards.
    """
    fingerprint = getattr(scorer, "fingerprint", None)
    if callable(fingerprint):
        return str(fingerprint())
    return (
        f"{type(scorer).__qualname__}:{getattr(scorer, 'backend', '?')}:"
        f"{id(scorer):#x}"
    )


#: A full cache frees at least ``capacity // _EVICT_DIVISOR`` slots per
#: eviction pass, so its O(capacity) oldest-entry selection runs once
#: per that many inserts instead of on every call.
_EVICT_DIVISOR = 16


class ScoreCache:
    """Thread-safe, LRU-like table of per-document scores.

    Entries are keyed by ``(model fingerprint, 128-bit row key)`` (see
    :func:`~repro.utils.rowkeys.row_keys`), so two models — or two
    instances of the same model — never share entries, and a row hits
    only when its float64 bytes match exactly (bit-identity is preserved
    by construction: a hit returns the very bits the scorer produced).

    Storage is preallocated: per slot the key (16 bytes), the score, the
    owning fingerprint's id and a last-use tick, plus a free-slot stack.
    A per-fingerprint ``dict`` maps each 16-byte key to its slot.  When
    a full cache needs room it evicts the least recently used entries,
    ``capacity // 16`` (or what the call needs, if more) at a time.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ParallelError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._lock = RLock()
        self._reset()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def _reset(self) -> None:
        capacity = self.capacity
        self._keys = np.zeros((capacity, 2), dtype=np.uint64)
        self._scores = np.zeros(capacity, dtype=np.float64)
        #: owning fingerprint id per slot; 0 marks a free slot
        self._owners = np.zeros(capacity, dtype=np.int32)
        self._ticks = np.zeros(capacity, dtype=np.int64)
        self._free = np.arange(capacity, dtype=np.intp)
        self._n_free = capacity
        self._clock = 0
        self._owner_ids: dict[str, int] = {}
        self._tables: dict[int, dict[bytes, int]] = {}
        self._next_owner = 1

    def __len__(self) -> int:
        return self.capacity - self._n_free

    @property
    def hit_ratio(self) -> float:
        """Hits over all lookups (``nan`` before any traffic)."""
        total = self.hits + self.misses
        return self.hits / total if total else float("nan")

    # ------------------------------------------------------------------
    def get_many(
        self, model_key: str, keys: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Look up the ``(n, 2)`` row ``keys``; returns ``(values, hit_mask)``.

        ``values[i]`` is meaningful only where ``hit_mask[i]`` is true
        (scores may legitimately be any float, so there is no sentinel).
        """
        digests = key_bytes(keys)
        with self._lock:
            table = self._tables.get(self._owner_ids.get(model_key, 0), {})
            slots = np.fromiter(
                map(table.get, digests, repeat(-1)), np.intp, len(digests)
            )
            mask = slots >= 0
            hit = slots[mask]
            self._ticks[hit] = self._tick()
            values = self._scores[slots]  # misses read slot -1: junk
            self.hits += len(hit)
            self.misses += len(slots) - len(hit)
        return values, mask

    def put_many(
        self,
        model_key: str,
        keys: np.ndarray,
        scores: np.ndarray,
    ) -> None:
        """Insert freshly computed scores, evicting LRU entries."""
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        scores = np.asarray(scores, dtype=np.float64)
        if len(keys) != len(scores):
            raise ParallelError(
                f"got {len(keys)} row digests for {len(scores)} scores"
            )
        # Rows beyond capacity would be evicted by the later ones within
        # this very call: keep the last ``capacity``.
        evicted = max(len(keys) - self.capacity, 0)
        keys, scores = keys[evicted:], scores[evicted:]
        digests = key_bytes(keys)
        with self._lock:
            owner = self._owner_ids.get(model_key)
            if owner is None:
                owner = self._owner_ids[model_key] = self._next_owner
                self._next_owner += 1
                self._tables[owner] = {}
            table = self._tables[owner]
            if len(digests) > self._n_free:
                evicted += self._evict(len(digests) - self._n_free)
            # Offer every row a free slot; ``setdefault`` keeps a known
            # row's slot (and a repeated row's first one), so one pass
            # looks up, inserts and deduplicates.
            lo = self._n_free - len(digests)
            offered = self._free[lo : self._n_free].copy()
            slots = np.fromiter(
                map(table.setdefault, digests, offered.tolist()),
                np.intp,
                len(digests),
            )
            taken = slots == offered
            spare = offered[~taken]
            self._free[lo : lo + len(spare)] = spare
            self._n_free = lo + len(spare)
            new = offered[taken]
            self._keys[new] = keys[taken]
            self._owners[new] = owner
            self._scores[slots] = scores  # a repeated row: last one wins
            self._ticks[slots] = self._tick()
            self.evictions += evicted
        if evicted:
            from repro.obs.parallel import record_cache_eviction

            record_cache_eviction(evicted)

    def _tick(self) -> int:
        """The next last-use tick (one per call).  Caller holds the lock."""
        self._clock += 1
        return self._clock

    def _evict(self, count: int) -> int:
        """Free the ``max(count, capacity // 16)`` least recently used
        slots (all, if fewer are occupied); returns the number freed.
        Caller holds the lock."""
        count = min(max(count, self.capacity // _EVICT_DIVISOR), len(self))
        ticks = np.where(self._owners > 0, self._ticks, np.iinfo(np.int64).max)
        victims = np.argpartition(ticks, count - 1)[:count]
        owners = self._owners[victims]
        for owner in np.unique(owners).tolist():
            table = self._tables[owner]
            for digest in key_bytes(self._keys[victims[owners == owner]]):
                del table[digest]
        self._release(victims)
        return count

    def _release(self, slots: np.ndarray) -> None:
        self._owners[slots] = 0
        self._free[self._n_free : self._n_free + len(slots)] = slots
        self._n_free += len(slots)

    def invalidate(self, fingerprint: str) -> int:
        """Drop every entry keyed by ``fingerprint``; returns the count.

        The hot-swap hook: when a model version is promoted, the
        lifecycle manager invalidates the *outgoing* version's entries
        by its plan fingerprint so the cache never pins a retired
        model's bits in memory.  (Correctness never depended on this —
        keys are fingerprint-scoped, so a new version cannot hit an old
        version's rows — but a swapped-out model's entries are dead
        weight that would otherwise age out one eviction at a time.)
        """
        with self._lock:
            owner = self._owner_ids.pop(str(fingerprint), 0)
            table = self._tables.pop(owner, {})
            if table:
                self._release(
                    np.fromiter(table.values(), np.intp, len(table))
                )
            self.invalidations += len(table)
        if table:
            from repro.obs.parallel import record_cache_invalidation

            record_cache_invalidation(len(table))
        return len(table)

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        with self._lock:
            self._reset()

    def snapshot(self) -> dict[str, float]:
        """Counters + occupancy, for summaries and metrics."""
        with self._lock:
            return {
                "entries": float(len(self)),
                "capacity": float(self.capacity),
                "hits": float(self.hits),
                "misses": float(self.misses),
                "evictions": float(self.evictions),
                "invalidations": float(self.invalidations),
                "hit_ratio": self.hit_ratio,
            }

    def __repr__(self) -> str:
        return (
            f"<ScoreCache {len(self)}/{self.capacity} "
            f"hit_ratio={self.hit_ratio:.1%}>"
        )


# ----------------------------------------------------------------------
# Sharded scorer
# ----------------------------------------------------------------------
class ShardedScorer:
    """Any scorer, scored shard-parallel with order-preserving reassembly.

    Satisfies the :class:`~repro.runtime.base.Scorer` protocol under the
    wrapped scorer's backend name, price, batchability and input
    dimension, so it drops into :class:`~repro.runtime.batching.
    BatchEngine`, :class:`~repro.runtime.resilience.FallbackChain` and
    :class:`~repro.serving.ScoringService` unchanged.

    Output is **bit-identical** to ``inner.score`` on the whole matrix:
    adapters are chunk-invariant, shards are contiguous row spans, and
    reassembly writes each shard back at its own offset.  Cached rows
    return the bits the same scorer computed earlier, so warm requests
    are bit-identical too.

    Non-batchable scorers (cascades) are served whole with no cache —
    their scores depend on the entire request.

    ``max_batch_size`` caps the rows of every call to the inner scorer:
    each shard of the plan is scored in ``max_batch_size``-row pieces
    plus one remainder (:meth:`ShardPlan.capped`).  Shard counts and
    balance describe the plan, not the pieces.  A
    :class:`~repro.runtime.batching.BatchEngine` or
    :class:`~repro.serving.ScoringService` with ``parallel`` set passes
    its ``max_batch_size`` here and hands the stack whole requests, so
    a request is keyed and looked up once and only its cache misses are
    cut into micro-batches.
    """

    backend = "sharded"
    batchable = True
    coalescable = False

    def __init__(
        self,
        scorer,
        config: ParallelConfig | None = None,
        *,
        cache: ScoreCache | None = None,
        max_batch_size: int | None = None,
    ) -> None:
        from repro.runtime.base import is_scorer

        if not is_scorer(scorer):
            raise TypeError(
                f"expected a Scorer, got {type(scorer).__name__} "
                "(build one with make_scorer)"
            )
        if max_batch_size is not None and max_batch_size < 1:
            raise ParallelError(
                f"max_batch_size must be >= 1, got {max_batch_size}"
            )
        self.inner = scorer
        self.config = config or ParallelConfig()
        self.max_batch_size = max_batch_size
        self.backend = scorer.backend
        self.batchable = getattr(scorer, "batchable", True)
        self.coalescable = getattr(scorer, "coalescable", False)
        if self.batchable:
            # `is not None`, not truthiness: an empty shared ScoreCache
            # is falsy (it has __len__) but must still be adopted
            self.cache = (
                cache
                if cache is not None
                else (
                    ScoreCache(self.config.cache_entries)
                    if self.config.cache_entries
                    else None
                )
            )
        else:
            self.cache = None  # per-row entries are meaningless here
        self._fingerprint = scorer_fingerprint(scorer)
        #: Scorers that publish a callable ``fingerprint()`` may change
        #: identity over their lifetime (a versioned registry scorer
        #: after a hot swap); re-read those per request instead of
        #: trusting the construction-time value.
        self._dynamic_fingerprint = callable(
            getattr(scorer, "fingerprint", None)
        )
        self._pool: ThreadPoolExecutor | None = None
        if self.batchable and self.config.workers > 1:
            self._pool = ThreadPoolExecutor(
                max_workers=self.config.workers,
                thread_name_prefix=f"repro-shard-{self.backend}",
            )
        self._closed = False
        self._series = ParallelSeries(self.backend)
        self.requests = 0
        self.shards_executed = 0
        self.last_plan: ShardPlan | None = None
        self.last_utilization = float("nan")

    # ------------------------------------------------------------------
    @property
    def input_dim(self) -> int | None:
        return self.inner.input_dim

    @property
    def predicted_us_per_doc(self) -> float:
        return self.inner.predicted_us_per_doc

    def describe(self) -> str:
        return (
            f"sharded[{self.config.workers}w/{self.config.strategy}]"
            f"({self.inner.describe()})"
        )

    def __repr__(self) -> str:
        return (
            f"<ShardedScorer [{self.backend}] workers={self.config.workers} "
            f"requests={self.requests}>"
        )

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the worker pool down; further scoring raises."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
        self._closed = True

    def __enter__(self) -> "ShardedScorer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def score(self, features) -> np.ndarray:
        """Score one request shard-parallel; bit-identical to unsharded."""
        from repro.obs.requests import annotate_requests

        if self._closed:
            raise PoolClosedError(
                f"sharded scorer over {self.backend!r} is closed"
            )
        x = check_array_2d(features, "features", allow_empty=True)
        dim = self.inner.input_dim
        if dim is not None and x.shape[1] != dim:
            # Checked before keying, so a cache hit always implies the
            # inner scorer accepted this width.
            raise ValueError(f"expected {dim} features, got {x.shape[1]}")
        if not len(x):
            return np.zeros(0, dtype=np.float64)
        x = np.ascontiguousarray(x)
        n = len(x)
        self.requests += 1
        if not self.batchable:
            scores = np.asarray(self.inner.score(x), dtype=np.float64)
            self.shards_executed += 1
            self.last_plan = ShardPlan(n, ((0, n),), "whole-request")
            self.last_utilization = 1.0
            self._series.record(n_shards=1, balance=1.0, utilization=1.0)
            annotate_requests(shards=1, pool_utilization=1.0)
            return scores
        model_key = self._model_key()
        # `miss` selects the rows to score: every row (a slice, so no
        # copies) unless the cache serves some of them.
        if self.cache is None:
            out, miss, misses = np.empty(n, dtype=np.float64), slice(None), n
        else:
            keys = row_keys(x)
            out, hit = self.cache.get_many(model_key, keys)
            miss = np.flatnonzero(~hit)
            misses = len(miss)
            if misses == n:
                miss = slice(None)
        hits = n - misses
        plan = None
        utilization = float("nan")
        if misses:
            sub = x[miss]
            plan = self._plan(len(sub))
            fresh, utilization = self._execute(sub, plan)
            out[miss] = fresh
            if self.cache is not None:
                self.cache.put_many(model_key, keys[miss], fresh)
            self.shards_executed += plan.n_shards
            self.last_plan = plan
            self.last_utilization = utilization
        self._series.record(
            n_shards=plan.n_shards if plan is not None else 0,
            balance=plan.balance if plan is not None else float("nan"),
            utilization=utilization,
            cache_hits=hits,
            cache_misses=misses if self.cache is not None else 0,
        )
        # Request tracing: attribute the shard fan-out to whichever
        # coalesced requests are live in this thread's context (no-op
        # outside a traced engine call).
        annotate_requests(
            shards=plan.n_shards if plan is not None else 0,
            pool_utilization=(
                round(utilization, 3) if math.isfinite(utilization) else None
            ),
            cache_hits=hits,
        )
        return out

    # ------------------------------------------------------------------
    def _model_key(self) -> str:
        """The cache-keying fingerprint, re-read when the inner scorer
        publishes a dynamic one (read once per request, so cached rows
        and fresh rows of one request always share a key)."""
        if self._dynamic_fingerprint:
            return str(self.inner.fingerprint())
        return self._fingerprint

    def _plan(self, n_rows: int) -> ShardPlan:
        us_per_doc = (
            self.inner.predicted_us_per_doc
            if self.config.strategy == "cost-weighted"
            else float("nan")
        )
        return plan_shards(n_rows, self.config, us_per_doc=us_per_doc)

    def _execute(
        self, x: np.ndarray, plan: ShardPlan
    ) -> tuple[np.ndarray, float]:
        """Run the plan, each shard in calls of at most
        ``max_batch_size`` rows; returns ``(scores, pool utilization)``."""

        def score_span(lo: int, hi: int) -> tuple[np.ndarray, float]:
            start = time.perf_counter()
            scores = np.asarray(
                self.inner.score(x[lo:hi]), dtype=np.float64
            )
            return scores, time.perf_counter() - start

        if self.max_batch_size is not None:
            plan = plan.capped(self.max_batch_size)
        wall_start = time.perf_counter()
        if self._pool is None or plan.n_shards <= 1:
            parts = [score_span(lo, hi) for lo, hi in plan.spans]
            lanes = 1
        else:
            futures = [
                self._pool.submit(score_span, lo, hi)
                for lo, hi in plan.spans
            ]
            parts = [future.result() for future in futures]
            lanes = min(self.config.workers, plan.n_shards)
        wall = max(time.perf_counter() - wall_start, 1e-12)
        busy = sum(seconds for _, seconds in parts)
        utilization = min(busy / (lanes * wall), 1.0)
        if len(parts) == 1:
            return parts[0][0], utilization
        return np.concatenate([scores for scores, _ in parts]), utilization

    # ------------------------------------------------------------------
    def summary(self) -> dict[str, object]:
        """Shard/pool/cache snapshot for services and probes."""
        return {
            "backend": self.backend,
            "workers": self.config.workers,
            "strategy": self.config.strategy,
            "requests": self.requests,
            "shards_executed": self.shards_executed,
            "last_shards": (
                self.last_plan.n_shards if self.last_plan else 0
            ),
            "last_balance": (
                self.last_plan.balance if self.last_plan else float("nan")
            ),
            "last_utilization": self.last_utilization,
            "cache": self.cache.snapshot() if self.cache else None,
        }
