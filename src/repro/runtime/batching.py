"""Batched execution with budgets and latency accounting.

:class:`BatchEngine` is the one execution layer every serving surface
goes through:

* documents of a request are scored in **micro-batches** of at most
  ``max_batch_size`` rows (adapters guarantee chunk-invariant scoring,
  so batching never changes a single bit of the output);
* many concurrent requests can be **coalesced** into one cross-request
  micro-batch (:meth:`BatchEngine.score_coalesced`) — the asyncio
  front-end's path: one GEMM for N users' candidate lists, sliced back
  out bit-identically, with per-request latency accounted
  enqueue→response while drift keeps pricing kernel time.  Cascades
  take the batch in one call too, with the request boundaries pinned,
  and run each stage over every request's survivors;
* the request is **priced before execution** against the scorer's
  calibrated cost model, and construction fails when the price exceeds
  the latency budget — the paper's design rule enforced at deployment
  time;
* per-request wall latencies are recorded into :class:`ServiceStats`,
  which reports p50/p95/p99 percentiles alongside the running volume
  counters, at **bounded memory**: latencies feed a fixed-capacity
  :class:`~repro.obs.metrics.StreamingHistogram` (exact percentiles up
  to the reservoir capacity, unbiased estimates beyond), so a
  long-lived service never grows with request count;
* every executed request also feeds the per-backend
  predicted-vs-measured **drift** series (:mod:`repro.obs.drift`) and,
  when the process-wide tracer is enabled, an ``engine.score`` span.
"""

from __future__ import annotations

import contextlib
import math
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.exceptions import ReproError
from repro.obs.drift import DriftSeries
from repro.obs.metrics import StreamingHistogram
from repro.obs.requests import activate_batch
from repro.runtime.base import Scorer, pinned_scope
from repro.runtime.parallel import ShardedScorer
from repro.utils.validation import check_array_2d

#: Reservoir size of the per-service latency histogram.  Percentiles are
#: exact up to this many requests and sampled estimates beyond.
LATENCY_RESERVOIR_CAPACITY = 4096


class BudgetExceededError(ReproError):
    """The model's predicted cost exceeds the service's latency budget."""


@dataclass
class ServiceStats:
    """Running counters and latency percentiles of a scoring service.

    Memory is bounded regardless of traffic: per-request latencies live
    in a fixed-capacity streaming histogram, not an ever-growing list.

    Two time axes are kept apart. ``wall_seconds`` accumulates *scorer
    execution* time and is the denominator of ``measured_us_per_doc`` /
    ``drift_pct`` — the deployment audit of the calibrated kernel price.
    The latency percentiles instead cover whatever ``record`` was handed
    as ``seconds``: for the synchronous engine that *is* kernel wall
    time, but the coalescing path passes enqueue→response wall time (and
    the kernel share separately via ``kernel_seconds``), so a queued
    request's percentile reflects what the client actually waited while
    the drift series keeps pricing kernels only.  ``queued_seconds``
    holds the accumulated difference.

    Thread-safe: ``record`` may be called concurrently from the asyncio
    event loop's executor and :class:`~repro.runtime.parallel.
    ShardedScorer` pool threads — counter updates happen under one lock
    (the histogram has its own).
    """

    requests: int = 0
    documents: int = 0
    wall_seconds: float = 0.0
    queued_seconds: float = 0.0
    predicted_us_per_doc: float = field(default=float("nan"))
    _latency_us: StreamingHistogram = field(
        default_factory=lambda: StreamingHistogram(
            capacity=LATENCY_RESERVOIR_CAPACITY
        ),
        repr=False,
        compare=False,
    )
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def record(
        self,
        n_docs: int,
        seconds: float,
        *,
        kernel_seconds: float | None = None,
    ) -> None:
        """Account one request of ``n_docs`` documents.

        ``seconds`` feeds the latency percentiles; ``kernel_seconds``
        (defaulting to ``seconds``) feeds the measured-cost/drift
        accumulators.  A coalesced request passes its enqueue→response
        wall time as ``seconds`` and its share of the batch's kernel
        time as ``kernel_seconds``.
        """
        n = int(n_docs)
        if n < 1:
            raise ReproError(
                f"a request must contain at least one document, got {n_docs}"
            )
        if not math.isfinite(seconds) or seconds < 0:
            raise ReproError(
                f"request wall time must be finite and >= 0 seconds, "
                f"got {seconds}"
            )
        if kernel_seconds is None:
            kernel_seconds = seconds
        elif not math.isfinite(kernel_seconds) or kernel_seconds < 0:
            raise ReproError(
                f"kernel time must be finite and >= 0 seconds, "
                f"got {kernel_seconds}"
            )
        with self._lock:
            self.requests += 1
            self.documents += n
            self.wall_seconds += kernel_seconds
            self.queued_seconds += max(seconds - kernel_seconds, 0.0)
        self._latency_us.add(seconds * 1e6)

    @property
    def mean_docs_per_request(self) -> float:
        return self.documents / self.requests if self.requests else 0.0

    @property
    def measured_us_per_doc(self) -> float:
        """Running measured unit cost over all recorded traffic."""
        if not self.documents:
            return float("nan")
        return self.wall_seconds * 1e6 / self.documents

    @property
    def drift_pct(self) -> float:
        """Measured vs predicted unit cost, as a signed percentage.

        Positive when the model serves *slower* than the calibrated
        price said it would; ``nan`` until traffic arrives or when the
        scorer has no finite price.
        """
        predicted = self.predicted_us_per_doc
        measured = self.measured_us_per_doc
        if not (math.isfinite(predicted) and predicted > 0):
            return float("nan")
        if not math.isfinite(measured):
            return float("nan")
        return (measured - predicted) / predicted * 100.0

    def latency_percentile_us(self, q: float) -> float:
        """The ``q``-th percentile of per-request wall latency, in µs."""
        if not 0.0 <= q <= 100.0:
            raise ReproError(
                f"latency percentile q must be in [0, 100], got {q}"
            )
        if not self.requests:
            return float("nan")
        return self._latency_us.percentile(q)

    @property
    def p50_us(self) -> float:
        """Median per-request latency (µs)."""
        return self.latency_percentile_us(50.0)

    @property
    def p95_us(self) -> float:
        """95th-percentile per-request latency (µs)."""
        return self.latency_percentile_us(95.0)

    @property
    def p99_us(self) -> float:
        """99th-percentile per-request latency (µs)."""
        return self.latency_percentile_us(99.0)

    def latency_summary(self) -> dict[str, float]:
        """p50/p95/p99 per-request latency in µs."""
        return {"p50_us": self.p50_us, "p95_us": self.p95_us, "p99_us": self.p99_us}

    def drift_summary(self) -> dict[str, float]:
        """Predicted vs measured unit cost, the deployment-time audit."""
        return {
            "predicted_us_per_doc": self.predicted_us_per_doc,
            "measured_us_per_doc": self.measured_us_per_doc,
            "drift_pct": self.drift_pct,
        }


def score_chunked(scorer, x: np.ndarray, size: int | None) -> np.ndarray:
    """``scorer.score(x)`` in calls of at most ``size`` rows: full
    pieces plus one remainder.  ``None`` or a non-batchable scorer
    (cascades) takes ``x`` whole."""
    if (
        size is None
        or len(x) <= size
        or not getattr(scorer, "batchable", True)
    ):
        return np.asarray(scorer.score(x), dtype=np.float64)
    out = np.empty(len(x), dtype=np.float64)
    for lo in range(0, len(x), size):
        chunk = x[lo : lo + size]
        out[lo : lo + len(chunk)] = scorer.score(chunk)
    return out


class ChunkedScorer:
    """``inner`` with every call capped at ``max_batch_size`` rows.

    A :class:`~repro.serving.ScoringService` with ``parallel`` hands its
    fallback chain whole requests, and only the primary's shard stack
    splits them.  The fallback tiers are wrapped in this class so that
    they, too, never see more than ``max_batch_size`` rows in one call.
    Scores are bit-identical for chunk-invariant scorers.
    """

    backend = "chunked"
    batchable = True
    coalescable = False

    def __init__(self, inner: Scorer, max_batch_size: int) -> None:
        self.inner = inner
        self.max_batch_size = max_batch_size
        self.backend = inner.backend
        self.batchable = getattr(inner, "batchable", True)
        self.coalescable = getattr(inner, "coalescable", False)

    @property
    def input_dim(self) -> int | None:
        return self.inner.input_dim

    @property
    def predicted_us_per_doc(self) -> float:
        return self.inner.predicted_us_per_doc

    def describe(self) -> str:
        return f"chunked[{self.max_batch_size}]({self.inner.describe()})"

    def score(self, features) -> np.ndarray:
        x = np.asarray(features, dtype=np.float64)
        return score_chunked(self.inner, x, self.max_batch_size)


def admit_to_budget(
    name: str, price: float, budget: float | None, *, allow_unpriced: bool
) -> None:
    """Raise :class:`BudgetExceededError` unless ``name``, priced at
    ``price`` us/doc, fits ``budget`` (``None``: no budget).

    A non-finite price fails too unless ``allow_unpriced``: ``nan >
    budget`` is ``False``, so an unpriced model would otherwise slip
    past the paper's design rule.
    """
    if budget is None:
        return
    if not math.isfinite(price):
        if not allow_unpriced:
            raise BudgetExceededError(
                f"{name} has no finite price (predicted cost {price} is "
                f"non-finite) to check against the {budget:.2f} us/doc "
                "budget; pass allow_unpriced=True to admit it explicitly"
            )
    elif price > budget:
        raise BudgetExceededError(
            f"{name} predicted at {price:.2f} us/doc exceeds the "
            f"{budget:.2f} us/doc budget"
        )


class BatchEngine:
    """Micro-batched, budget-checked execution of one scorer.

    Parameters
    ----------
    scorer:
        Any :class:`~repro.runtime.base.Scorer` (see ``make_scorer``).
    max_batch_size:
        Largest micro-batch handed to the scorer in one call; ``None``
        disables splitting.  Non-batchable scorers (cascades) always
        receive the request whole.  A
        :class:`~repro.runtime.parallel.ShardedScorer` splits instead of
        the engine, after its cache: it keys and looks up a request once
        and scores only the missing rows, in calls of at most its own
        ``max_batch_size``.
    budget_us_per_doc:
        Optional per-document budget; construction raises
        :class:`BudgetExceededError` when the scorer's calibrated price
        exceeds it.  A budget must be finite and positive, and a scorer
        whose price is *non-finite* (NaN/inf) also fails admission —
        ``nan > budget`` is ``False``, so without this check an unpriced
        model would silently slip past the paper's design rule.
    allow_unpriced:
        Explicitly admit a scorer with a non-finite price under a
        budget (the budget then only documents intent; it cannot be
        checked).
    stats:
        Optional pre-existing :class:`ServiceStats` to accumulate into.
    """

    def __init__(
        self,
        scorer: Scorer,
        *,
        max_batch_size: int | None = 256,
        budget_us_per_doc: float | None = None,
        allow_unpriced: bool = False,
        stats: ServiceStats | None = None,
    ) -> None:
        if max_batch_size is not None and max_batch_size < 1:
            raise ValueError(
                f"max_batch_size must be >= 1, got {max_batch_size}"
            )
        if isinstance(scorer, ShardedScorer):
            max_batch_size = None  # the sharder splits, after the cache
        self.scorer = scorer
        self.max_batch_size = max_batch_size
        self.stats = stats or ServiceStats()
        predicted = scorer.predicted_us_per_doc
        self.stats.predicted_us_per_doc = predicted
        if budget_us_per_doc is not None:
            if not math.isfinite(budget_us_per_doc) or budget_us_per_doc <= 0:
                raise ValueError(
                    f"budget_us_per_doc must be finite and > 0, "
                    f"got {budget_us_per_doc}"
                )
            admit_to_budget(
                f"scorer {scorer.backend!r}",
                predicted,
                budget_us_per_doc,
                allow_unpriced=allow_unpriced,
            )
        self.budget_us_per_doc = budget_us_per_doc
        self.allow_unpriced = allow_unpriced
        self._drift = DriftSeries(scorer.backend)

    # ------------------------------------------------------------------
    def score(self, features) -> np.ndarray:
        """Score one request, micro-batched, updating the running stats.

        Beyond the per-engine :class:`ServiceStats`, every request feeds
        the process-wide per-backend drift series (predicted vs measured
        µs/doc — see :mod:`repro.obs.drift`) and, when tracing is
        enabled, opens an ``engine.score`` span.

        Zero-document requests are legal no-ops: they return an empty
        score array without touching the stats, drift series or tracer
        (:class:`ServiceStats` correctly rejects ``n_docs < 1``).
        """
        x = np.asarray(features, dtype=np.float64)
        if x.ndim == 2 and x.shape[0] == 0:
            return np.zeros(0, dtype=np.float64)
        x = check_array_2d(x, "features")
        with obs.span("engine.score", backend=self.scorer.backend) as sp:
            start = time.perf_counter()
            with pinned_scope((len(x),)):
                scores = self._score_chunked(x)
            elapsed = time.perf_counter() - start
            sp.set(docs=len(x), us=round(elapsed * 1e6, 1))
        self.stats.record(len(x), elapsed)
        self._record_drift(len(x), elapsed)
        return scores

    def score_coalesced(
        self,
        requests,
        *,
        enqueue_times=None,
        clock=time.perf_counter,
        request_contexts=None,
    ) -> list[np.ndarray]:
        """Score several requests as **one cross-request micro-batch**.

        The asyncio front-end's execution path: many concurrent users'
        small candidate lists are concatenated row-wise, pushed through
        the scorer in one go (one GEMM instead of N), and sliced back
        out per request.  For chunk-invariant scorers — ``stable=True``
        compiled plans, the fixed-tile network adapters, row-independent
        QuickScorer traversal — the slices are **bit-identical** to
        scoring each request alone.  A non-batchable but
        ``coalescable`` scorer (a cascade, which ranks within a request)
        also gets the batch in one call and splits it at the request
        boundaries the engine pins (:func:`~repro.runtime.base.
        request_rows`), again bit-identically; any other non-batchable
        scorer is called once per request.  The accounting below is
        identical either way.

        Accounting: each request's latency percentile entry is its
        **enqueue→response wall time** (``clock()`` at completion minus
        its entry in ``enqueue_times``, which must be timestamps on the
        same clock), while the drift/measured-cost series receive only
        the request's *share of kernel time* — queue wait must show up
        in p99, but it is not evidence against the calibrated kernel
        price, and admission keeps judging the priced kernel µs.
        Without ``enqueue_times`` both axes fall back to kernel time.

        Zero-document requests yield empty score arrays and touch no
        stats.  Returns one float64 score vector per request, in order.

        ``request_contexts`` (optional, one
        :class:`~repro.obs.requests.RequestContext` or ``None`` per
        request) is the request-tracing hook: the engine stamps each
        context's ``coalesce`` (executor handoff + concatenation) and
        ``kernel`` stages with ``clock``, and binds the live contexts
        into the calling thread's context
        (:func:`~repro.obs.requests.activate_batch`) for the duration
        of the kernel so deeper layers — sharded scorer, compiled plans
        — can annotate them without parameter threading.  Scores are
        unaffected.
        """
        items: list[np.ndarray] = []
        sizes: list[int] = []
        for index, features in enumerate(requests):
            x = np.asarray(features, dtype=np.float64)
            if not (x.ndim == 2 and x.shape[0] == 0):
                x = check_array_2d(x, f"requests[{index}]")
            items.append(x)
            sizes.append(len(x))
        if enqueue_times is not None and len(enqueue_times) != len(items):
            raise ReproError(
                f"got {len(enqueue_times)} enqueue times for "
                f"{len(items)} requests"
            )
        if request_contexts is not None and len(request_contexts) != len(items):
            raise ReproError(
                f"got {len(request_contexts)} request contexts for "
                f"{len(items)} requests"
            )
        total = sum(sizes)
        if total == 0:
            return [np.zeros(0, dtype=np.float64) for _ in items]
        live: list[np.ndarray] = []
        live_ctx_list: list = []
        for index, x in enumerate(items):
            if not len(x):
                continue
            live.append(x)
            live_ctx_list.append(
                request_contexts[index]
                if request_contexts is not None
                else None
            )
        live_contexts = tuple(c for c in live_ctx_list if c is not None)
        with obs.span(
            "engine.coalesced",
            backend=self.scorer.backend,
            requests=len(items),
        ) as sp:
            start = clock()
            for ctx in live_contexts:
                # Coalesce covers drain→kernel-start: the executor
                # handoff plus batch assembly, anchored to the previous
                # stage so the timeline stays gap-free.
                ctx.stage(
                    "coalesce",
                    ctx.last_stage_end(start),
                    start,
                    requests=len(items),
                )
            # One pin for the whole engine call: one model version, and
            # the request boundaries for scorers that split the batch.
            with pinned_scope([len(x) for x in live]):
                flat = self._score_live(live, live_ctx_list, live_contexts)
            end = clock()
            kernel = max(end - start, 0.0)
            sp.set(docs=total, us=round(kernel * 1e6, 1))
        out: list[np.ndarray] = []
        offset = 0
        for index, n in enumerate(sizes):
            if n == 0:
                out.append(np.zeros(0, dtype=np.float64))
                continue
            out.append(flat[offset : offset + n])
            offset += n
            kernel_share = kernel * (n / total)
            if request_contexts is not None:
                ctx = request_contexts[index]
                if ctx is not None:
                    ctx.stage(
                        "kernel",
                        start,
                        end,
                        share_us=round(kernel_share * 1e6, 3),
                        batch_docs=total,
                        backend=self.scorer.backend,
                    )
            if enqueue_times is None:
                seconds = kernel_share
            else:
                seconds = max(end - enqueue_times[index], kernel_share)
            self.stats.record(n, seconds, kernel_seconds=kernel_share)
        self._record_drift(total, kernel)
        return out

    def _record_drift(self, n_docs: int, seconds: float) -> None:
        """Feed one engine call into the per-backend drift series."""
        backend = self.scorer.backend  # a versioned scorer's may change
        if self._drift.backend != backend:
            self._drift = DriftSeries(backend)
        self._drift.record(
            n_docs=n_docs,
            seconds=seconds,
            predicted_us_per_doc=self.stats.predicted_us_per_doc,
        )

    def _score_live(self, live, live_ctx_list, live_contexts) -> np.ndarray:
        """The coalesced batch ``live`` scored as one flat vector."""
        if getattr(self.scorer, "batchable", True) or getattr(
            self.scorer, "coalescable", False
        ):
            # One stack call.  The bound contexts hold one slot per
            # request, so a coalescable scorer (a cascade) splits the
            # batch at the pinned boundaries and traces each request.
            with (
                activate_batch(live_ctx_list)
                if live_contexts
                else contextlib.nullcontext()
            ):
                stacked = live[0] if len(live) == 1 else np.concatenate(live)
                return self._score_chunked(stacked)
        # Any other non-batchable scorer gets one call per request,
        # bound to that request's own context.
        parts = []
        for x, ctx in zip(live, live_ctx_list):
            with (
                activate_batch((ctx,))
                if ctx is not None
                else contextlib.nullcontext()
            ):
                parts.append(np.asarray(self.scorer.score(x), dtype=np.float64))
        return np.concatenate(parts)

    def _score_chunked(self, x: np.ndarray) -> np.ndarray:
        return score_chunked(self.scorer, x, self.max_batch_size)

    # ------------------------------------------------------------------
    def rank(self, features) -> np.ndarray:
        """Document indices in descending score order."""
        return np.argsort(-self.score(features), kind="stable")

    def top_k(self, features, k: int) -> np.ndarray:
        """Indices of the ``k`` highest-scored documents.

        Selects the winners with ``argpartition`` (O(n)) and sorts only
        those ``k``, instead of a full argsort per request.  Ties are
        broken by ascending document index — the order ``rank``
        produces — so ``top_k(x, k)`` always equals ``rank(x)[:k]``,
        even when scores tie across the selection boundary (where
        ``argpartition`` alone picks arbitrary indices).
        """
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        scores = self.score(features)
        if k >= len(scores):
            return np.argsort(-scores, kind="stable")
        winners = np.argpartition(-scores, k - 1)[:k]
        # ``winners`` holds the right k *values* but, at the boundary
        # score, arbitrary index choices.  Rebuild the selection so the
        # boundary ties resolve to the lowest indices.
        boundary = scores[winners].min()
        above = np.flatnonzero(scores > boundary)
        ties = np.flatnonzero(scores == boundary)
        chosen = np.concatenate([above, ties[: k - len(above)]])
        return chosen[np.argsort(-scores[chosen], kind="stable")]
