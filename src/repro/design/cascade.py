"""Early-exit scoring cascades (the paper's second future-work item).

Section 7 lists *early exiting* as a planned extension: cheap models
score every candidate and only promising documents reach the expensive
scorer.  This module implements the standard top-k cascade over any mix
of the library's scorers (pruned students, dense students, QuickScorer
forests) together with its predicted cost:

    cost/doc = c_1 + keep_1 * c_2 + keep_1 * keep_2 * c_3 + ...

where ``keep_i`` is the fraction of a query's documents surviving stage
``i``.  Within a query, documents cut at stage ``i`` are ranked below
all survivors, ordered by their stage-``i`` scores — so the final
ranking is a refinement, never a shuffle.

Two execution policies, both deterministic:

* **Keep-fraction cuts** — each non-final stage promotes
  ``ceil(keep_fraction * n_alive)`` documents (an explicit ceiling, so
  cut sizes are monotone in query length and never subject to banker's
  rounding; promoting *at least* the configured share errs on the side
  of quality).
* **Per-query budgets** — with ``budget_us_per_query`` set, the cascade
  stops promoting once the *predicted* spend of running the survivors
  through the next stage would exceed the budget.  The first stage
  always runs (otherwise there is no ranking at all), so the predicted
  per-query spend is bounded by ``max(budget, n_docs * cost_1)``.

Several queries can run through the cascade together
(:meth:`EarlyExitCascade.score_queries_detailed`): each stage scores
every live query's survivors in shared calls of at most
:data:`STAGE_CALL_DOCS` documents, while cuts, band offsets and budget
exits stay per query.  Stage scorers are chunk-invariant, so every
score equals the one-query run's bits.

The declarative, JSON-round-trippable face of this module — stages named
by backend and built from a model-role mapping — is
:class:`repro.runtime.ranking.RankingPipeline`; see ``docs/cascade.md``.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.datasets.base import LtrDataset
from repro.exceptions import CascadeError

#: A scoring function over a feature matrix.
ScoreFn = Callable[[np.ndarray], np.ndarray]

#: Most documents one stage call holds.  Not a tuning option: larger
#: shared calls touch larger plan arenas and temporaries for no gain
#: (128 x 136 float64 rows is about glibc's 128 KiB mmap threshold).
STAGE_CALL_DOCS = 128


@dataclass(frozen=True)
class CascadeStage:
    """One stage: a scorer, its per-document cost, and the survivor cut.

    ``keep_fraction`` is the share of each query's documents promoted to
    the next stage (ignored on the last stage).  The cut is an explicit
    ceiling — ``ceil(keep_fraction * n_alive)`` survivors — so the same
    fraction always promotes the same count for a given query length.
    """

    name: str
    score_fn: ScoreFn
    cost_us_per_doc: float
    keep_fraction: float = 1.0

    def __post_init__(self) -> None:
        if self.cost_us_per_doc < 0:
            raise ValueError("cost_us_per_doc must be non-negative")
        if not 0.0 < self.keep_fraction <= 1.0:
            raise ValueError(
                f"keep_fraction must be in (0, 1], got {self.keep_fraction}"
            )

    @property
    def batchable(self) -> bool:
        """Whether several queries' documents may share one call.

        Read from the scorer a bound ``score_fn`` belongs to (a nested
        cascade is not batchable); plain functions are taken to be
        chunk-invariant, as the stage contract asks.
        """
        owner = getattr(self.score_fn, "__self__", None)
        return bool(getattr(owner, "batchable", True))

    def survivor_count(self, n_alive: int) -> int:
        """How many of ``n_alive`` documents this stage promotes.

        The pinned policy: ``ceil(keep_fraction * n_alive)``, clamped to
        ``[1, n_alive]``.  ``round()`` would make 0.5 of 5 docs promote
        2 (banker's rounding) while 0.5 of 6 promotes 3 — inconsistent
        cut shares across query lengths.
        """
        if n_alive <= 0:
            return 0
        return min(n_alive, max(1, math.ceil(self.keep_fraction * n_alive)))

    @classmethod
    def from_model(
        cls,
        model,
        *,
        keep_fraction: float = 1.0,
        name: str | None = None,
        cost_us_per_doc: float | None = None,
        context=None,
        backend: str | None = None,
        **opts,
    ) -> "CascadeStage":
        """Build a stage from any model the scoring runtime knows.

        The model is adapted through :func:`repro.runtime.make_scorer`,
        so its execution path and calibrated price come from one place;
        pass ``cost_us_per_doc`` to override the price (e.g. a measured
        figure).  Extra keywords reach the backend factory.
        """
        # Imported lazily: runtime's adapters import this module.
        from repro.runtime import make_scorer

        scorer = make_scorer(model, backend=backend, context=context, **opts)
        return cls(
            name=name or scorer.describe(),
            score_fn=scorer.score,
            cost_us_per_doc=(
                scorer.predicted_us_per_doc
                if cost_us_per_doc is None
                else cost_us_per_doc
            ),
            keep_fraction=keep_fraction,
        )


@dataclass(frozen=True)
class CascadeQueryResult:
    """Everything one :meth:`EarlyExitCascade.score_query_detailed` run did.

    Attributes
    ----------
    scores:
        Banded cascade scores (see :meth:`EarlyExitCascade.score_query`).
    survivors:
        One array of original document indices per *executed* stage: the
        documents that stage evaluated.  ``survivors[0]`` is every
        document; ``survivors[i+1]`` is always a subset of
        ``survivors[i]`` — the refinement invariant in data form.
    stage_spans:
        ``(start_s, end_s)`` wall-clock pair per executed stage
        (``time.perf_counter`` axis), for request-timeline attribution.
    predicted_spend_us:
        The calibrated per-query spend: ``sum(len(survivors[i]) *
        stages[i].cost_us_per_doc)`` over executed stages.
    budget_us:
        The per-query budget in force (``None`` = unbudgeted).
    exited_early:
        True when the budget stopped promotion before the configured
        last stage.
    stage_batch_docs:
        Documents of the (possibly shared) stage calls behind each
        ``stage_spans`` entry: this query's own count when it ran alone,
        every live query's survivors when it ran in a batch.
    """

    scores: np.ndarray
    survivors: tuple[np.ndarray, ...] = field(repr=False)
    stage_spans: tuple[tuple[float, float], ...] = field(repr=False)
    predicted_spend_us: float
    budget_us: float | None
    exited_early: bool
    stage_batch_docs: tuple[int, ...] = field(repr=False)

    @property
    def stages_run(self) -> int:
        """How many stages actually executed."""
        return len(self.survivors)

    @property
    def stage_docs(self) -> tuple[int, ...]:
        """Documents evaluated per executed stage."""
        return tuple(len(s) for s in self.survivors)

    @property
    def stage_us(self) -> tuple[float, ...]:
        """This query's share of each executed stage's wall time, in µs.

        A stage call shared with other queries is split in proportion to
        documents; a query that ran alone gets the whole span.
        """
        shares = []
        for (start, end), docs, total in zip(
            self.stage_spans, self.stage_docs, self.stage_batch_docs
        ):
            us = (end - start) * 1e6
            shares.append(us if docs == total else us * docs / total)
        return tuple(shares)


class EarlyExitCascade:
    """A multi-stage ranking cascade with predictable cost.

    Parameters
    ----------
    stages:
        The :class:`CascadeStage` sequence, cheapest first.
    budget_us_per_query:
        Optional per-query spending cap: before promoting survivors to
        the next stage, the cascade adds the *predicted* cost of that
        promotion (``n_survivors * next_stage.cost_us_per_doc``) to what
        it has already spent and stops — keeping the current stage's
        ranking — if the total would exceed the budget.  The first stage
        is exempt (a query must be ranked by something).
    """

    def __init__(
        self,
        stages: Sequence[CascadeStage],
        *,
        budget_us_per_query: float | None = None,
    ) -> None:
        if not stages:
            raise ValueError("a cascade needs at least one stage")
        if budget_us_per_query is not None and not (
            math.isfinite(budget_us_per_query) and budget_us_per_query > 0
        ):
            raise ValueError(
                f"budget_us_per_query must be finite and > 0, "
                f"got {budget_us_per_query}"
            )
        self.stages = list(stages)
        self.budget_us_per_query = budget_us_per_query

    # ------------------------------------------------------------------
    def expected_cost_us_per_doc(self) -> float:
        """Predicted amortized per-document cost of the full cascade.

        The closed form ``c_1 + keep_1*c_2 + keep_1*keep_2*c_3 + ...``
        over the *configured* keep fractions; a per-query budget can
        only lower the realized spend below this (it stops promotions,
        never adds them), so this stays the admission-safe upper bound
        the serving layer prices with.
        """
        cost = 0.0
        alive = 1.0
        for i, stage in enumerate(self.stages):
            cost += alive * stage.cost_us_per_doc
            if i < len(self.stages) - 1:
                alive *= stage.keep_fraction
        return cost

    def predicted_query_spend_us(self, n_docs: int) -> float:
        """Closed-form predicted spend for one ``n_docs``-document query.

        Replays the integer ceil-cut and budget-exit policy without
        scoring anything, so it matches what
        :meth:`score_query_detailed` will report as
        ``predicted_spend_us`` for any query of this length.  Bounded by
        ``max(budget, n_docs * cost_1)`` when a budget is set.
        """
        if n_docs <= 0:
            return 0.0
        alive = int(n_docs)
        spend = 0.0
        for level, stage in enumerate(self.stages):
            spend += alive * stage.cost_us_per_doc
            if level == len(self.stages) - 1:
                break
            n_keep = stage.survivor_count(alive)
            if self._budget_stops_promotion(spend, n_keep, level):
                break
            alive = n_keep
        return spend

    def _budget_stops_promotion(
        self, spent_us: float, n_keep: int, level: int
    ) -> bool:
        """Whether promoting ``n_keep`` docs past ``level`` blows the budget."""
        if self.budget_us_per_query is None:
            return False
        next_cost = n_keep * self.stages[level + 1].cost_us_per_doc
        return spent_us + next_cost > self.budget_us_per_query

    # ------------------------------------------------------------------
    def score_query(self, features: np.ndarray) -> np.ndarray:
        """Cascade scores for one query's documents.

        Returns values whose descending order is the cascade's ranking:
        stage-``i`` dropouts are ranked below every later-stage survivor
        (by offsetting each stage's scores into its own band).  A
        zero-document query is a no-op returning an empty float64 array
        — the same contract as
        :meth:`~repro.runtime.batching.BatchEngine.score`.
        """
        return self.score_query_detailed(features).scores

    def score_query_detailed(self, features: np.ndarray) -> CascadeQueryResult:
        """Score one query and report per-stage execution detail.

        Beyond the banded scores this returns the per-stage survivor
        sets, wall-clock spans, the predicted spend and whether the
        per-query budget forced an early exit — the raw material of the
        ``cascade.*`` observability series and request timelines.  The
        one-query case of :meth:`score_queries_detailed`.
        """
        features = np.asarray(features, dtype=np.float64)
        return self.score_queries_detailed(features, (len(features),))[1][0]

    def score_queries_detailed(
        self, features: np.ndarray, rows
    ) -> tuple[np.ndarray, list[CascadeQueryResult]]:
        """Score consecutive queries together.

        ``features`` holds the queries' documents back to back and
        ``rows`` each query's document count.  Each stage runs once per
        level over every live query's survivors, in calls of at most
        :data:`STAGE_CALL_DOCS` documents: the first stage reads views
        of ``features``, later stages one gather of the survivors.  A
        stage that is not batchable (a nested cascade) is called once
        per query instead.  Ceil cuts, band offsets and budget exits
        stay per query, so each result — scores, survivors, predicted
        spend, early exit — equals :meth:`score_query_detailed` on that
        query alone; only the wall-clock spans are shared.

        Returns the banded scores of every row, and one result per
        query whose ``scores`` is a view of them.
        """
        features = np.asarray(features, dtype=np.float64)
        rows = [int(n) for n in rows]
        if any(n < 0 for n in rows) or sum(rows) != len(features):
            raise ValueError(
                f"query row counts {rows} do not tile {len(features)} "
                "documents"
            )
        out = np.zeros(len(features), dtype=np.float64)
        starts = [0] * len(rows)
        for q in range(1, len(rows)):
            starts[q] = starts[q - 1] + rows[q - 1]
        # The live queries (ascending), their survivor counts, and the
        # survivors as global row indices into ``features``, query by
        # query: every stage's scores are laid out in this order.
        live = [q for q, n in enumerate(rows) if n]
        lens = [rows[q] for q in live]
        idx = np.arange(len(features))
        survivors: list[list[np.ndarray]] = [[] for _ in rows]
        spans: list[list[tuple[float, float]]] = [[] for _ in rows]
        batch_docs: list[list[int]] = [[] for _ in rows]
        spend = [0.0] * len(rows)
        exited = [False] * len(rows)
        last = len(self.stages) - 1
        for level, stage in enumerate(self.stages):
            if not live:
                break
            first = [0] * len(live)
            for j in range(1, len(live)):
                first[j] = first[j - 1] + lens[j - 1]
            if stage.batchable:
                block = features if level == 0 else features[idx]
                start_s = time.perf_counter()
                scores = self._run_stage(stage, level, block)
                call_spans = [(start_s, time.perf_counter())] * len(live)
                call_docs = [len(block)] * len(live)
            else:
                parts, call_spans = [], []
                for a, n in zip(first, lens):
                    start_s = time.perf_counter()
                    parts.append(
                        self._checked_call(stage, level, features[idx[a : a + n]])
                    )
                    call_spans.append((start_s, time.perf_counter()))
                scores = np.concatenate(parts)
                call_docs = lens
            # Normalize each query's stage scores into (0, 1) and add the
            # band offset, so survivors of later stages always outrank
            # dropouts: by segment reductions over the queries, or (a
            # lone query, where they only cost more numpy calls) by
            # plain ones.  Same operations, same bits.
            if len(live) == 1:
                lo = scores.min()
                width = (scores.max() - lo) or 1.0
                out[idx] = level + (scores - lo) / width * 0.999
            else:
                # Each score's query, as its position in ``live``.
                seg = np.repeat(np.arange(len(live)), lens)
                lo = np.minimum.reduceat(scores, first)
                width = np.maximum.reduceat(scores, first) - lo
                width[width == 0.0] = 1.0
                out[idx] = level + (scores - lo[seg]) / width[seg] * 0.999
            n_keep = []
            for q, a, n, span, docs in zip(live, first, lens, call_spans, call_docs):
                survivors[q].append(idx[a : a + n] - starts[q])
                spans[q].append(span)
                batch_docs[q].append(docs)
                spend[q] += n * stage.cost_us_per_doc
                keep = 0
                if level < last:
                    keep = stage.survivor_count(n)
                    if self._budget_stops_promotion(spend[q], keep, level):
                        exited[q] = True
                        keep = 0
                n_keep.append(keep)
            if level == last:
                break
            # Each query's top ``n_keep`` by score, ties in row order: a
            # stable sort of a lone query, or one stable sort by
            # (query, -score) that leaves each query's leaders at the
            # front of its segment.
            if len(live) == 1:
                idx = idx[np.argsort(-scores, kind="stable")[: n_keep[0]]]
            else:
                order = np.lexsort((-scores, seg))
                rank = np.arange(len(scores)) - np.repeat(first, lens)
                idx = idx[order[rank < np.repeat(n_keep, lens)]]
            live = [q for q, keep in zip(live, n_keep) if keep]
            lens = [keep for keep in n_keep if keep]
        results = []
        for q, n in enumerate(rows):
            results.append(
                CascadeQueryResult(
                    scores=out[starts[q] : starts[q] + n],
                    survivors=tuple(survivors[q]),
                    stage_spans=tuple(spans[q]),
                    predicted_spend_us=spend[q],
                    budget_us=self.budget_us_per_query,
                    exited_early=exited[q],
                    stage_batch_docs=tuple(batch_docs[q]),
                )
            )
        return out, results

    def _run_stage(
        self, stage: CascadeStage, level: int, block: np.ndarray
    ) -> np.ndarray:
        """``stage`` over ``block`` in calls of at most
        :data:`STAGE_CALL_DOCS` documents."""
        n = len(block)
        if n <= STAGE_CALL_DOCS:
            return self._checked_call(stage, level, block)
        scores = np.empty(n, dtype=np.float64)
        for lo in range(0, n, STAGE_CALL_DOCS):
            part = block[lo : lo + STAGE_CALL_DOCS]
            scores[lo : lo + len(part)] = self._checked_call(stage, level, part)
        return scores

    @staticmethod
    def _checked_call(
        stage: CascadeStage, level: int, x: np.ndarray
    ) -> np.ndarray:
        """One stage call, its output checked for shape and finiteness."""
        scores = np.asarray(stage.score_fn(x), dtype=np.float64)
        if scores.shape != (len(x),):
            raise ValueError(
                f"stage {stage.name!r} returned shape {scores.shape}, "
                f"expected ({len(x)},)"
            )
        if not np.isfinite(scores).all():
            bad = scores[~np.isfinite(scores)]
            raise CascadeError(
                f"stage {stage.name!r} (level {level}) emitted "
                f"{int(np.isnan(bad).sum())} NaN and "
                f"{int(np.isinf(bad).sum())} infinite scores over "
                f"{len(x)} documents; cascade band offsets require "
                "finite stage scores ('refinement, never a shuffle')"
            )
        return scores

    def score_dataset(self, dataset: LtrDataset) -> np.ndarray:
        """Cascade scores for every query of a dataset.

        Empty query slices (``query_slice`` yielding zero rows) are
        no-ops, matching :meth:`score_query`'s zero-document contract.
        """
        out = np.empty(dataset.n_docs, dtype=np.float64)
        for qi in range(dataset.n_queries):
            sl = dataset.query_slice(qi)
            out[sl] = self.score_query(dataset.features[sl])
        return out

    def describe(self) -> str:
        parts = []
        for i, stage in enumerate(self.stages):
            keep = (
                f" -> keep {stage.keep_fraction:.0%}"
                if i < len(self.stages) - 1
                else ""
            )
            parts.append(f"{stage.name} ({stage.cost_us_per_doc:.2f} us){keep}")
        text = " | ".join(parts)
        if self.budget_us_per_query is not None:
            text += f" [budget {self.budget_us_per_query:.0f} us/query]"
        return text
