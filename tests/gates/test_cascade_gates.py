"""Cascade gates: budgeted ranking pipelines are deterministic
refinements that respect their budgets, end to end.

1. Determinism — scoring twice, and through a pipeline rebuilt from the
   same JSON-round-tripped config, reproduces every bit.
2. Refinement — every document cut at stage ``i`` ranks strictly below
   every document the next stage evaluated, and survivor sets nest.
3. Budget — each query's predicted spend equals the closed-form replay
   and stays within ``max(budget, n_docs * cost_1)``; a tight budget
   triggers early exits.
4. Zero-doc — an empty query is a no-op, alone and in a dataset sweep.
5. Observability — the ``cascade.*`` series record the traffic,
   early exits included, and the funnel report renders.
6. Coalescing — behind ``AsyncScoringService``, concurrent queries
   share engine calls and still get the sequential bits.
"""

from __future__ import annotations

import asyncio

import numpy as np

from repro import obs
from repro.runtime import AsyncConfig
from repro.serving import AsyncScoringService

TIGHT_BUDGET_US = 2.0


def test_determinism(cascade_service, probe_queries):
    service = cascade_service()
    first = [service.score(x) for x in probe_queries]
    second = [service.score(x) for x in probe_queries]
    rebuilt = cascade_service()
    third = [rebuilt.score(x) for x in probe_queries]
    for q, (a, b, c) in enumerate(zip(first, second, third)):
        np.testing.assert_array_equal(a, b, err_msg=f"query {q}: repeat")
        np.testing.assert_array_equal(a, c, err_msg=f"query {q}: rebuilt")


def test_refinement(cascade_service, probe_queries):
    pipeline = cascade_service().pipeline
    cuts = 0
    for q, x in enumerate(probe_queries):
        result = pipeline.score_query_detailed(x)
        for level in range(result.stages_run - 1):
            upper = set(result.survivors[level + 1].tolist())
            below = set(result.survivors[level].tolist())
            assert upper <= below, (q, level)
            dropped = sorted(below - upper)
            if not dropped:
                continue
            floor = result.scores[sorted(upper)].min()
            assert result.scores[dropped].max() < floor, (q, level)
            cuts += 1
    assert cuts > 0, "no survivor cuts were exercised"


def test_budget(cascade_service, probe_queries):
    pipeline = cascade_service(TIGHT_BUDGET_US).pipeline
    first_cost = pipeline.stages[0].cost_us_per_doc
    exits = 0
    for q, x in enumerate(probe_queries):
        result = pipeline.score_query_detailed(x)
        bound = max(TIGHT_BUDGET_US, len(x) * first_cost)
        assert result.predicted_spend_us <= bound + 1e-9, q
        assert abs(
            result.predicted_spend_us
            - pipeline.predicted_query_spend_us(len(x))
        ) < 1e-9, q
        exits += result.exited_early
    assert exits > 0, f"a {TIGHT_BUDGET_US} us/query budget never exited"
    unbudgeted = cascade_service().pipeline
    full = unbudgeted.score_query_detailed(probe_queries[0])
    assert full.stages_run == len(unbudgeted.stages)
    assert not full.exited_early


class _DatasetWithEmptyQuery:
    """Duck-typed dataset with an empty middle query slice."""

    def __init__(self, features: np.ndarray) -> None:
        self.features = features
        self.n_docs = len(features)
        self.n_queries = 3
        half = self.n_docs // 2
        self._slices = [
            slice(0, half), slice(half, half), slice(half, self.n_docs)
        ]

    def query_slice(self, qi: int) -> slice:
        return self._slices[qi]


def test_zero_doc(cascade_service, probe_models):
    service = cascade_service()
    features = probe_models["dataset"].features
    empty = service.pipeline.score_query(np.zeros((0, features.shape[1])))
    assert empty.shape == (0,) and empty.dtype == np.float64
    assert service.score(np.zeros((0, features.shape[1]))).shape == (0,)
    scores = service.pipeline.score_dataset(
        _DatasetWithEmptyQuery(features[:30])
    )
    assert scores.shape == (30,) and np.isfinite(scores).all()


def test_observability(cascade_service, probe_queries, obs_clean):
    service = cascade_service(TIGHT_BUDGET_US)
    for x in probe_queries:
        service.score(x)
    report = obs.cascade_report()
    funnel = [row for row in report.rows if row["pipeline"] == "pipeline"]
    assert funnel and funnel[0]["queries"] == len(probe_queries)
    assert funnel[0]["docs_per_query"] >= funnel[-1]["docs_per_query"]
    assert report.tables["pipelines"].row("pipeline")["early_exits"] > 0
    rendered = report.render()
    assert "Cascade funnel" in rendered and "pruned" in rendered


def test_coalesced_front_end_returns_sequential_bits(
    cascade_service, probe_queries
):
    service = cascade_service(TIGHT_BUDGET_US)
    expected = [service.score(x) for x in probe_queries]
    requests = probe_queries * 3

    async def run():
        async with AsyncScoringService(
            service, frontend=AsyncConfig(max_wait_us=2000.0)
        ) as front:
            scores = await asyncio.gather(*(front.score(x) for x in requests))
            return scores, front.summary()

    got, summary = asyncio.run(run())
    for q, scores in enumerate(got):
        np.testing.assert_array_equal(
            scores, expected[q % len(expected)], err_msg=f"request {q}"
        )
    assert summary["requests_per_batch"] > 1
