"""Budgeted ranking pipelines — NDCG@10 vs measured µs/query Pareto.

The paper's deployment question, asked per **query** rather than per
document: given the trained zoo, does a staged pipeline (cheap pruned
student filters, expensive compiled student reranks the survivors) beat
serving the big compiled student alone?  Each system scores the whole
test set query by query and reports best-of-``REPEATS`` wall µs/query
next to its NDCG@10; :func:`~repro.utils.pareto.pareto_frontier` marks
the frontier.

Two scenario baselines, mirroring Tables 10/11:

* **high-quality** — the compiled dense student at the scenario's
  flagship architecture (300x200x100);
* **low-latency** — the compiled pruned student at the smallest Table 11
  architecture (50x25x25x10).

Shape to hold (asserted): at least one cascade is on the frontier and
beats the high-quality baseline on *both* axes — lower measured
µs/query at equal-or-better NDCG@10 — because the expensive model's
microseconds are spent only on documents a cheap model already likes.
A budget-capped variant additionally shows predicted-spend early exits
without leaving the frontier neighbourhood.

All pipelines are built from JSON-round-tripped
:class:`~repro.runtime.ranking.PipelineConfig` objects — the config is
the deployable artifact — and served through
:class:`~repro.serving.ScoringService`.
"""

from __future__ import annotations

import json
import time

import numpy as np

from benchmarks._common import emit
from repro import obs
from repro.metrics import mean_ndcg
from repro.runtime import (
    PipelineConfig,
    ServiceConfig,
    build_pipeline,
    make_scorer,
)
from repro.serving import ScoringService
from repro.utils.pareto import pareto_frontier

REPEATS = 3

#: Scenario architectures (paper Table 10 / Table 11 names).
HQ_BIG = 0  # zoo.high_quality[0]  -> 300x200x100
HQ_SMALL = 2  # zoo.high_quality[2] -> 200x50x50x25
LL_SMALL = 2  # zoo.low_latency[2]  -> 50x25x25x10


def _measure(score_query, dataset, queries):
    """Best-of-REPEATS mean wall µs/query plus test-set NDCG@10."""
    best, parts = float("inf"), []
    for _ in range(REPEATS):
        start = time.perf_counter()
        parts = [score_query(x) for x in queries]
        best = min(best, time.perf_counter() - start)
    scores = np.concatenate([np.asarray(p, dtype=np.float64) for p in parts])
    return best * 1e6 / len(queries), mean_ndcg(dataset, scores, 10)


def _pipeline_service(models, stages, *, context, budget=None, name):
    """A ScoringService over a JSON-round-tripped PipelineConfig."""
    config = PipelineConfig(stages=stages, budget_us_per_query=budget)
    config = PipelineConfig.from_dict(json.loads(json.dumps(config.to_dict())))
    pipeline = build_pipeline(models, config, context=context, name=name)
    return ScoringService(
        pipeline, ServiceConfig(pipeline=config, max_batch_size=None)
    )


def _spend_without_last(pipeline, n_docs: int) -> float:
    """Predicted spend of every stage but the last at ``n_docs`` docs."""
    alive = n_docs
    spend = 0.0
    for stage in pipeline.stages[:-1]:
        spend += alive * stage.cost_us_per_doc
        alive = stage.survivor_count(alive)
    return spend


def test_bench_cascade(msn_pipeline, benchmark):
    zoo = msn_pipeline.zoo
    test = msn_pipeline.test
    context = msn_pipeline.pricing

    hq_big = zoo.high_quality[HQ_BIG]
    hq_small = zoo.high_quality[HQ_SMALL]
    ll_small = zoo.low_latency[LL_SMALL]

    models = {
        "student": msn_pipeline.student(hq_big),
        "pruned": msn_pipeline.pruned_student(hq_small),
        "tiny": msn_pipeline.pruned_student(ll_small),
    }
    queries = [
        test.features[test.query_slice(q)] for q in range(test.n_queries)
    ]
    n_docs = int(round(test.n_docs / test.n_queries))

    # Single-stage scenario baselines, compiled like the cascade stages.
    baselines = {
        "hq": make_scorer(
            models["student"], backend="compiled-network", context=context
        ),
        "ll": make_scorer(
            models["tiny"], backend="compiled-network", context=context
        ),
    }
    compiled = {"backend": "compiled-network"}
    two_stage = [
        {"model": "pruned", **compiled, "keep_fraction": 0.5,
         "name": f"pruned {hq_small.name}"},
        {"model": "student", **compiled, "name": f"student {hq_big.name}"},
    ]
    three_stage = [
        {"model": "tiny", **compiled, "keep_fraction": 0.4,
         "name": f"pruned {ll_small.name}"},
        {"model": "pruned", **compiled, "keep_fraction": 0.5,
         "name": f"pruned {hq_small.name}"},
        {"model": "student", **compiled, "name": f"student {hq_big.name}"},
    ]
    ll_stage = [
        {"model": "tiny", **compiled, "keep_fraction": 0.5,
         "name": f"pruned {ll_small.name}"},
        {"model": "pruned", **compiled, "name": f"pruned {hq_small.name}"},
    ]
    services = {
        "cascade: pruned->student": _pipeline_service(
            models, two_stage, context=context, name="hq-2stage"
        ),
        "cascade: tiny->pruned->student": _pipeline_service(
            models, three_stage, context=context, name="hq-3stage"
        ),
        "cascade: tiny->pruned (ll)": _pipeline_service(
            models, ll_stage, context=context, name="ll-2stage"
        ),
    }
    # The budget is set between the 3-stage pipeline's stage-2 and
    # stage-3 predicted spends at the mean query length, so typical
    # queries exit before the expensive student while the spend stays
    # admission-predictable.
    unbudgeted = services["cascade: tiny->pruned->student"].pipeline
    spend_all = unbudgeted.predicted_query_spend_us(n_docs)
    spend_two = _spend_without_last(unbudgeted, n_docs)
    budget = (spend_two + spend_all) / 2.0
    services["cascade: budgeted tiny->pruned->student"] = _pipeline_service(
        models, three_stage, context=context,
        budget=round(budget, 3), name="hq-budgeted"
    )

    rows, named = [], {}
    for label, scorer in (
        (f"compiled student {hq_big.name} (hq baseline)", baselines["hq"]),
        (f"compiled pruned {ll_small.name} (ll baseline)", baselines["ll"]),
    ):
        us, ndcg = _measure(scorer.score, test, queries)
        named[label] = (us, ndcg)
        rows.append((label, round(ndcg, 4), round(us, 1),
                     round(scorer.predicted_us_per_doc, 3), ""))
    for label, service in services.items():
        us, ndcg = _measure(service.score, test, queries)
        named[label] = (us, ndcg)
        pipeline = service.pipeline
        rows.append(
            (label, round(ndcg, 4), round(us, 1),
             round(pipeline.expected_cost_us_per_doc(), 3),
             f"budget {pipeline.budget_us_per_query:g} us"
             if pipeline.budget_us_per_query else "")
        )

    frontier = set(
        pareto_frontier(
            [ndcg for _, ndcg, *_ in rows], [us for _, _, us, *_ in rows]
        ).tolist()
    )
    rows = [
        (label, ndcg, us, pred, ("pareto " + note).strip() if i in frontier else note)
        for i, (label, ndcg, us, pred, note) in enumerate(rows)
    ]

    report = obs.cascade_report()
    hq_us, hq_ndcg = named[f"compiled student {hq_big.name} (hq baseline)"]
    winners = [
        label
        for label, (us, ndcg) in named.items()
        if label.startswith("cascade") and us < hq_us and ndcg >= hq_ndcg
    ]
    emit(
        "BENCH_cascade",
        ["System", "NDCG@10", "us/query (measured)", "pred us/doc", "notes"],
        rows,
        title=(
            "Budgeted ranking pipelines: NDCG@10 vs measured us/query "
            f"(MSN30K-like, {test.n_queries} test queries, ~{n_docs} "
            "docs/query, best of "
            f"{REPEATS})"
        ),
        notes=(
            "Shape to hold: >=1 cascade beats the single-stage compiled "
            f"student on both axes (winners: {', '.join(winners) or 'NONE'}). "
            "Cascade µs/query are end-to-end through ScoringService — "
            "stage dispatch overhead included.  "
            f"Funnel:\n{report.render()}"
        ),
        extra={
            "pipelines": {
                s.pipeline.name: s.pipeline.config.to_dict()
                for s in services.values()
            },
            "winners": winners,
        },
    )

    # Acceptance: a cascade on the Pareto frontier beats the compiled
    # student baseline on both axes.
    assert winners, (
        f"no cascade beat the hq baseline ({hq_us:.0f} us, {hq_ndcg:.4f})"
    )
    winner_idx = [i for i, row in enumerate(rows) if row[0] in winners]
    assert any(i in frontier for i in winner_idx)
    # The budget variant must have actually exited early somewhere, and
    # never beyond its predicted-spend bound.
    budgeted = services["cascade: budgeted tiny->pruned->student"].pipeline
    budget_row = report.tables["pipelines"].row("hq-budgeted")
    assert budget_row is not None and budget_row["early_exits"] > 0
    first_cost = budgeted.stages[0].cost_us_per_doc
    for x in queries:
        spend = budgeted.predicted_query_spend_us(len(x))
        assert spend <= max(budgeted.budget_us_per_query,
                            len(x) * first_cost) + 1e-9

    query = queries[0]
    pipeline = services["cascade: tiny->pruned->student"].pipeline
    benchmark(lambda: pipeline.score_query(query))
