"""A miniature two-stage ranking service on the unified runtime.

Shows how a downstream system would actually deploy the paper's models:
a cheap first-stage pruned network filters each query's pool and the
LambdaMART forest (via QuickScorer) re-ranks the survivors.  The two
stages are assembled into an :class:`EarlyExitCascade` whose stages are
built straight from the models with ``CascadeStage.from_model`` — their
execution paths *and* calibrated prices both come from the scoring
runtime — and the cascade is served through :class:`ScoringService`,
which enforces a latency budget and records p50/p95/p99 per-request
latency.

Run:  python examples/scoring_service.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    DistillationConfig,
    Distiller,
    EarlyExitCascade,
    FirstLayerPruner,
    FirstLayerPruningConfig,
    GradientBoostingConfig,
    LambdaMartRanker,
    ScoringService,
    make_msn30k_like,
    mean_ndcg,
    train_validation_test_split,
)
from repro.design.cascade import CascadeStage
from repro.runtime import price


def main() -> None:
    data = make_msn30k_like(n_queries=220, docs_per_query=30, seed=3)
    train, vali, test = train_validation_test_split(data, seed=3)

    print("Training the second-stage forest ...")
    forest = LambdaMartRanker(
        GradientBoostingConfig(
            n_trees=50, max_leaves=64, learning_rate=0.12, min_data_in_leaf=5
        ),
        seed=0,
    ).fit(train, vali)

    print("Distilling + pruning the first-stage network (100x50x50x25) ...")
    student = Distiller(
        DistillationConfig(epochs=20, learning_rate=0.003, lr_milestones=(15,)),
        seed=0,
    ).distill(forest, train, hidden=(100, 50, 50, 25))
    pruned = FirstLayerPruner(
        FirstLayerPruningConfig(
            sensitivity=2.0, epochs_prune=8, epochs_finetune=4, lr_milestones=(),
        ),
        seed=0,
    ).prune(student, forest, train)

    print("\nPricing the stages through the runtime ...")
    stage1_us = price(pruned)
    stage2_us = price(forest)
    print(f"  stage 1 (pruned net): {stage1_us:.2f} us/doc over the full pool")
    print(f"  stage 2 (QuickScorer): {stage2_us:.2f} us/doc over the top pool")

    cascade = EarlyExitCascade(
        [
            CascadeStage.from_model(
                pruned, keep_fraction=0.34,
                name="pruned net",
            ),
            CascadeStage.from_model(forest, name="quickscorer forest"),
        ]
    )
    print(f"  cascade: {cascade.describe()}")
    print(f"  expected amortized cost: {cascade.expected_cost_us_per_doc():.2f} us/doc")

    # One endpoint over the whole cascade, with a budget: construction
    # would raise BudgetExceededError if the amortized price blew it.
    service = ScoringService(cascade, budget_us_per_doc=2 * stage2_us)

    print("\nServing the test queries through the two-stage service ...")
    two_stage_scores = np.empty(test.n_docs)
    for qi in range(test.n_queries):
        sl = test.query_slice(qi)
        two_stage_scores[sl] = service.score(test.features[sl])

    full_forest_scores = forest.predict(test.features)
    stage1_only_scores = pruned.predict(test.features)
    print(f"  NDCG@10 forest everywhere : {mean_ndcg(test, full_forest_scores, 10):.4f}")
    print(f"  NDCG@10 pruned net only   : {mean_ndcg(test, stage1_only_scores, 10):.4f}")
    print(f"  NDCG@10 two-stage service : {mean_ndcg(test, two_stage_scores, 10):.4f}")

    stats = service.stats
    lat = stats.latency_summary()
    print(
        f"\nServed {stats.requests} requests / {stats.documents} docs; "
        f"request latency p50 {lat['p50_us']:.0f} us, "
        f"p95 {lat['p95_us']:.0f} us, p99 {lat['p99_us']:.0f} us."
    )
    print(
        f"Amortized model cost {stats.predicted_us_per_doc:.2f} us/doc vs "
        f"{stage2_us:.2f} us/doc for the forest alone — the pruned net "
        "absorbs most of the volume."
    )


if __name__ == "__main__":
    main()
