"""Ablation — early-exit cascades (the paper's future work).

Combines a pruned low-latency student (stage 1) with the Mid forest
(stage 2) into an early-exit cascade and compares cost/quality against
each component alone.  Expected shape: the cascade's amortized cost sits
well below the forest's while retaining most of its quality.
"""

from __future__ import annotations

from benchmarks._common import emit
from repro.design import CascadeStage, EarlyExitCascade
from repro.metrics import mean_ndcg


def test_ablation_cascade(msn_pipeline, benchmark):
    zoo = msn_pipeline.zoo
    test = msn_pipeline.test

    forest_eval = msn_pipeline.evaluate_forest(zoo.mid_forest)
    net_spec = zoo.low_latency[0]
    net_eval = msn_pipeline.evaluate_network(net_spec, pruned=True)
    student = msn_pipeline.pruned_student(net_spec)
    forest = msn_pipeline.forest(zoo.mid_forest)

    # Stages built straight from the models: execution paths come
    # from the runtime's scorers, the amortized prices stay pinned to
    # the paper-named evaluation figures.
    cascade = EarlyExitCascade(
        [
            CascadeStage.from_model(
                student,
                name="pruned " + net_spec.describe(),
                cost_us_per_doc=net_eval.time_us,
                keep_fraction=0.3,
            ),
            CascadeStage.from_model(
                forest, name="mid forest", cost_us_per_doc=forest_eval.time_us
            ),
        ]
    )
    cascade_scores = cascade.score_dataset(test)
    cascade_ndcg = mean_ndcg(test, cascade_scores, 10)
    cascade_cost = cascade.expected_cost_us_per_doc()

    rows = [
        ("mid forest alone", round(forest_eval.ndcg10, 4), round(forest_eval.time_us, 2)),
        ("pruned net alone", round(net_eval.ndcg10, 4), round(net_eval.time_us, 2)),
        ("early-exit cascade", round(cascade_ndcg, 4), round(cascade_cost, 2)),
    ]
    emit(
        "ablation_cascade",
        ["System", "NDCG@10", "us/doc"],
        rows,
        title="Ablation: early-exit cascade (net stage 1, forest stage 2)",
        notes=(
            f"Cascade: {cascade.describe()}.  Shape to hold: cascade cost "
            "well below the forest's; quality between the two components."
        ),
    )

    assert cascade_cost < forest_eval.time_us
    assert cascade_ndcg >= net_eval.ndcg10 - 0.05

    query = test.features[test.query_slice(0)]
    benchmark(lambda: cascade.score_query(query))
