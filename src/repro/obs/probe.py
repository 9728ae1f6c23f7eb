"""A tiny three-model scoring workload that exercises the whole layer.

:func:`run_probe` builds miniature models of the paper's three serving
families — a LambdaMART forest behind QuickScorer, a dense student and a
first-layer-pruned student, both served through compiled plans — routes
a stream of per-query requests through
:class:`~repro.serving.ScoringService`, and returns the services so
callers can inspect stats, drift and spans.  Models are keyed by role:
``forest``, ``student`` and ``pruned``.  It backs the ``repro stats``
subcommand, and :func:`build_probe_models` the gate tests' shared
fixtures (``tests/gates``): small enough to run in seconds, real
enough to touch pricing, batching, tracing and the drift gauges end
to end.

Heavyweight imports stay inside the functions: ``repro.obs`` is imported
*by* the runtime/serving layers, so this module must not drag them in at
package-import time.
"""

from __future__ import annotations

from typing import Any


def build_probe_models(
    *, n_queries: int = 24, docs_per_query: int = 16, seed: int = 0
) -> dict[str, Any]:
    """A tiny dataset plus one model per role (``forest``, ``student``,
    ``pruned``).

    The students are randomly initialised (drift audits scoring *cost*,
    which is architecture-determined, not quality); the forest is a real
    few-round LambdaMART fit so QuickScorer traverses genuine trees.
    """
    from repro.datasets.normalization import ZNormalizer
    from repro.datasets.synthetic import make_msn30k_like
    from repro.distill.student import DistilledStudent
    from repro.forest.gbdt import GradientBoostingConfig
    from repro.forest.lambdamart import LambdaMartRanker
    from repro.nn.network import FeedForwardNetwork
    from repro.pruning.magnitude import LevelPruner

    dataset = make_msn30k_like(
        n_queries=n_queries, docs_per_query=docs_per_query, seed=seed
    )
    forest = LambdaMartRanker(
        GradientBoostingConfig(n_trees=8, max_leaves=16), seed=seed
    ).fit(dataset, name="probe-forest")

    normalizer = ZNormalizer().fit(dataset.features)
    dense = DistilledStudent(
        FeedForwardNetwork(dataset.n_features, (32, 16), seed=seed),
        normalizer,
        teacher_description="probe (untrained)",
    )
    sparse = dense.clone()
    LevelPruner(0.95).apply(sparse.network.first_layer)
    return {
        "dataset": dataset,
        "forest": forest,
        "student": dense,
        "pruned": sparse,
    }


def run_probe(
    *,
    n_queries: int = 24,
    docs_per_query: int = 16,
    seed: int = 0,
    max_batch_size: int | None = 64,
) -> dict[str, Any]:
    """Score every query with every model; returns the services.

    The result maps each role to its :class:`ScoringService`, plus
    ``"dataset"`` to the generated collection.
    """
    from repro import obs
    from repro.serving import ScoringService

    models = build_probe_models(
        n_queries=n_queries, docs_per_query=docs_per_query, seed=seed
    )
    dataset = models["dataset"]
    services: dict[str, Any] = {"dataset": dataset}
    for role in ("forest", "student", "pruned"):
        with obs.span("probe.serve", role=role):
            service = ScoringService(
                models[role], max_batch_size=max_batch_size
            )
            for start, stop in zip(
                dataset.query_ptr[:-1], dataset.query_ptr[1:]
            ):
                service.score(dataset.features[start:stop])
        services[role] = service
    return services
