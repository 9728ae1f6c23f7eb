"""Sharded parallel scoring with a score cache — bit-identical, faster.

The library's defining runtime property is that *how* a request is
executed never changes *what* it scores: micro-batching, fallback tiers
and now row sharding all reproduce plain ``Scorer.score`` bit for bit.
This example demonstrates the parallel engine end to end:

1. **Shard planning** — the three deterministic strategies (``even``,
   ``size-capped``, ``cost-weighted``) over the same request, including
   the cost-weighted planner sizing shards from the paper's calibrated
   µs/doc price.
2. **Bit-identity** — a sharded, cached service reproduces the
   unsharded scores exactly, cold and warm.
3. **The score cache** — repeated documents (hot queries, shared
   candidates) short-circuit to previously computed bits; the warm pass
   is measurably faster and the hit ratio shows up in the
   ``parallel.*`` metrics.

Run:  python examples/parallel_scoring.py
"""

from __future__ import annotations

import time

import numpy as np

from repro import ParallelConfig, ScoringService, ServiceConfig, obs
from repro.obs.probe import build_probe_models
from repro.runtime import ShardPlan, make_scorer, plan_shards

SEED = 7


def shard_planning() -> None:
    print("=" * 72)
    print("1. Deterministic shard planning")
    print("=" * 72)
    n_rows = 1000
    even = ShardPlan.even(n_rows, 4)
    capped = ShardPlan.size_capped(n_rows, 192)
    weighted = ShardPlan.cost_weighted(
        n_rows, us_per_doc=2.5, target_shard_us=500.0
    )
    for plan in (even, capped, weighted):
        print(f"  {plan.describe()}")
        print(f"    spans: {plan.spans[:3]}{' ...' if plan.n_shards > 3 else ''}")
    # Same inputs, same plan — reassembly order is never load-dependent.
    assert ShardPlan.even(n_rows, 4) == even


def sharded_service() -> None:
    print()
    print("=" * 72)
    print("2. A sharded, cached service is bit-identical to a plain one")
    print("=" * 72)
    models = build_probe_models(n_queries=12, docs_per_query=40, seed=SEED)
    dataset = models["dataset"]
    student = models["student"]

    plain = ScoringService(student, ServiceConfig())
    sharded = ScoringService(
        student,
        ServiceConfig(
            parallel=ParallelConfig(
                workers=2,
                strategy="size-capped",
                max_shard_rows=64,
                cache_entries=8192,
            ),
        ),
    )

    requests = [
        dataset.features[start:stop]
        for start, stop in zip(dataset.query_ptr[:-1], dataset.query_ptr[1:])
    ]
    for request in requests:
        np.testing.assert_array_equal(
            sharded.score(request), plain.score(request)
        )
    print(f"  {len(requests)} requests served — every score bit-identical")
    summary = sharded.parallel_summary()
    print(
        f"  shards/request : "
        f"{summary['shards_executed'] / summary['requests']:.1f}"
    )
    print(f"  last balance   : {summary['last_balance']:.2f}")


def cache_payoff() -> None:
    print()
    print("=" * 72)
    print("3. The score cache: hot documents short-circuit")
    print("=" * 72)
    models = build_probe_models(n_queries=10, docs_per_query=60, seed=SEED)
    features = models["dataset"].features
    scorer = make_scorer(models["student"])
    print(f"  workload: {features.shape[0]} docs, scored twice")

    from repro.runtime import ParallelConfig, ShardedScorer

    with ShardedScorer(
        scorer, ParallelConfig(workers=1, cache_entries=16384)
    ) as sharded:
        start = time.perf_counter()
        cold = sharded.score(features)
        cold_ms = (time.perf_counter() - start) * 1e3
        start = time.perf_counter()
        warm = sharded.score(features)
        warm_ms = (time.perf_counter() - start) * 1e3
        np.testing.assert_array_equal(cold, warm)
        snapshot = sharded.cache.snapshot()
    print(f"  cold pass      : {cold_ms:7.2f} ms (all misses)")
    print(f"  warm pass      : {warm_ms:7.2f} ms (all hits)")
    print(f"  cache hit ratio: {snapshot['hit_ratio']:.1%}")


def main() -> None:
    shard_planning()
    sharded_service()
    cache_payoff()
    print()
    print("=" * 72)
    print("Parallel report (obs.parallel_report)")
    print("=" * 72)
    print(obs.parallel_report().render())


if __name__ == "__main__":
    main()
