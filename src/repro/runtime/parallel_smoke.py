"""Self-checking parallel-scoring smoke run (``make parallel-smoke``).

Exercises the sharded scoring engine end to end and *asserts* the
outcomes, so CI can gate on ``python -m repro.runtime.parallel_smoke``:

1. **Bit-identity** — every probe model (the ``quickscorer`` forest,
   the dense and the pruned student's ``compiled-network`` plans, and
   an int8 plan of the pruned student), sharded under every strategy
   and several worker counts, cache cold and warm, must reproduce plain
   ``Scorer.score`` bit for bit.  This is the property
   that makes the engine adoptable: parallelism may never change a
   ranking.
2. **Cache effectiveness** — a warm second pass over the same workload
   must be fully served from the :class:`ScoreCache` (hit ratio over
   the two passes >= 0.5) and must be measurably *faster* than the cold
   pass (speedup > 1) on a heavy student network, where scoring
   dominates row hashing.
3. **Pool speedup** — with >= 2 physical cores, 2 workers must beat 1
   worker on a large dense batch (numpy releases the GIL, so shards
   overlap).  On single-core hosts this check is skipped with a note:
   no thread pool can beat sequential execution there.
4. **Observability** — the ``parallel.*`` series must have recorded the
   traffic and the report must render with a finite hit ratio.

Exits non-zero on any violation.
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np


def check_bit_identity() -> None:
    """Sharded == plain, across backends x strategies x cache states."""
    from repro.obs.probe import build_probe_models
    from repro.runtime import ParallelConfig, ShardedScorer, make_scorer

    models = build_probe_models(n_queries=8, docs_per_query=16, seed=0)
    features = models["dataset"].features
    configs = [
        ParallelConfig(workers=1),
        ParallelConfig(workers=2),
        ParallelConfig(workers=3, strategy="size-capped", max_shard_rows=17),
        ParallelConfig(workers=2, strategy="cost-weighted", target_shard_us=200.0),
        ParallelConfig(workers=2, cache_entries=4096),
    ]
    targets = [
        ("forest", {}),
        ("student", {}),
        ("pruned", {}),
        # quantized kernels are exact-integer reductions: sharding
        # composes with them too
        ("pruned", {"quantize": "int8"}),
    ]
    checked = 0
    for role, opts in targets:
        plain = make_scorer(models[role], **opts)
        backend = f"{role} {plain.backend}"
        reference = plain.score(features)
        for config in configs:
            if config.strategy == "cost-weighted" and not np.isfinite(
                plain.predicted_us_per_doc
            ):
                continue
            with ShardedScorer(plain, config) as sharded:
                for label in ("cold", "warm"):
                    got = sharded.score(features)
                    np.testing.assert_array_equal(
                        got,
                        reference,
                        err_msg=(
                            f"{backend} under {config} ({label}) diverged "
                            "from plain scoring"
                        ),
                    )
                    checked += 1
    assert checked >= 32, f"only {checked} identity checks ran"
    print(
        f"bit-identity: {checked} sharded/cached passes reproduce plain "
        "scoring exactly"
    )


def _heavy_student(n_features: int, seed: int):
    """A wide student whose scoring cost dwarfs per-row hashing."""
    from repro.datasets import ZNormalizer
    from repro.distill.student import DistilledStudent
    from repro.nn import FeedForwardNetwork

    rng = np.random.default_rng(seed)
    normalizer = ZNormalizer()
    normalizer.fit(rng.standard_normal((64, n_features)))
    network = FeedForwardNetwork(n_features, (256, 128, 64), seed=seed)
    return DistilledStudent(network, normalizer)


def check_cache_speedup() -> None:
    """A warm cache pass must be fully hit and faster than cold."""
    from repro.runtime import ParallelConfig, ShardedScorer, make_scorer

    rng = np.random.default_rng(7)
    n_rows, n_features = 3000, 136
    x = rng.standard_normal((n_rows, n_features))
    scorer = make_scorer(_heavy_student(n_features, 7))
    with ShardedScorer(
        scorer, ParallelConfig(workers=1, cache_entries=2 * n_rows)
    ) as sharded:
        best_cold = best_warm = float("inf")
        for _ in range(3):
            sharded.cache.clear()
            start = time.perf_counter()
            sharded.score(x)
            best_cold = min(best_cold, time.perf_counter() - start)
            start = time.perf_counter()
            sharded.score(x)
            best_warm = min(best_warm, time.perf_counter() - start)
        hit_ratio = sharded.cache.hit_ratio
    assert hit_ratio >= 0.5, f"warm pass not cache-served: {hit_ratio:.1%}"
    speedup = best_cold / best_warm
    assert speedup > 1.0, (
        f"cache-warm pass must beat cold scoring, got {speedup:.2f}x "
        f"(cold {best_cold * 1e3:.1f} ms, warm {best_warm * 1e3:.1f} ms)"
    )
    print(
        f"cache: warm pass {speedup:.1f}x faster than cold "
        f"(hit ratio {hit_ratio:.0%})"
    )


def check_pool_speedup() -> None:
    """Two workers must beat one on a large batch — given two cores."""
    cores = os.cpu_count() or 1
    if cores < 2:
        print(
            f"pool: skipped multi-worker speedup check "
            f"(host has {cores} core; threads cannot beat sequential)"
        )
        return
    from repro.runtime import ParallelConfig, ShardedScorer, make_scorer

    rng = np.random.default_rng(11)
    x = rng.standard_normal((6000, 136))
    scorer = make_scorer(_heavy_student(136, 11))

    def best_of(workers: int, repeats: int = 5) -> float:
        best = float("inf")
        with ShardedScorer(scorer, ParallelConfig(workers=workers)) as s:
            for _ in range(repeats):
                start = time.perf_counter()
                s.score(x)
                best = min(best, time.perf_counter() - start)
        return best

    one, two = best_of(1), best_of(2)
    speedup = one / two
    assert speedup > 1.0, (
        f"2 workers must beat 1 on {cores} cores, got {speedup:.2f}x "
        f"(1w {one * 1e3:.1f} ms, 2w {two * 1e3:.1f} ms)"
    )
    print(f"pool: 2 workers {speedup:.2f}x faster than 1 ({cores} cores)")


def check_observability() -> None:
    """The parallel.* series must reflect the traffic just served."""
    import math

    from repro import obs

    report = obs.parallel_report()
    assert report.rows, "no parallel.* series recorded"
    total_requests = sum(row["requests"] for row in report.rows)
    assert total_requests > 0, "parallel.requests counter is empty"
    dense = report.row("compiled-network")
    assert dense is not None, "compiled-network row missing from the report"
    hit_ratio = dense["cache_hit_ratio"]
    assert math.isfinite(hit_ratio) and hit_ratio > 0, (
        f"expected a finite positive cache hit ratio, got {hit_ratio}"
    )
    rendered = report.render()
    assert "Parallel scoring" in rendered and "compiled-network" in rendered
    print(
        f"obs: {total_requests} sharded requests recorded, "
        f"student cache hit ratio {hit_ratio:.0%}"
    )


def main() -> int:
    check_bit_identity()
    check_cache_speedup()
    check_pool_speedup()
    check_observability()
    from repro import obs

    print()
    print(obs.parallel_report().render())
    print("parallel-smoke: sharding is bit-identical and the cache pays off")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
