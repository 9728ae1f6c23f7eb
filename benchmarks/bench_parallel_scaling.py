"""Parallel scoring engine — workers x shard size scaling table.

Sweeps the sharded scorer over worker counts and shard-size caps on one
dense student workload, reporting docs/sec, speedup over unsharded
scoring and the cache-warm rate.  Expected shape: sharding never changes
a score bit, the warm cache beats every cold configuration, and — on
multi-core hosts — more workers help until shards get too small.  On a
single-core host thread speedups cannot emerge; the table still records
the (flat) scaling and the cache row carries the >1x signal.
"""

from __future__ import annotations

import os
import time

import numpy as np

from benchmarks._common import emit
from repro.runtime import ParallelConfig, ShardedScorer, make_scorer

WORKERS = (1, 2, 4)
SHARD_ROWS = (None, 128, 512)
REPEATS = 3


def _best_rate(scorer, features) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        scorer.score(features)
        best = min(best, time.perf_counter() - start)
    return len(features) / best


def test_parallel_scaling(msn_pipeline, benchmark):
    student = msn_pipeline.student(msn_pipeline.zoo.flagship)
    rng = np.random.default_rng(3)
    features = rng.standard_normal((4096, msn_pipeline.train.n_features))

    plain = make_scorer(student)
    reference = plain.score(features)
    base_rate = _best_rate(plain, features)

    rows = [("unsharded", "-", round(base_rate), "1.00x", "-")]
    for workers in WORKERS:
        for shard_rows in SHARD_ROWS:
            config = ParallelConfig(
                workers=workers,
                strategy="even" if shard_rows is None else "size-capped",
                max_shard_rows=shard_rows,
            )
            with ShardedScorer(plain, config) as sharded:
                rate = _best_rate(sharded, features)
                np.testing.assert_array_equal(
                    sharded.score(features), reference
                )
            rows.append(
                (
                    f"{workers} worker(s)",
                    shard_rows or "even",
                    round(rate),
                    f"{rate / base_rate:.2f}x",
                    "-",
                )
            )

    with ShardedScorer(
        plain, ParallelConfig(workers=1, cache_entries=2 * len(features))
    ) as cached:
        cached.score(features)  # cold fill
        warm_rate = _best_rate(cached, features)
        np.testing.assert_array_equal(cached.score(features), reference)
        hit_ratio = cached.cache.hit_ratio
    rows.append(
        (
            "1 worker + warm cache",
            "even",
            round(warm_rate),
            f"{warm_rate / base_rate:.2f}x",
            f"{hit_ratio:.0%}",
        )
    )

    emit(
        "parallel_scaling",
        ["Configuration", "Shard rows", "Docs/sec", "Speedup", "Hit ratio"],
        rows,
        title="Sharded scoring throughput (dense student)",
        notes=(
            f"Host cores: {os.cpu_count()}.  Scores of every configuration "
            "are bit-identical to unsharded scoring.  Thread speedup needs "
            ">= 2 cores (numpy kernels release the GIL); the warm-cache row "
            "is the core-independent >1x signal."
        ),
    )

    assert warm_rate > base_rate, (
        f"warm cache ({warm_rate:.0f} docs/s) must beat unsharded "
        f"scoring ({base_rate:.0f} docs/s)"
    )

    with ShardedScorer(plain, ParallelConfig(workers=2)) as sharded:
        benchmark(lambda: sharded.score(features))
