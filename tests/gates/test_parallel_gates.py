"""Parallel gates: sharding never changes a score, and the pool scales.

1. Bit-identity — the plans of both probe students, float and int8,
   sharded under every strategy and with a cache, cold and warm,
   reproduce plain scoring bit for bit.  (The forest is held to the
   same contract in ``tests/test_runtime_parallel.py``.)
2. Pool scaling — with OpenBLAS pinned to one thread, two workers score
   a large batch faster than one, as an interleaved best-of-N ratio.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.runtime import ParallelConfig, ShardedScorer, make_scorer

CONFIGS = [
    ParallelConfig(workers=1),
    ParallelConfig(workers=2),
    ParallelConfig(workers=3, strategy="size-capped", max_shard_rows=17),
    ParallelConfig(workers=2, strategy="cost-weighted", target_shard_us=200.0),
    ParallelConfig(workers=2, cache_entries=4096),
]

#: Probe role and ``make_scorer`` options of each sharded plan.
TARGETS = {
    "student": ("student", {}),
    "student-int8": ("student", {"quantize": "int8"}),
    "pruned": ("pruned", {}),
    "pruned-int8": ("pruned", {"quantize": "int8"}),
}


@pytest.mark.parametrize("target", list(TARGETS))
def test_sharded_plans_bit_identical(probe_models, target):
    role, opts = TARGETS[target]
    plain = make_scorer(probe_models[role], **opts)
    features = probe_models["dataset"].features
    reference = plain.score(features)
    for config in CONFIGS:
        with ShardedScorer(plain, config) as sharded:
            for label in ("cold", "warm"):
                np.testing.assert_array_equal(
                    sharded.score(features),
                    reference,
                    err_msg=f"{target} under {config} ({label})",
                )


#: Interleaved timing rounds of the pool gate; each worker count keeps
#: its best.
POOL_ROUNDS = 7


def test_two_workers_beat_one(one_blas_thread):
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("fewer than 2 usable CPUs: no pool can beat one worker")
    from repro.datasets import ZNormalizer
    from repro.distill.student import DistilledStudent
    from repro.nn import FeedForwardNetwork

    rng = np.random.default_rng(11)
    x = rng.standard_normal((6000, 136))
    normalizer = ZNormalizer()
    normalizer.fit(rng.standard_normal((64, 136)))
    scorer = make_scorer(
        DistilledStudent(
            FeedForwardNetwork(136, (256, 128, 64), seed=11), normalizer
        )
    )
    best = {1: float("inf"), 2: float("inf")}
    with ShardedScorer(scorer, ParallelConfig(workers=1)) as one, \
            ShardedScorer(scorer, ParallelConfig(workers=2)) as two:
        pools = {1: one, 2: two}
        for _ in range(POOL_ROUNDS):
            for workers, sharded in pools.items():
                start = time.perf_counter()
                sharded.score(x)
                best[workers] = min(
                    best[workers], time.perf_counter() - start
                )
    speedup = best[1] / best[2]
    assert speedup > 1.0, (
        f"2 workers must beat 1, got {speedup:.2f}x "
        f"(1w {best[1] * 1e3:.1f} ms, 2w {best[2] * 1e3:.1f} ms)"
    )
