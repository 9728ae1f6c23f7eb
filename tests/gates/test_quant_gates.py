"""Quantized gates: int8 + block-sparse float32 plans on the paper's
136-feature architecture with a column-block-pruned first layer, end to
end, under the measured kernel arbitration of this host.

1. Kernel mix — a wide net compiles to at least three kernel kinds:
   ``block-spmm`` on the pruned first layer, ``int8-gemm`` where the
   exact-accumulation bound allows, and ``dense-gemm`` on the layer
   wider than that bound.
2. Tolerance — the int8 plan's deviation from ``reference_scores``
   stays within its declared ``score_tolerance``.
3. Stability — a ``stable=True`` int8 plan is bit-identical under any
   shard boundaries (exact integer accumulation needs no fixed tiles).
4. Speedup — the stable int8+block plan beats the stable float32 plan
   of the same weights (the served mode) by >= 1.3x at batch 256, as an
   interleaved best-of-N ratio, with the top-10 intact.
5. Zero allocations — steady-state ``execute_into`` keeps the heap
   flat through the block-panel and int8 kernels.
6. Composition — registry dispatch, sharding, micro-batching and a hot
   swap reproduce direct quantized scoring, and quantized and float
   plans never share a fingerprint.
7. Observability — the ``compile.*`` series record the int8 and block
   layers.
"""

from __future__ import annotations

import time
import tracemalloc

import numpy as np
import pytest

from repro.runtime import compile_network, reference_scores
from repro.runtime.compile import (
    BLOCK_KERNEL,
    DENSE_KERNEL,
    INT8_KERNEL,
    INT8_MAX_IN_WIDTH,
)
from tests.gates.test_compile_gates import ALLOC_TOLERANCE

#: The paper's feature count, the width of ``gate_features``.
INPUT_DIM = 136
HIDDEN = (400, 200, 100)
#: The layer the 1280-wide hidden layer feeds exceeds INT8_MAX_IN_WIDTH,
#: so it stays on the float GEMM.
WIDE_HIDDEN = (400, 1280, 100)
PRUNE_LEVEL = 0.90
BLOCK_SHAPE = (64, 8)
BATCH = 256
MIN_SPEEDUP = 1.3
#: Interleaved timing rounds of the speedup gate; each plan keeps its best.
SPEEDUP_ROUNDS = 100
TOP_K = 10


def _block_pruned(hidden):
    from repro.nn.network import FeedForwardNetwork
    from repro.pruning import ColumnBlockPruner

    network = FeedForwardNetwork(INPUT_DIM, hidden, seed=3)
    ColumnBlockPruner(PRUNE_LEVEL, block_cols=BLOCK_SHAPE[1]).apply(
        network.first_layer
    )
    network.apply_masks()
    return network


@pytest.fixture(scope="module")
def block_network():
    """136 -> 400 -> 200 -> 100 -> 1, first layer 90% column-block pruned."""
    return _block_pruned(HIDDEN)


def _int8_plan(network, **kwargs):
    return compile_network(
        network, dtype="float32", quantize="int8", block_sparse=True,
        block_shape=BLOCK_SHAPE, **kwargs,
    )


def test_kernel_mix():
    plan = _int8_plan(_block_pruned(WIDE_HIDDEN))
    counts = plan.kernel_counts()
    assert len(counts) >= 3, f"expected >= 3 kernel kinds, got {counts}"
    for name in (BLOCK_KERNEL, INT8_KERNEL, DENSE_KERNEL):
        assert counts.get(name, 0) >= 1, counts
        assert name in plan.describe()
    for lp in plan.layers:
        if lp.in_width > INT8_MAX_IN_WIDTH:
            assert lp.kernel == DENSE_KERNEL and lp.bits is None, lp.describe()
        if lp.kernel == INT8_KERNEL:
            assert lp.in_width <= INT8_MAX_IN_WIDTH, lp.describe()


def test_tolerance(block_network, gate_features):
    plan = _int8_plan(block_network)
    assert plan.score_tolerance is not None
    dev = float(np.max(np.abs(
        plan.score(gate_features)
        - reference_scores(block_network, plan, gate_features)
    )))
    assert dev <= plan.score_tolerance, (
        f"int8 plan deviates {dev:.3g}, above its declared tolerance "
        f"{plan.score_tolerance:.3g}"
    )


def test_stable_chunk_invariance(block_network, gate_features):
    plan = _int8_plan(block_network, stable=True)
    whole = plan.score(gate_features)
    for shard in (1, 3, 17, 70, BATCH):
        parts = [
            plan.score(gate_features[i : i + shard])
            for i in range(0, len(gate_features), shard)
        ]
        np.testing.assert_array_equal(
            np.concatenate(parts), whole,
            err_msg=f"stable int8 plan is not chunk-invariant at shard {shard}",
        )


def _interleaved_ratio(baseline, candidate, chunk) -> tuple[float, float, float]:
    """``(ratio, baseline_us, candidate_us)``: best-of-N µs/doc of each
    plan, timed alternately so a slow spell of the host hits both."""
    best = [float("inf"), float("inf")]
    for _ in range(SPEEDUP_ROUNDS):
        for i, plan in enumerate((baseline, candidate)):
            start = time.perf_counter()
            plan.score(chunk)
            best[i] = min(best[i], time.perf_counter() - start)
    base_us, cand_us = (t * 1e6 / len(chunk) for t in best)
    return base_us / cand_us, base_us, cand_us


def test_speedup(block_network, gate_features, capsys):
    """Gated in the served (stable) mode; the native ratio is printed."""
    chunk = np.ascontiguousarray(gate_features[:BATCH])
    ratios = {}
    for mode, stable in (("native", False), ("stable", True)):
        f32 = compile_network(block_network, dtype="float32", stable=stable)
        quant = _int8_plan(block_network, stable=stable)
        ratios[mode] = _interleaved_ratio(f32, quant, chunk)
    with capsys.disabled():
        for mode, (ratio, base_us, quant_us) in ratios.items():
            print(
                f"\nint8+block over float32, {mode}: {ratio:.2f}x "
                f"({base_us:.2f} -> {quant_us:.2f} us/doc at batch {BATCH})"
            )
    ratio, base_us, quant_us = ratios["stable"]
    assert ratio >= MIN_SPEEDUP, (
        f"stable int8+block plan must be >= {MIN_SPEEDUP}x over the stable "
        f"float32 plan, got {ratio:.2f}x ({base_us:.2f} -> {quant_us:.2f} us/doc)"
    )
    # Ranking agreement at the declared tolerance: the top-10 of the
    # quantized plan must overlap the exact reference's top-10.
    got = quant.score(chunk)
    ref = reference_scores(block_network, quant, chunk)
    top_ref = set(np.argsort(-ref, kind="stable")[:TOP_K])
    top_got = set(np.argsort(-got, kind="stable")[:TOP_K])
    overlap = len(top_ref & top_got) / TOP_K
    assert overlap >= 0.8, (
        f"quantized top-{TOP_K} overlaps the reference only {overlap:.0%}"
    )


@pytest.mark.parametrize("stable", [False, True], ids=["native", "stable"])
def test_zero_allocations(block_network, gate_features, stable):
    plan = _int8_plan(block_network, stable=stable)
    assert BLOCK_KERNEL in plan.kernel_counts(), plan.describe()
    chunk = np.ascontiguousarray(gate_features[:BATCH])
    out = np.empty(BATCH)
    plan.execute_into(chunk, out)  # build the views for this batch size
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for _ in range(100):
            plan.execute_into(chunk, out)
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert after - before <= ALLOC_TOLERANCE, (
        f"100 steady-state quantized executes grew the heap by "
        f"{after - before} bytes"
    )


def test_composition(block_network, gate_features):
    from repro.datasets import ZNormalizer
    from repro.distill.student import DistilledStudent
    from repro.runtime import (
        BatchEngine,
        ModelRegistry,
        ParallelConfig,
        ShardedScorer,
        make_scorer,
    )

    rng = np.random.default_rng(29)
    normalizer = ZNormalizer()
    normalizer.fit(rng.standard_normal((64, INPUT_DIM)))
    student = DistilledStudent(block_network, normalizer)
    scorer = make_scorer(
        student, quantize="int8", block_sparse=True, plan_dtype="float32"
    )
    assert scorer.backend == "compiled-network", scorer.backend
    plain = make_scorer(student, plan_dtype="float32")
    assert scorer.fingerprint() != plain.fingerprint(), (
        "int8 and float32 plans of the same weights must never share a "
        "fingerprint (score caches would mix them)"
    )
    direct = scorer.score(gate_features)

    with ShardedScorer(scorer, ParallelConfig(workers=2)) as sharded:
        np.testing.assert_array_equal(
            sharded.score(gate_features), direct,
            err_msg="sharded quantized scoring diverged from direct",
        )
    engine = BatchEngine(scorer, max_batch_size=37)
    np.testing.assert_array_equal(
        engine.score(gate_features), direct,
        err_msg="micro-batched quantized scoring diverged from direct",
    )

    registry = ModelRegistry(plain, version="f32")
    registry.register(scorer, version="int8")
    previous, entry = registry.activate("int8")
    assert previous is not None and previous.version_id == "f32"
    assert entry.fingerprint == scorer.fingerprint()
    np.testing.assert_array_equal(
        registry.active.scorer.score(gate_features), direct,
        err_msg="post-swap quantized scoring diverged",
    )


def test_observability(block_network, obs_clean):
    _int8_plan(block_network)
    report = obs_clean.compile_report()
    f32 = report.row("float32")
    assert f32 is not None and f32["plans"] == 1
    assert f32["int8_layers"] > 0, "no int8-gemm layer choices recorded"
    assert f32["block_layers"] > 0, "no block-spmm layer choices recorded"
    rendered = report.render()
    assert "int8" in rendered and "block" in rendered
    assert "int16" not in rendered
