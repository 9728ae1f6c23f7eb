"""Self-checking quantized/block-sparse kernel smoke (``make quant-smoke``).

Exercises the quantized int8/int16 and block-CSR compiled kernels end to
end on the paper's 136-feature architecture with a column-block-pruned
first layer, and *asserts* the outcomes so CI can gate on
``python -m repro.runtime.quant_smoke``:

1. **Kernel mix** — ``compile_network`` must auto-select at least three
   distinct kernel kinds on a representative network (block-SpMM for
   the structured-pruned first layer, int8 GEMM where the
   exact-accumulation bound allows, int16 on wider layers), visible in
   ``kernel_counts()`` and ``describe()``.
2. **Tolerance contract** — every quantized plan's measured deviation
   from :func:`~repro.runtime.compile.reference_scores` must stay
   within its declared ``score_tolerance``; ``quantize="auto"`` must
   honour an explicit budget.
3. **Chunk invariance** — a ``stable=True`` int8 plan must produce
   bit-identical scores under arbitrary shard boundaries (exact integer
   accumulation needs no fixed-tile GEMM).
4. **Speedup** — the int8/block plan must beat the plain float32 plan
   by >= 1.3x µs/doc at batch 256 on the pruned-90% headline shape,
   with ranking agreement (top-10 overlap) intact.
5. **Zero steady-state allocations** — repeated ``execute_into`` calls
   through the single-panel block kernel must not grow the heap.
6. **Composition** — quantized plans must ride the existing serving
   stack unchanged: registry dispatch (``quantize=`` / ``block_sparse=``
   options), :class:`~repro.runtime.parallel.ShardedScorer`,
   :class:`~repro.runtime.batching.BatchEngine` and a
   :class:`~repro.runtime.lifecycle.ModelRegistry` hot swap, with
   distinct fingerprints per kernel configuration (so score caches
   never mix plans).
7. **Observability** — the ``compile.*`` series must record the new
   kernel kinds.

Exits non-zero on any violation.
"""

from __future__ import annotations

import sys
import time
import tracemalloc

import numpy as np

#: The paper's 136-feature setting; the wide variant forces the int16
#: fallback (in_width > INT8_MAX_IN_WIDTH on the following layer).
INPUT_DIM = 136
HIDDEN = (400, 200, 100)
WIDE_HIDDEN = (400, 1280, 100)
PRUNE_LEVEL = 0.90
BLOCK_SHAPE = (64, 8)
BATCH = 256
MIN_SPEEDUP = 1.3
TOP_K = 10
ALLOC_TOLERANCE = 16 * 1024


def _pruned_network(hidden=HIDDEN, seed: int = 3):
    from repro.nn.network import FeedForwardNetwork
    from repro.pruning import ColumnBlockPruner

    network = FeedForwardNetwork(INPUT_DIM, hidden, seed=seed)
    ColumnBlockPruner(PRUNE_LEVEL, block_cols=BLOCK_SHAPE[1]).apply(
        network.first_layer
    )
    network.apply_masks()
    return network


def _student(network):
    from repro.datasets import ZNormalizer
    from repro.distill.student import DistilledStudent

    rng = np.random.default_rng(29)
    normalizer = ZNormalizer()
    normalizer.fit(rng.standard_normal((64, INPUT_DIM)))
    return DistilledStudent(network, normalizer)


def _deviation(network, plan, features) -> float:
    from repro.runtime import reference_scores

    return float(
        np.max(np.abs(plan.score(features) - reference_scores(network, plan, features)))
    )


def check_kernel_mix() -> None:
    """>= 3 distinct kernel kinds on the wide representative network."""
    from repro.runtime import compile_network
    from repro.runtime.compile import (
        BLOCK_KERNEL,
        INT8_KERNEL,
        INT16_KERNEL,
        INT8_MAX_IN_WIDTH,
    )

    network = _pruned_network(WIDE_HIDDEN)
    plan = compile_network(
        network,
        dtype="float32",
        quantize="int8",
        block_sparse=True,
        block_shape=BLOCK_SHAPE,
    )
    counts = plan.kernel_counts()
    assert len(counts) >= 3, f"expected >= 3 kernel kinds, got {counts}"
    assert counts.get(BLOCK_KERNEL, 0) >= 1, counts
    assert counts.get(INT8_KERNEL, 0) >= 1, counts
    assert counts.get(INT16_KERNEL, 0) >= 1, (
        f"the {WIDE_HIDDEN[1]}-wide layer exceeds the int8 bound "
        f"({INT8_MAX_IN_WIDTH}) and must fall back to int16: {counts}"
    )
    for lp in plan.layers:
        if lp.kernel == INT8_KERNEL:
            assert lp.in_width <= INT8_MAX_IN_WIDTH, lp.describe()
    described = plan.describe()
    for name in (BLOCK_KERNEL, INT8_KERNEL, INT16_KERNEL):
        assert name in described, described
    print(f"kernel mix: {counts} ({described})")


def check_tolerance_contract(network, features) -> None:
    """Measured deviation must sit inside the declared tolerance."""
    from repro.runtime import compile_network

    int8 = compile_network(
        network, dtype="float32", quantize="int8", block_sparse=True
    )
    assert int8.score_tolerance is not None
    dev = _deviation(network, int8, features)
    assert dev <= int8.score_tolerance, (
        f"int8 plan deviates {dev:.3g}, above its declared tolerance "
        f"{int8.score_tolerance:.3g}"
    )

    budget = 0.02
    auto = compile_network(
        network,
        dtype="float32",
        quantize="auto",
        tolerance=budget,
        block_sparse=True,
    )
    assert auto.score_tolerance == budget
    auto_dev = _deviation(network, auto, features)
    assert auto_dev <= budget, (
        f"auto plan deviates {auto_dev:.3g}, above the {budget} budget"
    )
    print(
        f"tolerance: int8 dev {dev:.2e} <= declared "
        f"{int8.score_tolerance:.2e}; auto dev {auto_dev:.2e} <= "
        f"budget {budget}"
    )


def check_stable_invariance(network, features) -> None:
    """Stable quantized plans must be chunk-invariant bit for bit."""
    from repro.runtime import compile_network

    plan = compile_network(
        network, dtype="float32", quantize="int8", block_sparse=True,
        stable=True,
    )
    whole = plan.score(features)
    for shard in (1, 3, 17, 70, BATCH):
        parts = [
            plan.score(features[i : i + shard])
            for i in range(0, len(features), shard)
        ]
        np.testing.assert_array_equal(
            np.concatenate(parts),
            whole,
            err_msg=f"stable int8 plan is not chunk-invariant at shard {shard}",
        )
    print("stability: stable int8 plan is bit-identical under every shard size")


def _best_of(fn, repeats: int = 7) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def check_speedup(network, features) -> None:
    """int8/block plan >= 1.3x over the plain float32 plan."""
    from repro.runtime import compile_network, reference_scores

    chunk = np.ascontiguousarray(features[:BATCH])
    f32 = compile_network(network, dtype="float32")
    quant = compile_network(
        network, dtype="float32", quantize="int8", block_sparse=True
    )
    baseline_us = _best_of(lambda: f32.score(chunk)) * 1e6 / BATCH
    quant_us = _best_of(lambda: quant.score(chunk)) * 1e6 / BATCH
    speedup = baseline_us / quant_us
    assert speedup >= MIN_SPEEDUP, (
        f"quantized plan must be >= {MIN_SPEEDUP}x over the float32 plan, "
        f"got {speedup:.2f}x ({baseline_us:.2f} -> {quant_us:.2f} us/doc)"
    )
    # Ranking agreement at the declared tolerance: the top-10 of the
    # quantized plan must overlap the exact reference's top-10.
    ref = reference_scores(network, quant, chunk)
    got = quant.score(chunk)
    top_ref = set(np.argsort(-ref, kind="stable")[:TOP_K])
    top_got = set(np.argsort(-got, kind="stable")[:TOP_K])
    overlap = len(top_ref & top_got) / TOP_K
    assert overlap >= 0.8, (
        f"quantized top-{TOP_K} overlaps the reference only {overlap:.0%}"
    )
    print(
        f"speedup: int8+block plan {speedup:.2f}x over float32 "
        f"({baseline_us:.2f} -> {quant_us:.2f} us/doc at batch {BATCH}, "
        f"top-{TOP_K} overlap {overlap:.0%})"
    )


def check_zero_allocations(network, features) -> None:
    """Steady-state block/int8 execution must not touch the heap."""
    from repro.runtime import compile_network

    plan = compile_network(
        network, dtype="float32", quantize="int8", block_sparse=True
    )
    chunk = np.ascontiguousarray(features[:BATCH])
    out = np.empty(BATCH)
    plan.execute_into(chunk, out)
    tracemalloc.start()
    before, _ = tracemalloc.get_traced_memory()
    for _ in range(100):
        plan.execute_into(chunk, out)
    after, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    grown = after - before
    assert grown <= ALLOC_TOLERANCE, (
        f"steady-state quantized scoring grew the heap by {grown} bytes"
    )
    print(f"allocations: 100 steady-state executes grew {grown} bytes")


def check_composition(network, features) -> None:
    """Quantized plans ride the serving stack unchanged."""
    from repro.runtime import (
        BatchEngine,
        ModelRegistry,
        ParallelConfig,
        ShardedScorer,
        make_scorer,
    )

    student = _student(network)
    scorer = make_scorer(
        student, quantize="int8", block_sparse=True, plan_dtype="float32"
    )
    assert scorer.backend == "compiled-network", scorer.backend
    plain = make_scorer(student, plan_dtype="float32")
    assert scorer.fingerprint() != plain.fingerprint(), (
        "int8 and float32 plans of the same weights must never share a "
        "fingerprint (score caches would mix them)"
    )
    direct = scorer.score(features)

    with ShardedScorer(scorer, ParallelConfig(workers=2)) as sharded:
        np.testing.assert_array_equal(
            sharded.score(features),
            direct,
            err_msg="sharded quantized scoring diverged from direct",
        )
    engine = BatchEngine(scorer, max_batch_size=37)
    np.testing.assert_array_equal(
        engine.score(features),
        direct,
        err_msg="micro-batched quantized scoring diverged from direct",
    )

    registry = ModelRegistry(plain, version="f32")
    registry.register(scorer, version="int8")
    previous, entry = registry.activate("int8")
    assert previous is not None and previous.version_id == "f32"
    assert entry.fingerprint == scorer.fingerprint()
    np.testing.assert_array_equal(
        registry.active.scorer.score(features),
        direct,
        err_msg="post-swap quantized scoring diverged",
    )
    print(
        "composition: registry dispatch, sharding, micro-batching and "
        "hot swap all reproduce direct quantized scoring bit for bit"
    )


def check_observability() -> None:
    """compile.* series must record the new kernel kinds."""
    from repro import obs

    report = obs.compile_report()
    f32 = report.row("float32")
    assert f32 is not None and f32["plans"] > 0, "no float32 plans recorded"
    assert f32["int8_layers"] > 0, "no int8-gemm layer choices recorded"
    assert f32["block_layers"] > 0, "no block-spmm layer choices recorded"
    assert f32["int16_layers"] > 0, "no int16-gemm layer choices recorded"
    rendered = report.render()
    assert "int8" in rendered and "block" in rendered
    print(
        f"obs: float32 row has {f32['block_layers']} block / "
        f"{f32['int8_layers']} int8 / {f32['int16_layers']} int16 layers"
    )


def main() -> int:
    rng = np.random.default_rng(11)
    network = _pruned_network()
    features = rng.standard_normal((512, INPUT_DIM))

    check_kernel_mix()
    check_tolerance_contract(network, features)
    check_stable_invariance(network, features)
    check_speedup(network, features)
    check_zero_allocations(network, features)
    check_composition(network, features)
    check_observability()

    print(
        "quant-smoke: quantized and block-sparse plans are within "
        "tolerance, chunk-invariant, allocation-free and faster than "
        "the float32 baseline"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
