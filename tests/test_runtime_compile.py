"""Tests for repro.runtime.compile — AOT inference plans.

The bit contract is layered (see the module docstring of
``repro.runtime.compile``): float64 dense-GEMM layers reproduce
``FeedForwardNetwork.predict`` bit for bit, float64 CSR-SpMM layers
reproduce ``CsrMatrix.matmul_reference``, stable-mode plans reproduce
``stable_matmul`` (BLAS GEMM on fixed 16-document tiles) and are
chunk-invariant,
and float32 plans are tolerance-bounded.  Hypothesis drives the
identities across architectures x sparsity x batch sizes, including
n=0 and n=1.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.network import FeedForwardNetwork
from repro.pruning import ColumnBlockPruner, LevelPruner
from repro.runtime import (
    BaseScorer,
    CompileError,
    CompiledNetworkScorer,
    InferencePlan,
    ParallelConfig,
    PricingContext,
    ShardedScorer,
    compile_network,
    make_scorer,
    reference_scores,
)
from repro.runtime import base
from repro.runtime.base import (
    STABLE_TILE,
    STABLE_WIDE_WIDTHS,
    StableTiles,
    stable_matmul,
    wide_widths,
)
from repro.runtime.compile import (
    BLOCK_KERNEL,
    DENSE_KERNEL,
    INT8_KERNEL,
    SPARSE_KERNEL,
    SPARSE_MARGIN,
    TUNING_MAX_REPEATS,
    TUNING_REPEATS,
    VIEW_CACHE_SIZES,
)
from tests.gates.test_compile_gates import ALLOC_TOLERANCE


@pytest.fixture(scope="module")
def context(predictor_cache, dense_timer):
    return PricingContext(predictor=predictor_cache, timer=dense_timer)


def _network(
    hidden=(16, 8), input_dim=12, sparsity=0.0, seed=0, every_layer=False
) -> FeedForwardNetwork:
    """A small net, its first layer (or ``every_layer``) level-pruned to
    ``sparsity``: csr-spmm is only timed on a layer with a zero weight."""
    network = FeedForwardNetwork(input_dim, hidden, seed=seed)
    if sparsity > 0:
        layers = network.linears if every_layer else [network.first_layer]
        for linear in layers:
            LevelPruner(sparsity).apply(linear)
    return network


ARCHITECTURES = [(8,), (16, 8), (24, 12, 6)]


# ----------------------------------------------------------------------
# Bit identity (float64)
# ----------------------------------------------------------------------
class TestBitIdentity:
    @given(
        arch=st.sampled_from(ARCHITECTURES),
        sparsity=st.sampled_from([0.0, 0.5, 0.95]),
        n=st.sampled_from([0, 1, 2, 3, 17, 64]),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_forced_dense_plan_matches_predict(
        self, context, arch, sparsity, n, seed
    ):
        """All-dense float64 plans reproduce the eager forward's bits."""
        network = _network(arch, sparsity=sparsity, seed=seed % 100)
        plan = compile_network(
            network,
            context=context,
            kernels=[DENSE_KERNEL] * network.n_layers,
        )
        x = np.random.default_rng(seed).normal(size=(n, 12))
        scores = plan.score(x)
        assert scores.dtype == np.float64
        if n == 0:
            assert scores.shape == (0,)
        else:
            np.testing.assert_array_equal(scores, network.predict(x))

    @given(
        arch=st.sampled_from(ARCHITECTURES),
        sparsity=st.sampled_from([0.9, 0.98]),
        n=st.sampled_from([0, 1, 5, 33, 64]),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_hybrid_plan_matches_strict_reference(
        self, context, arch, sparsity, n, seed
    ):
        """Plans with a forced-sparse first layer reproduce the hybrid
        reference — including via the independently-derived per-non-zero
        loop (``strict_spmm``)."""
        network = _network(arch, sparsity=sparsity, seed=seed % 100)
        kernels = [SPARSE_KERNEL] + [None] * (network.n_layers - 1)
        plan = compile_network(network, context=context, kernels=kernels)
        assert plan.layers[0].kernel == SPARSE_KERNEL
        x = np.random.default_rng(seed).normal(size=(n, 12))
        scores = plan.score(x)
        np.testing.assert_array_equal(
            scores, reference_scores(network, plan, x)
        )
        np.testing.assert_array_equal(
            scores, reference_scores(network, plan, x, strict_spmm=True)
        )

    def test_auto_selection_picks_sparse_on_pruned_layer(self, context):
        network = _network((64, 16), input_dim=64, sparsity=0.97, seed=1)
        plan = compile_network(network, context=context)
        assert plan.layers[0].sparsity > 0.9
        counts = plan.kernel_counts()
        assert sum(counts.values()) == network.n_layers
        x = np.random.default_rng(2).normal(size=(40, 64))
        np.testing.assert_array_equal(
            plan.score(x), reference_scores(network, plan, x)
        )

    def test_scores_chunked_beyond_max_batch(self, context):
        """score() splits requests larger than max_batch transparently."""
        network = _network((8,), seed=3)
        plan = compile_network(
            network,
            context=context,
            max_batch=16,
            kernels=[DENSE_KERNEL] * network.n_layers,
        )
        x = np.random.default_rng(3).normal(size=(50, 12))
        # Chunking at 16 re-runs the same BLAS call per chunk; equality
        # with per-chunk predict is exact.
        expected = np.concatenate(
            [network.predict(x[i : i + 16]) for i in range(0, 50, 16)]
        )
        np.testing.assert_array_equal(plan.score(x), expected)

    def test_concurrent_scoring_is_bit_identical(self, context):
        """Threads sharing one plan must not share in-flight activations
        (ShardedScorer scores shards of the same plan concurrently)."""
        import threading

        network = _network((16, 8), sparsity=0.9, seed=5)
        kernels = [SPARSE_KERNEL] + [None] * (network.n_layers - 1)
        plan = compile_network(network, context=context, kernels=kernels)
        rng = np.random.default_rng(5)
        batches = [rng.normal(size=(17, 12)) for _ in range(8)]
        expected = [plan.score(x) for x in batches]

        n_threads, rounds = 4, 25
        barrier = threading.Barrier(n_threads)
        failures: list[str] = []

        def worker(tid: int) -> None:
            barrier.wait()
            for r in range(rounds):
                i = (tid + r) % len(batches)
                got = plan.score(batches[i])
                if not np.array_equal(got, expected[i]):
                    failures.append(f"thread {tid} round {r} batch {i}")
                    return

        threads = [
            threading.Thread(target=worker, args=(t,))
            for t in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures, f"concurrent scoring diverged: {failures}"


# ----------------------------------------------------------------------
# Stable mode
# ----------------------------------------------------------------------
#: The served student's shape: 136 -> 300 -> 200 -> 100 -> 1.
SERVING_HIDDEN = (300, 200, 100)
#: Stable plan variants checked at serving scale: all-dense float64 and
#: float32, a 90%-pruned hybrid (CSR first layer) float64 net, a
#: column-block-pruned float32 net whose first layer runs the
#: block-panel kernel, and an all-dense float64 136 -> 50 -> 200 -> 100
#: net whose 50x136 first layer fails the wide-GEMM probe on OpenBLAS
#: 0.3.31 and so stays on 16-document tiles.
STABLE_VARIANTS = (
    "float64", "float32", "pruned-float64", "block-float32", "narrow-float64",
)
#: ``(m, k)`` layer shapes of the benchmark's students (136->300->200->
#: 100->1, 136->200->50->50->25->1 and 136->50->25->25->10->1), plus a
#: 1040-wide layer (the int8 exactness bound) and a 1-wide input.
TILE_SHAPES = [
    (300, 136), (200, 300), (100, 200), (1, 100), (200, 136), (50, 200),
    (50, 50), (25, 50), (1, 25), (50, 136), (25, 25), (10, 25), (1, 10),
    (64, 1040), (7, 1),
]


def _stable_serving_plan(variant: str, context):
    """``(network, plan)`` for one stable serving-scale variant."""
    if variant == "pruned-float64":
        network = _network(
            (400, 200, 200, 100), input_dim=136, sparsity=0.9, seed=3
        )
        return network, compile_network(network, context=context, stable=True)
    if variant == "block-float32":
        network = FeedForwardNetwork(136, SERVING_HIDDEN, seed=8)
        ColumnBlockPruner(0.9, block_cols=8).apply(network.first_layer)
        network.apply_masks()
        plan = compile_network(
            network,
            context=context,
            dtype="float32",
            stable=True,
            block_sparse=True,
            kernels=[BLOCK_KERNEL, None, None, None],
        )
        return network, plan
    if variant == "narrow-float64":
        network = _network((50, 200, 100), input_dim=136, seed=9)
        plan = compile_network(
            network, context=context, stable=True,
            kernels=[DENSE_KERNEL] * network.n_layers,
        )
        return network, plan
    network = _network(SERVING_HIDDEN, input_dim=136, seed=7)
    return network, compile_network(
        network, context=context, dtype=variant, stable=True
    )


def _wide_matches_tiles(m: int, k: int, dtype, width: int) -> bool:
    """Whether one ``w @ block.T`` call over ``width`` documents gives
    every document its 16-document-tile bits, on operands the plan's
    probe never saw."""
    rng = np.random.default_rng(m * 31 + k * 7 + width)
    w = np.ascontiguousarray(rng.normal(size=(m, k)), dtype=dtype)
    a = np.ascontiguousarray(rng.normal(size=(width, k)), dtype=dtype)
    return np.array_equal(
        (w @ a.T).view(np.uint8), stable_matmul(a, w).T.copy().view(np.uint8)
    )


class _PlanScorer(BaseScorer):
    """Bare Scorer over a plan, so ShardedScorer can drive it."""

    backend = "test-plan"

    def __init__(self, plan: InferencePlan) -> None:
        super().__init__(price_fn=lambda: 1.0, input_dim=plan.input_dim)
        self.plan = plan

    def score(self, features) -> np.ndarray:
        return self.plan.score(features)

    def describe(self) -> str:
        return self.plan.describe()


def _misaligned(x: np.ndarray, offset: int) -> np.ndarray:
    """A C-contiguous copy of ``x`` starting ``offset`` elements into a
    fresh buffer, so every row sits at a different alignment."""
    buf = np.empty(x.size + offset, dtype=x.dtype)
    view = buf[offset:].reshape(x.shape)
    view[...] = x
    return view


class TestStableMode:
    @given(
        n=st.sampled_from([7, 33, 64]),
        split=st.sampled_from([1, 3, 5, 17]),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_stable_plan_is_chunk_invariant(self, context, n, split, seed):
        """Scoring rows in arbitrary shards must reproduce the whole-
        batch bits — the Scorer contract serving relies on."""
        network = _network((16, 8), sparsity=0.9, seed=seed % 50)
        plan = compile_network(network, context=context, stable=True)
        x = np.random.default_rng(seed).normal(size=(n, 12))
        whole = plan.score(x)
        sharded = np.concatenate(
            [plan.score(x[i : i + split]) for i in range(0, n, split)]
        )
        np.testing.assert_array_equal(whole, sharded)
        np.testing.assert_array_equal(
            whole, reference_scores(network, plan, x)
        )

    @pytest.mark.parametrize("variant", STABLE_VARIANTS)
    def test_chunk_invariant_at_serving_shape(self, context, variant):
        """Tiled-GEMM bits must not depend on batch size, row position
        or order, operand alignment or concurrent BLAS calls.  Guards
        against tiling with documents as rows (``tile @ w.T``), whose
        bits move when rows are permuted inside a tile."""
        network, plan = _stable_serving_plan(variant, context)
        x = np.random.default_rng(21).normal(size=(1100, 136))
        whole = plan.score(x)
        for split in (1, 3, 15, 16, 17, 63, 64, 65, 70, 255, 256, 257, 1000):
            parts = np.concatenate(
                [plan.score(x[i : i + split]) for i in range(0, len(x), split)]
            )
            np.testing.assert_array_equal(
                parts, whole, err_msg=f"{variant} diverged at split {split}"
            )
        perm = np.random.default_rng(22).permutation(len(x))
        np.testing.assert_array_equal(
            plan.score(x[perm]), whole[perm],
            err_msg=f"{variant} diverged under a row permutation",
        )
        for offset in (1, 3):
            shifted = _misaligned(x, offset)
            np.testing.assert_array_equal(plan.score(shifted), whole)
            if plan.dtype_name == "float64":
                # The reference multiplies the misaligned rows in place.
                np.testing.assert_array_equal(
                    reference_scores(network, plan, shifted), whole
                )
        config = ParallelConfig(
            workers=2, strategy="size-capped", max_shard_rows=64
        )
        with ShardedScorer(_PlanScorer(plan), config) as sharded:
            np.testing.assert_array_equal(sharded.score(x), whole)
        if plan.dtype_name != "float64":
            return
        # Whole batches: the plan's wide GEMMs against the references,
        # which stay on 16-document tiles.
        for n in (1000, 1100):
            np.testing.assert_array_equal(
                reference_scores(network, plan, x[:n]), whole[:n],
                err_msg=f"{variant} left the reference at {n} documents",
            )

    @pytest.mark.parametrize("variant", STABLE_VARIANTS)
    def test_wide_widths_follow_the_probe(self, context, variant):
        """A layer runs a width exactly when that width reproduces the
        tile bits for its shape on fresh operands; a layer failing the
        probe (the narrow variant's 50x136 on OpenBLAS) stays tiled."""
        _, plan = _stable_serving_plan(variant, context)
        for lp in plan.layers:
            if lp.kernel != DENSE_KERNEL:
                continue
            expected = tuple(
                width for width in STABLE_WIDE_WIDTHS
                if width <= plan.max_batch and _wide_matches_tiles(
                    lp.out_width, lp.in_width, plan.dtype, width
                )
            )
            assert lp.wide_widths == expected, lp.describe()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize(
        "shape", TILE_SHAPES, ids=[f"{m}x{k}" for m, k in TILE_SHAPES]
    )
    def test_probe_verdicts_hold_on_fresh_operands(self, shape, dtype):
        """The probe decides a shape once, on its own random operands:
        BLAS must pick its code path from the shape, never the values."""
        m, k = shape
        enabled = wide_widths(m, k, dtype, max(STABLE_WIDE_WIDTHS))
        for width in STABLE_WIDE_WIDTHS:
            assert (width in enabled) == _wide_matches_tiles(m, k, dtype, width), (
                f"{m}x{k} {np.dtype(dtype)} at {width} documents"
            )

    def test_wide_widths_leave_the_fingerprint_and_bits(
        self, context, monkeypatch
    ):
        """Wide GEMMs are an execution detail: a plan with them disabled
        has the same fingerprint and the same bits, only its describe()
        differs."""
        network, wide = _stable_serving_plan("float64", context)
        monkeypatch.setattr(base, "STABLE_WIDE_WIDTHS", ())
        tiled = compile_network(network, context=context, stable=True)
        assert all(lp.wide_widths == () for lp in tiled.layers)
        assert "wide" not in tiled.describe()
        assert tiled.fingerprint == wide.fingerprint
        for lp in wide.layers:
            assert ("wide" in lp.describe()) == bool(lp.wide_widths)
        assert ("wide" in wide.describe()) == any(
            lp.wide_widths for lp in wide.layers
        )
        x = np.random.default_rng(23).normal(size=(1100, 136))
        np.testing.assert_array_equal(wide.score(x), tiled.score(x))

    def test_all_dense_stable_plan_matches_reference(self, context):
        """One stable contraction: the compiled plan and the reference's
        fixed-tile GEMMs agree bit for bit, misaligned rows included."""
        network = _network(SERVING_HIDDEN, input_dim=136, seed=7)
        plan = compile_network(
            network,
            context=context,
            stable=True,
            kernels=[DENSE_KERNEL] * network.n_layers,
        )
        x = np.random.default_rng(5).normal(size=(257, 136))
        got = plan.score(x)
        np.testing.assert_array_equal(got, reference_scores(network, plan, x))
        np.testing.assert_array_equal(
            got[:1], reference_scores(network, plan, _misaligned(x[:1], 1))
        )

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize(
        "shape", TILE_SHAPES, ids=[f"{m}x{k}" for m, k in TILE_SHAPES]
    )
    def test_stable_matmul_is_tile_invariant(self, shape, dtype):
        """A row's bits equal its whole-batch bits when scored alone,
        in any split, in a permuted batch and at odd element offsets."""
        m, k = shape
        rng = np.random.default_rng(m * 7919 + k)
        w = np.ascontiguousarray(rng.normal(size=(m, k)), dtype=dtype)
        x = rng.normal(size=(67, k)).astype(dtype)
        whole = stable_matmul(x, w)
        assert whole.shape == (67, m) and whole.dtype == dtype
        exact = x.astype(np.float64) @ w.astype(np.float64).T
        np.testing.assert_allclose(
            whole, exact, rtol=0, atol=1e-3 if dtype == np.float32 else 1e-9
        )
        for split in (1, 15, STABLE_TILE, 17, 33):
            parts = np.concatenate(
                [stable_matmul(x[i : i + split], w) for i in range(0, len(x), split)]
            )
            np.testing.assert_array_equal(parts, whole, err_msg=f"split {split}")
        perm = rng.permutation(len(x))
        np.testing.assert_array_equal(stable_matmul(x[perm], w), whole[perm])
        for offset in (1, 3):
            np.testing.assert_array_equal(
                stable_matmul(_misaligned(x, offset), w), whole
            )

    def test_tile_invariance_on_one_blas_thread(self):
        """The tile, wide-GEMM and serving-shape sweeps, re-run with one
        BLAS thread (fixed at process start, hence the subprocess):
        there, tiling with documents as rows (``tile @ w.T``) moves bits
        with a row's place in its tile, and BLAS may pick other code
        paths for the wide calls."""
        nodes = [
            f"{__file__}::TestStableMode::{name}"
            for name in (
                "test_stable_matmul_is_tile_invariant",
                "test_probe_verdicts_hold_on_fresh_operands",
                "test_wide_widths_follow_the_probe",
                "test_chunk_invariant_at_serving_shape",
            )
        ]
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *nodes],
            env=env, capture_output=True, text=True, timeout=600,
        )
        assert result.returncode == 0, result.stdout[-4000:]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_stays_in_its_column(self, context, bad):
        """A NaN/inf document cannot touch another document's bits, nor
        leak through the reused tile scratch into a later batch."""
        network, plan = _stable_serving_plan("float64", context)
        x = np.random.default_rng(31).normal(size=(37, 136))
        clean = plan.score(x)
        poisoned = x.copy()
        poisoned[[2, 35]] = bad  # one row in a full tile, one in the tail
        keep = np.setdiff1d(np.arange(len(x)), [2, 35])
        with np.errstate(invalid="ignore"):
            np.testing.assert_array_equal(plan.score(poisoned)[keep], clean[keep])
            np.testing.assert_array_equal(
                reference_scores(network, plan, poisoned)[keep],
                reference_scores(network, plan, x)[keep],
            )
        # Same batch size and a different ragged tail on the scratch the
        # poisoned batch just used.
        np.testing.assert_array_equal(plan.score(x), clean)
        np.testing.assert_array_equal(plan.score(x[:5]), clean[:5])

    @pytest.mark.parametrize("variant", STABLE_VARIANTS)
    def test_steady_state_execute_allocates_nothing(self, context, variant):
        """The tile views, tail tile and product buffers are built once
        per batch size: steady-state ``execute_into`` keeps the heap
        flat (the compile-smoke gate, at ragged and full-tile sizes)."""
        _, plan = _stable_serving_plan(variant, context)
        x = np.random.default_rng(41).normal(size=(1000, 136))
        for n in (1, 17, 1000):
            chunk = np.ascontiguousarray(x[:n])
            out = np.empty(n)
            plan.execute_into(chunk, out)  # build the views for this size
            tracemalloc.start()
            try:
                before, _ = tracemalloc.get_traced_memory()
                for _ in range(100):
                    plan.execute_into(chunk, out)
                after, _ = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert after - before < ALLOC_TOLERANCE, (
                f"{variant}: 100 executes at n={n} grew {after - before} B"
            )

    def test_view_cache_keeps_the_most_recent_sizes(self, context):
        """The per-thread views are capped at VIEW_CACHE_SIZES batch
        sizes, least recently used out first; a rebuilt size scores
        the same bits."""
        network = _network((16, 8), seed=3)
        plan = compile_network(network, context=context, stable=True)
        sizes = VIEW_CACHE_SIZES + 40
        x = np.random.default_rng(43).normal(size=(sizes, 12))
        first = plan.score(x[:1])
        for n in range(1, sizes + 1):
            plan.execute_into(x[:n], np.empty(n))
            if n == sizes - 100:
                plan.execute_into(x[:1], np.empty(1))  # size 1 is recent again
        cache = plan._local.views
        assert len(cache) == VIEW_CACHE_SIZES
        # Last use, oldest first: 2 .. sizes-100, 1, sizes-99 .. sizes.
        assert 1 in cache and sizes in cache and 42 in cache
        assert 2 not in cache and 41 not in cache
        np.testing.assert_array_equal(plan.score(x[:2])[:1], first)

    def test_stable_tiles_reject_non_contiguous_operands(self):
        a = np.zeros((40, 12))[:, ::2]
        tile = np.zeros((STABLE_TILE, 6))
        prod = np.zeros((3, 4, STABLE_TILE))
        with pytest.raises(ValueError, match="C-contiguous"):
            StableTiles(a, np.zeros((40, 4)), tile, prod)

    def test_stable_plan_scores_zero_docs(self, context):
        plan = compile_network(_network((16, 8)), context=context, stable=True)
        scores = plan.score(np.empty((0, 12)))
        assert scores.shape == (0,) and scores.dtype == np.float64
        with pytest.raises(ValueError, match="features"):
            plan.score(np.empty((0, 11)))

    def test_native_plan_matches_stable_at_serving_shape(self, context):
        network = _network(SERVING_HIDDEN, input_dim=136, seed=7)
        native = compile_network(network, context=context)
        stable = compile_network(network, context=context, stable=True)
        x = np.random.default_rng(9).normal(size=(256, 136))
        np.testing.assert_allclose(
            native.score(x), stable.score(x), rtol=1e-12, atol=1e-12
        )

    def test_native_plan_matches_reference_whole_batch(self, context):
        """Native and stable plans agree to tolerance, not bits."""
        network = _network((16, 8), sparsity=0.9, seed=4)
        native = compile_network(network, context=context)
        stable = compile_network(network, context=context, stable=True)
        x = np.random.default_rng(4).normal(size=(64, 12))
        np.testing.assert_allclose(
            native.score(x), stable.score(x), rtol=1e-12, atol=1e-12
        )
        assert "native" in native.describe()
        assert "stable" in stable.describe()


# ----------------------------------------------------------------------
# Float32 mode
# ----------------------------------------------------------------------
class TestFloat32:
    @given(
        sparsity=st.sampled_from([0.0, 0.9]),
        n=st.sampled_from([1, 17, 64]),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_bounded_error_vs_float64(self, context, sparsity, n, seed):
        network = _network((16, 8), sparsity=sparsity, seed=seed % 50)
        f64 = compile_network(network, context=context)
        f32 = compile_network(network, context=context, dtype="float32")
        x = np.random.default_rng(seed).normal(size=(n, 12))
        a, b = f64.score(x), f32.score(x)
        assert b.dtype == np.float64  # float64 at the API boundary
        scale = max(1.0, float(np.abs(a).max()))
        assert float(np.abs(a - b).max()) <= 1e-4 * scale

    def test_float32_buffers_are_float32(self, context):
        plan = compile_network(
            _network(seed=5), context=context, dtype="float32"
        )
        assert plan.dtype == np.float32
        assert plan.dtype_name == "float32"
        assert plan.buffer_bytes < compile_network(
            _network(seed=5), context=context
        ).buffer_bytes


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------
class TestFingerprint:
    def test_changes_when_weights_change(self, context):
        network = _network(seed=6)
        before = compile_network(network, context=context).fingerprint
        network.linears[0].weight.data[0, 0] += 1.0
        after = compile_network(network, context=context).fingerprint
        assert before != after

    def test_frozen_weights_do_not_track_the_network(self, context):
        """Plans copy weights: mutating the network after compilation
        changes neither the plan's scores nor its fingerprint."""
        network = _network(seed=7)
        plan = compile_network(network, context=context)
        x = np.random.default_rng(7).normal(size=(8, 12))
        before = plan.score(x)
        network.linears[0].weight.data += 10.0
        np.testing.assert_array_equal(plan.score(x), before)

    def test_plans_of_the_same_weights_share_one_frozen_copy(self, context):
        network = _network(seed=10)
        dense = [DENSE_KERNEL] * network.n_layers
        a = compile_network(network, context=context, stable=True, kernels=dense)
        b = compile_network(network, context=context, stable=True, kernels=dense)
        for ka, kb, linear in zip(a._kernels, b._kernels, network.linears):
            assert ka.w is kb.w and not ka.w.flags.writeable
            assert not np.shares_memory(ka.w, linear.weight.data)
        network.linears[0].weight.data += 1.0
        c = compile_network(network, context=context, stable=True, kernels=dense)
        assert c._kernels[0].w is not a._kernels[0].w
        assert c._kernels[1].w is a._kernels[1].w

    def test_distinguishes_dtype_mode_and_kernels(self, context):
        network = _network(sparsity=0.9, seed=8)
        prints = {
            compile_network(
                network,
                context=context,
                kernels=[SPARSE_KERNEL] + [None] * (network.n_layers - 1),
            ).fingerprint,
            compile_network(
                network, context=context, dtype="float32"
            ).fingerprint,
            compile_network(
                network, context=context, stable=True
            ).fingerprint,
            compile_network(
                network,
                context=context,
                kernels=[DENSE_KERNEL] * network.n_layers,
            ).fingerprint,
        }
        assert len(prints) == 4

    def test_same_inputs_same_fingerprint(self, context):
        a = compile_network(_network(seed=9), context=context)
        b = compile_network(_network(seed=9), context=context)
        assert a.fingerprint == b.fingerprint


# ----------------------------------------------------------------------
# Compile errors and validation
# ----------------------------------------------------------------------
class TestErrors:
    def test_not_a_network(self, context):
        with pytest.raises(CompileError, match="FeedForwardNetwork"):
            compile_network(object(), context=context)

    def test_bad_dtype(self, context):
        with pytest.raises(CompileError, match="dtype"):
            compile_network(
                _network(seed=0), context=context, dtype="float16"
            )

    def test_bad_max_batch(self, context):
        with pytest.raises(CompileError, match="max_batch"):
            compile_network(_network(seed=0), context=context, max_batch=0)

    def test_bad_kernel_override(self, context):
        with pytest.raises(CompileError, match="unknown kernel"):
            compile_network(
                _network(seed=0),
                context=context,
                kernels=["blas", None, None],
            )

    def test_kernel_override_length_mismatch(self, context):
        with pytest.raises(CompileError, match="entries"):
            compile_network(
                _network(seed=0), context=context, kernels=[None]
            )

    def test_batch_exceeding_max_batch(self, context):
        plan = compile_network(
            _network(seed=0), context=context, max_batch=4
        )
        out = np.empty(8)
        with pytest.raises(CompileError, match="exceeds"):
            plan.execute_into(np.zeros((8, 12)), out)

    def test_score_validates_features(self, context):
        plan = compile_network(_network(seed=0), context=context)
        with pytest.raises(ValueError, match="2-dimensional"):
            plan.score(np.zeros(12))
        with pytest.raises(ValueError, match="expected 12"):
            plan.score(np.zeros((3, 5)))

    def test_profile_rejects_empty_and_oversized(self, context):
        plan = compile_network(
            _network(seed=0), context=context, max_batch=8
        )
        with pytest.raises(CompileError, match="profile batch"):
            plan.profile_layers(np.zeros((0, 12)))
        with pytest.raises(CompileError, match="profile batch"):
            plan.profile_layers(np.zeros((9, 12)))


# ----------------------------------------------------------------------
# Plan introspection
# ----------------------------------------------------------------------
class TestIntrospection:
    def test_layer_plans_describe_the_network(self, context):
        network = _network((16, 8), sparsity=0.9, seed=10)
        plan = compile_network(network, context=context)
        assert plan.n_layers == 3
        assert [lp.index for lp in plan.layers] == [1, 2, 3]
        assert plan.layers[0].in_width == 12
        assert plan.layers[0].out_width == 16
        assert plan.layers[-1].out_width == 1
        assert plan.layers[-1].activation == "none"
        assert all(
            lp.activation == "relu6" for lp in plan.layers[:-1]
        )
        assert plan.layers[0].sparsity == pytest.approx(0.9, abs=0.01)
        for lp in plan.layers:
            assert lp.predicted_dense_us_per_doc > 0
            assert lp.predicted_sparse_us_per_doc > 0
            assert lp.describe()

    def test_predicted_price_sums_chosen_kernels(self, context):
        plan = compile_network(_network(seed=11), context=context)
        assert plan.predicted_us_per_doc == pytest.approx(
            sum(lp.predicted_us_per_doc for lp in plan.layers)
        )

    def test_profile_layers_returns_positive_times(self, context):
        plan = compile_network(_network(seed=12), context=context)
        x = np.random.default_rng(12).normal(size=(16, 12))
        times = plan.profile_layers(x, repeats=3)
        assert len(times) == plan.n_layers
        assert all(t > 0 for t in times)


# ----------------------------------------------------------------------
# Serving integration
# ----------------------------------------------------------------------
class TestServing:
    def test_adapter_scores_like_its_plan(
        self, small_student, context, rng
    ):
        scorer = make_scorer(small_student, context=context)
        assert isinstance(scorer, CompiledNetworkScorer)
        assert scorer.backend == "compiled-network"
        assert isinstance(scorer.plan, InferencePlan)
        assert scorer.plan.stable  # serving compiles chunk-invariant
        x = rng.normal(size=(20, small_student.input_dim))
        z = small_student.normalizer.transform(x)
        np.testing.assert_array_equal(scorer.score(x), scorer.plan.score(z))
        assert scorer.predicted_us_per_doc == pytest.approx(
            scorer.plan.predicted_us_per_doc
        )
        assert scorer.fingerprint() == scorer.plan.fingerprint
        assert "compiled net" in scorer.describe()

    @pytest.mark.parametrize("favoured", [DENSE_KERNEL, SPARSE_KERNEL])
    @pytest.mark.parametrize("pruned", [False, True], ids=["dense", "pruned"])
    def test_every_student_serves_through_its_plan(
        self, small_student, predictor_cache, fake_timer, pruned, favoured
    ):
        """The one network path: auto-dispatch and a plain service run a
        dense or 95%-pruned student on its stable float64 plan, whose
        bits equal the reference in every split, whichever kernel the
        measured arbitration picks."""
        from repro.serving import ScoringService

        student = small_student.clone()
        if pruned:
            LevelPruner(0.95).apply(student.network.first_layer)
            student.network.apply_masks()
        context = PricingContext(
            predictor=predictor_cache, timer=fake_timer(favoured)
        )
        scorer = make_scorer(student, context=context)
        service = ScoringService(student, context=context)
        assert scorer.backend == service.scorer.backend == "compiled-network"
        plan = scorer.plan
        assert isinstance(plan, InferencePlan)
        assert plan.stable and plan.dtype_name == "float64"
        # csr-spmm is only timed on a pruned layer
        assert (favoured if pruned else DENSE_KERNEL) in plan.kernel_counts()
        x = np.random.default_rng(17).normal(size=(2100, student.input_dim))
        expected = reference_scores(
            student.network, plan, student.normalizer.transform(x)
        )
        np.testing.assert_array_equal(scorer.score(x), expected)
        np.testing.assert_array_equal(service.score(x), expected)
        for split in (1, 17, 128, 1000):
            parts = [
                scorer.score(x[i : i + split])
                for i in range(0, len(x), split)
            ]
            np.testing.assert_array_equal(
                np.concatenate(parts), expected,
                err_msg=f"diverged at split {split}",
            )

    def test_adapter_is_chunk_invariant(self, small_student, context, rng):
        scorer = make_scorer(small_student, context=context)
        x = rng.normal(size=(41, small_student.input_dim))
        whole = scorer.score(x)
        sharded = np.concatenate(
            [scorer.score(x[i : i + 7]) for i in range(0, 41, 7)]
        )
        np.testing.assert_array_equal(whole, sharded)

    def test_service_backend_options(self, small_student, context, rng):
        from repro.runtime import ServiceConfig
        from repro.serving import ScoringService

        config = ServiceConfig(
            backend="compiled-network",
            backend_options={"plan_dtype": "float32"},
            allow_unpriced=True,
        )
        service = ScoringService(small_student, config, context=context)
        assert service.scorer.backend == "compiled-network"
        assert service.scorer.plan.dtype_name == "float32"
        x = rng.normal(size=(16, small_student.input_dim))
        scores = service.score(x)
        assert scores.shape == (16,)
        assert np.all(np.isfinite(scores))

    def test_backend_options_round_trip_and_validation(self):
        from repro.exceptions import ConfigError
        from repro.runtime import ServiceConfig

        config = ServiceConfig(
            backend="compiled-network",
            backend_options={"quantize": "int8", "plan_dtype": "float32"},
        )
        clone = ServiceConfig.from_dict(config.to_dict())
        assert clone == config
        assert clone.backend_options == {
            "quantize": "int8",
            "plan_dtype": "float32",
        }
        assert ServiceConfig().to_dict()["backend_options"] is None
        with pytest.raises(ConfigError, match="mapping"):
            ServiceConfig(backend_options="plan_dtype=float32")
        with pytest.raises(ConfigError, match="strings"):
            ServiceConfig(backend_options={1: True})


# ----------------------------------------------------------------------
# Measured kernel arbitration
# ----------------------------------------------------------------------
def _favour_on(shape, winner):
    """Fake cost: ``winner`` 2x faster on layers of ``shape``, dense 2x
    faster on every other layer."""

    def cost(kernel, docs, layer_shape):
        fast = winner if layer_shape == shape else DENSE_KERNEL
        return docs * 1e-6 * (0.5 if kernel == fast else 1.0)

    return cost


def _favour_csr_at(buckets):
    """Fake cost: csr 2x faster at ``buckets``, dense 2x faster at the
    other batch sizes, on every layer."""

    def cost(kernel, docs, shape):
        fast = SPARSE_KERNEL if docs in buckets else DENSE_KERNEL
        return docs * 1e-6 * (0.5 if kernel == fast else 1.0)

    return cost


class TestMeasuredArbitration:
    def test_faster_candidate_wins_per_layer(self, fake_timer):
        network = _network((16, 8), sparsity=0.9, seed=21, every_layer=True)
        context = PricingContext(timer=fake_timer(_favour_on((16, 12), SPARSE_KERNEL)))
        plan = compile_network(network, context=context)
        assert [lp.kernel for lp in plan.layers] == [
            SPARSE_KERNEL, DENSE_KERNEL, DENSE_KERNEL,
        ]
        first, second = plan.layers[:2]
        assert first.measured_us_per_doc(SPARSE_KERNEL) == {16: 0.5, 128: 0.5, 256: 0.5}
        assert first.measured_us_per_doc() == first.measured_us_per_doc(SPARSE_KERNEL)
        assert first.measured_us_per_doc(DENSE_KERNEL) == {16: 1.0, 128: 1.0, 256: 1.0}
        # A loser is not timed past the first bucket it loses.
        assert second.measured_us_per_doc(SPARSE_KERNEL) == {16: 1.0}
        assert "0.5 measured us/doc @256" in first.describe()
        assert "predicted/measured us/doc @256" in plan.describe()

    def test_buckets_capped_at_max_batch(self, fake_timer):
        timer = fake_timer(SPARSE_KERNEL)
        plan = compile_network(
            _network((8,), sparsity=0.9, seed=22),
            context=PricingContext(timer=timer),
            max_batch=100,
        )
        assert set(plan.layers[0].measured_us_per_doc()) == {16, 100}

    @pytest.mark.parametrize(
        "seconds, rounds", [(1e-6, TUNING_MAX_REPEATS), (1e-3, TUNING_REPEATS)]
    )
    def test_short_calls_get_more_rounds(self, fake_timer, seconds, rounds):
        """Rounds go on until a bucket's timings add up to
        TUNING_SECONDS: microsecond calls get the most, slow ones the
        fewest."""
        timer = fake_timer(lambda kernel, docs, shape: seconds)
        compile_network(
            _network((8,), sparsity=0.5, seed=29, every_layer=True),
            context=PricingContext(timer=timer),
            max_batch=16,
        )
        # Two layers, two candidates, one bucket, plus the warm-up round.
        assert timer.calls == 2 * 2 * (rounds + 1)

    @pytest.mark.parametrize("speedup", [1.05, 1.5])
    def test_sparse_must_win_by_the_margin(self, fake_timer, speedup):
        def cost(kernel, docs, shape):
            return docs * 1e-6 / (speedup if kernel == SPARSE_KERNEL else 1.0)

        plan = compile_network(
            _network((16, 8), sparsity=0.9, seed=23, every_layer=True),
            context=PricingContext(timer=fake_timer(cost)),
        )
        expected = SPARSE_KERNEL if speedup >= SPARSE_MARGIN else DENSE_KERNEL
        assert {lp.kernel for lp in plan.layers} == {expected}

    def test_recompiling_identical_weights_times_nothing(self, fake_timer, rng):
        timer = fake_timer(_favour_on((16, 12), SPARSE_KERNEL))
        context = PricingContext(timer=timer)
        first = compile_network(_network((16, 8), sparsity=0.9, seed=24), context=context, stable=True)
        calls = timer.calls
        assert calls > 0
        again = compile_network(_network((16, 8), sparsity=0.9, seed=24), context=context, stable=True)
        assert timer.calls == calls
        assert [lp.kernel for lp in again.layers] == [lp.kernel for lp in first.layers]
        assert again.fingerprint == first.fingerprint
        assert again.layers[0].measured == first.layers[0].measured
        x = rng.normal(size=(40, 12))
        np.testing.assert_array_equal(again.score(x), first.score(x))
        # Other weights, another dtype or mode: measured afresh.
        changed = _network((16, 8), sparsity=0.9, seed=24)
        changed.linears[0].weight.data[0, 0] += 1.0
        compile_network(changed, context=context, stable=True)
        assert timer.calls > calls
        calls = timer.calls
        compile_network(_network((16, 8), sparsity=0.9, seed=24), context=context)
        assert timer.calls > calls

    @pytest.mark.parametrize(
        "csr_buckets, expected",
        [
            ({16}, DENSE_KERNEL),
            ({256}, DENSE_KERNEL),
            ({16, 128}, DENSE_KERNEL),
            ({16, 128, 256}, SPARSE_KERNEL),
        ],
    )
    def test_one_kernel_per_layer_keeps_chunk_invariance(
        self, fake_timer, csr_buckets, expected
    ):
        """Whichever bucket each kernel wins, a layer keeps one kernel,
        so the stable plan's bits do not depend on the chunking."""
        network = _network(
            (300, 200, 100), input_dim=136, sparsity=0.9, seed=25, every_layer=True
        )
        plan = compile_network(
            network,
            context=PricingContext(timer=fake_timer(_favour_csr_at(csr_buckets))),
            stable=True,
        )
        assert {lp.kernel for lp in plan.layers} == {expected}
        x = np.random.default_rng(25).normal(size=(1000, 136))
        whole = plan.score(x)
        np.testing.assert_array_equal(whole, reference_scores(network, plan, x))
        for split in (1, 17, 128, 1000):
            parts = [plan.score(x[i : i + split]) for i in range(0, 1000, split)]
            np.testing.assert_array_equal(np.concatenate(parts), whole)

    def test_explicit_kernels_time_nothing(self, fake_timer):
        timer = fake_timer(SPARSE_KERNEL)
        context = PricingContext(timer=timer)
        network = _network((16, 8), sparsity=0.9, seed=26)
        plan = compile_network(
            network, context=context,
            kernels=[SPARSE_KERNEL, DENSE_KERNEL, DENSE_KERNEL],
        )
        assert all(not lp.measured for lp in plan.layers)
        assert timer.calls == 0 and len(context.tuning) == 0

    def test_quantized_plans_take_the_measured_structure(self, fake_timer):
        """A quantized plan times only the float candidates, from the
        record a float plan of the same weights shares; choosing bit
        widths times nothing.  Its measured-sparse layer and its entry
        layer stay float."""
        timer = fake_timer(_favour_on((8, 16), SPARSE_KERNEL))
        context = PricingContext(timer=timer)
        network = _network((16, 8), sparsity=0.9, seed=26, every_layer=True)
        first = compile_network(
            network, context=context, dtype="float32", quantize="int8"
        )
        calls = timer.calls
        assert calls > 0
        assert [(lp.kernel, lp.bits) for lp in first.layers] == [
            (DENSE_KERNEL, None), (SPARSE_KERNEL, None), (INT8_KERNEL, 8),
        ]
        float_plan = compile_network(network, context=context, dtype="float32")
        assert [lp.kernel for lp in float_plan.layers] == [
            DENSE_KERNEL, SPARSE_KERNEL, DENSE_KERNEL,
        ]
        assert timer.calls == calls

    def test_concurrent_compiles_agree(self, fake_timer):
        """Threads tuning the same layers at once, each timer verdict a
        coin flip, all get the first verdict stored."""
        import random
        import threading

        def coin(kernel, docs, shape):
            return random.choice((0.5, 2.0)) if kernel == SPARSE_KERNEL else 1.0

        context = PricingContext(timer=fake_timer(coin))
        network = _network((16, 8), sparsity=0.9, seed=27, every_layer=True)
        n_threads = 8
        barrier = threading.Barrier(n_threads)
        kernels: list[list[str]] = []

        def compile_once() -> None:
            barrier.wait(timeout=10)
            plan = compile_network(network, context=context)
            kernels.append([lp.kernel for lp in plan.layers])

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=compile_once) for _ in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(previous)
        assert not any(t.is_alive() for t in threads)
        assert len(kernels) == n_threads
        assert all(k == kernels[0] for k in kernels)
        assert len(context.tuning) == network.n_layers

    def test_kernels_pin_a_measured_plan(self, fake_timer, rng):
        """Another process pins the measured kernels with ``kernels=``:
        same fingerprint, same bits, nothing timed."""
        network = _network((16, 8), sparsity=0.9, seed=28)
        measured = compile_network(
            network,
            context=PricingContext(timer=fake_timer(_favour_on((16, 12), SPARSE_KERNEL))),
            stable=True,
        )
        timer = fake_timer(DENSE_KERNEL)
        pinned = compile_network(
            network,
            context=PricingContext(timer=timer),
            stable=True,
            kernels=[lp.kernel for lp in measured.layers],
        )
        assert timer.calls == 0
        assert pinned.fingerprint == measured.fingerprint
        x = rng.normal(size=(50, 12))
        np.testing.assert_array_equal(pinned.score(x), measured.score(x))

    def test_injected_timers_keep_their_own_record(self, fake_timer):
        shared = PricingContext().tuning
        assert PricingContext().tuning is shared
        assert PricingContext(timer=fake_timer(SPARSE_KERNEL)).tuning is not shared

    def test_services_on_the_same_weights_score_the_same_bits(
        self, small_student, rng
    ):
        """Each service prices on a context of its own; the shared
        tuning record still gives them the same kernels and bits."""
        from repro.runtime import PipelineConfig, ServiceConfig
        from repro.serving import ScoringService

        x = rng.normal(size=(300, 136))
        services = [
            ScoringService(small_student, ServiceConfig(backend="compiled-network"))
            for _ in range(2)
        ]
        np.testing.assert_array_equal(services[0].score(x), services[1].score(x))
        pruned = small_student.clone()
        LevelPruner(0.9).apply(pruned.network.first_layer)
        pipeline = PipelineConfig(
            stages=[
                {"model": "pruned", "backend": "compiled-network", "keep_fraction": 0.5},
                {"model": "student", "backend": "compiled-network"},
            ]
        )
        roles = {"pruned": pruned, "student": small_student}
        cascades = [
            ScoringService(roles, ServiceConfig(pipeline=pipeline, max_batch_size=None))
            for _ in range(2)
        ]
        for lo in range(0, 300, 100):
            np.testing.assert_array_equal(
                cascades[0].score(x[lo : lo + 100]), cascades[1].score(x[lo : lo + 100])
            )
        for service in services + cascades:
            service.close()


# ----------------------------------------------------------------------
# Observability
# ----------------------------------------------------------------------
class TestObservability:
    def test_compile_records_series_and_report(self, context, obs_clean):
        from repro.obs import compile_report

        network = _network((16, 8), sparsity=0.95, seed=13)
        kernels = [SPARSE_KERNEL] + [None] * (network.n_layers - 1)
        compile_network(network, context=context, kernels=kernels)
        compile_network(network, context=context, dtype="float32")
        report = compile_report()
        assert {row["dtype"] for row in report.rows} <= {"float64", "float32"}
        row = report.row("float64")
        assert row is not None
        assert row["plans"] == 1
        assert row["sparse_layers"] >= 1
        assert row["dense_layers"] + row["sparse_layers"] == network.n_layers
        assert row["buffer_bytes"] > 0
        assert row["compile_us"] > 0
        assert 0 < row["sparse_share"] < 1
        assert "float64" in report.render()

    def test_compile_emits_span(self, context, obs_clean):
        obs_clean.set_tracer(obs_clean.Tracer(enabled=True))
        compile_network(_network(seed=14), context=context)
        names = [s.name for s in obs_clean.get_tracer().root_spans()]
        assert "compile.plan" in names


# ----------------------------------------------------------------------
# CLI probe
# ----------------------------------------------------------------------
class TestCliProbe:
    def test_compile_command_prints_plan(self, capsys):
        from repro.cli import main

        main(
            [
                "compile",
                "--architecture",
                "16x8",
                "--features",
                "12",
                "--sparsity",
                "0.9",
                "--batch",
                "32",
                "--repeats",
                "2",
            ]
        )
        out = capsys.readouterr().out
        assert "csr-spmm" in out or "dense-gemm" in out
        assert "fingerprint" in out
        assert "us/doc" in out
