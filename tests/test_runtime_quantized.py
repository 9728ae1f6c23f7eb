"""Tests for the int8 and block-sparse compiled kernels.

Covers the quantized side of ``repro.runtime.compile``: the declared
score-tolerance contract against the float64 reference, exact-integer
chunk invariance under ``stable=True``, per-layer kernel arbitration
(including the forced-override error paths), fingerprint separation of
quantized vs float plans in :class:`~repro.runtime.ScoreCache`, the
:func:`~repro.nn.quantization.quantized_speedup_estimate` ceiling
against measured plan timings, and the extended ``repro compile`` CLI.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.network import FeedForwardNetwork
from repro.nn.quantization import quantized_speedup_estimate
from repro.pruning import ColumnBlockPruner
from repro.runtime import (
    CompileError,
    PricingContext,
    ScoreCache,
    compile_network,
    make_scorer,
    reference_scores,
)
from repro.runtime.compile import (
    BLOCK_KERNEL,
    DENSE_KERNEL,
    INT8_KERNEL,
    INT8_MAX_IN_WIDTH,
    SPARSE_KERNEL,
)


@pytest.fixture(scope="module")
def context(predictor_cache, dense_timer):
    return PricingContext(predictor=predictor_cache, timer=dense_timer)


def _network(
    hidden=(16, 8), input_dim=12, sparsity=0.0, seed=0, block_cols=4
) -> FeedForwardNetwork:
    network = FeedForwardNetwork(input_dim, hidden, seed=seed)
    if sparsity > 0:
        ColumnBlockPruner(sparsity, block_cols=block_cols).apply(
            network.first_layer
        )
        network.apply_masks()
    return network


ARCHITECTURES = [(8,), (16, 8), (24, 12, 6)]


# ----------------------------------------------------------------------
# Tolerance contract (hypothesis property a)
# ----------------------------------------------------------------------
class TestToleranceContract:
    @given(
        arch=st.sampled_from(ARCHITECTURES),
        n=st.sampled_from([1, 2, 17, 64]),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_int8_tolerance_on_fresh_batches(self, context, arch, n, seed):
        # The deviation batch and the test batches come from the same
        # distribution; the declared tolerance (3x the measured
        # deviation, floored) must bound the deviation on fresh batches
        # too.
        network = _network(arch, seed=seed)
        rng = np.random.default_rng(seed)
        plan = compile_network(
            network, context=context, dtype="float32", quantize="int8"
        )
        assert plan.score_tolerance is not None and plan.score_tolerance > 0
        assert plan.kernel_counts().get(INT8_KERNEL, 0) >= 1
        features = rng.standard_normal((n, network.input_dim))
        deviation = np.abs(
            plan.score(features) - reference_scores(network, plan, features)
        )
        assert deviation.max() <= plan.score_tolerance

    def test_int8_within_declared_tolerance(self, context, rng):
        network = _network((24, 12, 6), sparsity=0.5)
        plan = compile_network(
            network, context=context, dtype="float32", quantize="int8"
        )
        features = rng.standard_normal((96, network.input_dim))
        deviation = np.abs(
            plan.score(features) - reference_scores(network, plan, features)
        )
        assert deviation.max() <= plan.score_tolerance

    def test_forced_tolerance_is_published_or_raises(self, context):
        network = _network((16, 8))
        plan = compile_network(
            network,
            context=context,
            dtype="float32",
            quantize="int8",
            tolerance=0.5,
        )
        assert plan.score_tolerance == 0.5
        with pytest.raises(CompileError, match="above the declared"):
            compile_network(
                network,
                context=context,
                dtype="float32",
                quantize="int8",
                tolerance=1e-12,
            )

    def test_float_plans_declare_no_tolerance(self, context):
        plan = compile_network(_network(), context=context, dtype="float32")
        assert plan.score_tolerance is None
        assert plan.kernel_counts().keys() <= {DENSE_KERNEL, SPARSE_KERNEL}

    @pytest.mark.parametrize("quantize", ["int16", "auto", "int4"])
    def test_only_int8_quantizes(self, context, quantize):
        with pytest.raises(CompileError, match="None, 'none' or 'int8'"):
            compile_network(
                _network(), context=context, dtype="float32", quantize=quantize
            )


# ----------------------------------------------------------------------
# Chunk invariance (hypothesis property b)
# ----------------------------------------------------------------------
class TestStableQuantizedInvariance:
    @given(
        n=st.integers(1, 48),
        split=st.integers(1, 48),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_stable_quantized_is_chunk_invariant(
        self, context, n, split, seed
    ):
        # Exact integer accumulation makes the quantized kernels
        # order-independent; stable=True extends the guarantee to the
        # float layers, so the whole plan must be shard-invariant.
        network = _network((16, 8), seed=seed)
        plan = compile_network(
            network,
            context=context,
            dtype="float32",
            quantize="int8",
            stable=True,
        )
        features = np.random.default_rng(seed).standard_normal(
            (n, network.input_dim)
        )
        whole = plan.score(features)
        parts = [
            plan.score(features[i : i + split]) for i in range(0, n, split)
        ]
        np.testing.assert_array_equal(np.concatenate(parts), whole)


# ----------------------------------------------------------------------
# Per-layer arbitration and forced overrides
# ----------------------------------------------------------------------
class TestKernelArbitration:
    def test_all_kernel_names_accepted_as_overrides(self, context):
        network = _network((16, 8, 8), input_dim=16, sparsity=0.75)
        kernels = [BLOCK_KERNEL, INT8_KERNEL, SPARSE_KERNEL, DENSE_KERNEL]
        plan = compile_network(
            network,
            context=context,
            dtype="float32",
            kernels=kernels,
            block_shape=(16, 4),
        )
        assert [lp.kernel for lp in plan.layers] == kernels

    def test_unknown_override_rejected(self, context):
        with pytest.raises(CompileError, match="unknown kernel"):
            compile_network(
                _network((16, 8)),
                context=context,
                kernels=["dense-gemm", "int4-gemm", None],
            )

    def test_forced_int8_beyond_accumulation_bound_raises(self, context):
        network = FeedForwardNetwork(8, (INT8_MAX_IN_WIDTH + 1, 4), seed=0)
        with pytest.raises(CompileError, match="exact-accumulation bound"):
            compile_network(
                network,
                context=context,
                dtype="float32",
                kernels=[None, INT8_KERNEL, None],
            )

    def test_int8_leaves_wide_layers_float(self, context):
        # quantize="int8" must leave the layer whose input exceeds the
        # exact-accumulation bound on the float GEMM instead of raising.
        network = FeedForwardNetwork(8, (INT8_MAX_IN_WIDTH + 1, 4), seed=0)
        plan = compile_network(
            network, context=context, dtype="float32", quantize="int8"
        )
        wide = plan.layers[1]
        assert wide.in_width > INT8_MAX_IN_WIDTH
        assert wide.kernel == DENSE_KERNEL and wide.bits is None
        assert plan.layers[2].kernel == INT8_KERNEL

    def test_forced_int8_without_relu6_input_raises(self, context):
        # The entry layer's raw features have no bound: any fixed int8
        # input scale would clip some serving row.
        with pytest.raises(CompileError, match="no ReLU6 bounds"):
            compile_network(
                _network((16, 8)),
                context=context,
                dtype="float32",
                kernels=[INT8_KERNEL, None, None],
            )

    def test_forced_block_without_stored_blocks_raises(self, context):
        network = _network((8,), input_dim=8)
        network.first_layer.weight.data[:] = 0.0
        with pytest.raises(CompileError, match="no stored blocks"):
            compile_network(
                network,
                context=context,
                dtype="float32",
                kernels=[BLOCK_KERNEL, None],
            )

    def test_forced_block_in_float64_raises(self, context):
        network = _network((16, 8), input_dim=16, sparsity=0.75)
        with pytest.raises(CompileError, match="float32 only"):
            compile_network(
                network, context=context, kernels=[BLOCK_KERNEL, None, None]
            )

    def test_float64_block_sparse_times_no_block_candidate(self, fake_timer):
        asked: list[str] = []

        def favour_block(kernel, docs, shape):
            asked.append(kernel)
            return docs * 1e-6 * (0.5 if kernel == BLOCK_KERNEL else 1.0)

        network = _network((64, 8), input_dim=64, sparsity=0.9, block_cols=8)
        plan = compile_network(
            network,
            context=PricingContext(timer=fake_timer(favour_block)),
            block_sparse=True,
        )
        assert asked and BLOCK_KERNEL not in asked
        assert BLOCK_KERNEL not in plan.kernel_counts()

    def test_block_sparse_times_block_only_on_pruned_layers(
        self, fake_timer
    ):
        """136 -> 400 -> 200 -> 100 with a column-block-pruned first
        layer: only that layer regroups, so only it times block-spmm,
        and only it (the one layer with a zero weight) times csr-spmm."""
        pytest.importorskip("scipy")
        timed: dict[str, set[tuple[int, int]]] = {}

        def favour_block_on_l1(kernel, docs, shape):
            timed.setdefault(kernel, set()).add(shape)
            faster = kernel == BLOCK_KERNEL and shape == (400, 136)
            return docs * 1e-6 * (0.5 if faster else 1.0)

        network = _network(
            (400, 200, 100), input_dim=136, sparsity=0.9, block_cols=8
        )
        options = dict(dtype="float32", block_shape=(64, 8))
        plan = compile_network(
            network,
            context=PricingContext(timer=fake_timer(favour_block_on_l1)),
            block_sparse=True,
            **options,
        )
        assert timed[BLOCK_KERNEL] == {(400, 136)}
        assert timed[SPARSE_KERNEL] == {(400, 136)}
        chosen = [BLOCK_KERNEL] + [DENSE_KERNEL] * 3
        assert [lp.kernel for lp in plan.layers] == chosen
        forced = compile_network(network, kernels=chosen, **options)
        x = np.random.default_rng(4).standard_normal((64, 136))
        np.testing.assert_array_equal(plan.score(x), forced.score(x))

    def test_explicit_float_kernel_exempts_layer_from_quantize(
        self, context
    ):
        network = _network((16, 8))
        free = compile_network(
            network, context=context, dtype="float32", quantize="int8"
        )
        assert free.layers[-1].bits == 8  # quantized when unforced
        forced = compile_network(
            network,
            context=context,
            dtype="float32",
            quantize="int8",
            kernels=[None, None, DENSE_KERNEL],
        )
        assert forced.layers[-1].kernel == DENSE_KERNEL
        assert forced.layers[-1].bits is None

    def test_sparse_layers_stay_float_under_quantize(self, fake_timer):
        network = _network((64, 8), input_dim=64, sparsity=0.9, block_cols=8)
        plan = compile_network(
            network,
            context=PricingContext(timer=fake_timer(BLOCK_KERNEL)),
            dtype="float32",
            quantize="int8",
            block_sparse=True,
        )
        assert plan.layers[0].kernel == BLOCK_KERNEL
        for lp in plan.layers:
            if lp.kernel in (SPARSE_KERNEL, BLOCK_KERNEL):
                assert lp.bits is None

    def test_kernel_counts_sums_to_layers(self, context):
        network = _network((24, 12, 6), sparsity=0.5)
        plan = compile_network(
            network, context=context, dtype="float32", quantize="int8"
        )
        counts = plan.kernel_counts()
        assert sum(counts.values()) == network.n_layers
        assert all(n > 0 for n in counts.values())


# ----------------------------------------------------------------------
# ScoreCache separation
# ----------------------------------------------------------------------
class TestScoreCacheSeparation:
    def test_int8_and_float_plans_never_share_entries(
        self, small_student, rng
    ):
        # Regression: a quantized plan's fingerprint must differ from
        # the float plan's for the same weights, so a shared ScoreCache
        # keyed by fingerprint can never serve one plan's (approximate)
        # scores to the other.
        from repro.utils.rowkeys import row_keys

        f32 = make_scorer(small_student, plan_dtype="float32")
        int8 = make_scorer(
            small_student, quantize="int8", plan_dtype="float32"
        )
        assert f32.fingerprint() != int8.fingerprint()

        features = rng.standard_normal((16, 136))
        digests = row_keys(features)
        cache = ScoreCache(capacity=256)
        cache.put_many(int8.fingerprint(), digests, int8.score(features))

        _, hits = cache.get_many(f32.fingerprint(), digests)
        assert not hits.any(), (
            "float32 lookups hit entries cached under the int8 plan"
        )
        values, hits = cache.get_many(int8.fingerprint(), digests)
        assert hits.all()
        np.testing.assert_array_equal(values, int8.score(features))

    def test_invalidating_one_plan_keeps_the_other(
        self, small_student, rng
    ):
        from repro.utils.rowkeys import row_keys

        f32 = make_scorer(small_student, plan_dtype="float32")
        int8 = make_scorer(
            small_student, quantize="int8", plan_dtype="float32"
        )
        features = rng.standard_normal((8, 136))
        digests = row_keys(features)
        cache = ScoreCache(capacity=64)
        cache.put_many(f32.fingerprint(), digests, f32.score(features))
        cache.put_many(int8.fingerprint(), digests, int8.score(features))
        assert cache.invalidate(int8.fingerprint()) == len(digests)
        _, hits = cache.get_many(f32.fingerprint(), digests)
        assert hits.all()


# ----------------------------------------------------------------------
# Speedup-estimate ceiling
# ----------------------------------------------------------------------
class TestSpeedupEstimateCeiling:
    def test_estimate_bounds_measured_plan_speedup(self, context):
        # The SIMD lane-ratio estimate is a ceiling: real kernels pay
        # quantize/dequantize overhead, so the measured int8-over-f32
        # plan speedup must not exceed the FLOPs-weighted estimate.
        import time

        network = _network((400, 200, 100), input_dim=136, seed=3)
        f32 = compile_network(network, context=context, dtype="float32")
        quant = compile_network(
            network, context=context, dtype="float32", quantize="int8"
        )
        estimate = quantized_speedup_estimate(
            network, bits_per_layer=[lp.bits for lp in quant.layers]
        )
        assert estimate > 1.0

        features = np.random.default_rng(0).standard_normal((256, 136))

        def best_of(plan, repeats=5):
            best = float("inf")
            for _ in range(repeats):
                start = time.perf_counter()
                plan.score(features)
                best = min(best, time.perf_counter() - start)
            return best

        measured = best_of(f32) / best_of(quant)
        assert measured <= estimate, (
            f"measured int8 speedup {measured:.2f}x exceeds the "
            f"theoretical estimate {estimate:.2f}x"
        )

    def test_estimate_weights_layers_by_flops(self):
        network = _network((8, 8), input_dim=8)
        all_int8 = quantized_speedup_estimate(
            network, bits_per_layer=[8, 8, 8]
        )
        mixed = quantized_speedup_estimate(
            network, bits_per_layer=[8, 16, None]
        )
        assert all_int8 == pytest.approx(4.0)
        assert 1.0 < mixed < all_int8

    def test_bits_per_layer_length_validated(self):
        network = _network((8,), input_dim=8)
        with pytest.raises(ValueError, match="bits_per_layer"):
            quantized_speedup_estimate(network, bits_per_layer=[8])


# ----------------------------------------------------------------------
# CLI probe
# ----------------------------------------------------------------------
class TestCliProbe:
    def test_compile_command_prints_quantized_plan(self, capsys):
        from repro.cli import main

        main(
            [
                "compile",
                "--architecture",
                "32x16",
                "--features",
                "24",
                "--sparsity",
                "0.9",
                "--pruner",
                "column-block",
                "--dtype",
                "float32",
                "--quantize",
                "int8",
                "--block-sparse",
                "--block-shape",
                "32x8",
                "--batch",
                "64",
                "--repeats",
                "2",
            ]
        )
        out = capsys.readouterr().out
        assert "int8" in out
        assert "declared score tolerance" in out
        assert "fingerprint" in out
        assert "dtype" in out and "fill" in out

    def test_compile_command_rejects_bad_block_shape(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["compile", "--block-shape", "64by8"])
