"""Compile gates: compiled plans are bit-exact, allocation-free and
faster than naive scoring, end to end, on a 90%-pruned-first-layer net.

1. Bit identity — a forced-dense float64 plan reproduces ``predict``
   bit for bit at every probed batch size (0 and 1 included); the
   measured plan reproduces ``reference_scores`` (and the strict
   per-non-zero SpMM loop) whichever kernel the timer makes win on the
   pruned first layer.
2. Zero allocations — steady-state ``execute_into`` keeps the heap
   flat, in native and in stable (served) mode.
3. Speedup — the float32 plan beats naive ``predict`` at batch 256, as
   an interleaved best-of-N ratio, with a bounded error.
4. Observability — the ``compile.*`` series record the plans, their
   kernel choices and their tuning time, and the report renders.
"""

from __future__ import annotations

import time
import tracemalloc

import numpy as np
import pytest

from repro.runtime import PricingContext, compile_network, reference_scores
from repro.runtime.compile import DENSE_KERNEL, SPARSE_KERNEL
from repro.runtime.context import wall_timer

#: Heap growth tolerated across the measured window, in bytes —
#: tracemalloc itself shows ~1 KiB of jitter; real per-call temporaries
#: for a 256x400 float64 activation would be ~800 KiB per execute.
ALLOC_TOLERANCE = 16 * 1024
#: float32 error bound; the net's scores sit in ReLU6's [0, 6] range,
#: so absolute error is the meaningful scale.
F32_MAX_ABS_ERR = 1e-4
MIN_SPEEDUP = 1.3
BATCH = 256


@pytest.mark.parametrize("winner", [SPARSE_KERNEL, DENSE_KERNEL])
def test_bit_identity(pruned_network, gate_features, fake_timer, winner):
    network = pruned_network
    context = PricingContext(timer=fake_timer(winner))
    auto = compile_network(network, context=context)
    kernels = [lp.kernel for lp in auto.layers]
    # only the pruned first layer times csr-spmm; dense layers stay GEMM
    assert kernels == [winner] + [DENSE_KERNEL] * (network.n_layers - 1)
    dense_plan = compile_network(
        network, context=context, kernels=[DENSE_KERNEL] * network.n_layers
    )
    for n in (0, 1, 2, 3, 17, BATCH, len(gate_features)):
        chunk = gate_features[:n]
        got = auto.score(chunk)
        np.testing.assert_array_equal(
            got, reference_scores(network, auto, chunk),
            err_msg=f"measured float64 plan diverged at batch {n}",
        )
        np.testing.assert_array_equal(
            got, reference_scores(network, auto, chunk, strict_spmm=True),
            err_msg=f"measured plan diverged from strict SpMM at batch {n}",
        )
        if n > 0:  # predict rejects empty input by contract
            np.testing.assert_array_equal(
                dense_plan.score(chunk), network.predict(chunk),
                err_msg=f"forced-dense float64 plan != predict at batch {n}",
            )


@pytest.mark.parametrize("stable", [False, True], ids=["native", "stable"])
def test_zero_allocations(pruned_network, gate_features, fake_timer, stable):
    context = PricingContext(timer=fake_timer(SPARSE_KERNEL))
    plan = compile_network(pruned_network, context=context, stable=stable)
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
        f"100 steady-state executes grew the heap by {after - before} bytes"
    )


def test_float32_speedup(pruned_network, gate_features):
    """The measured float32 plan (real timer) against naive ``predict``,
    timed alternately so a slow spell of the host hits both."""
    chunk = np.ascontiguousarray(gate_features[:BATCH])
    f32 = compile_network(
        pruned_network, context=PricingContext(timer=wall_timer), dtype="float32"
    )
    err = float(np.abs(f32.score(chunk) - pruned_network.predict(chunk)).max())
    assert err <= F32_MAX_ABS_ERR, f"float32 plan error {err:.2e}"
    naive = compiled = float("inf")
    for _ in range(7):
        start = time.perf_counter()
        pruned_network.predict(chunk)
        naive = min(naive, time.perf_counter() - start)
        start = time.perf_counter()
        f32.score(chunk)
        compiled = min(compiled, time.perf_counter() - start)
    assert naive / compiled >= MIN_SPEEDUP, (
        f"float32 plan {naive / compiled:.2f}x over predict "
        f"(naive {naive * 1e6 / BATCH:.1f}, plan {compiled * 1e6 / BATCH:.1f} "
        f"us/doc), below {MIN_SPEEDUP}x"
    )


@pytest.mark.parametrize("winner", [SPARSE_KERNEL, DENSE_KERNEL])
def test_observability(pruned_network, fake_timer, obs_clean, winner):
    timer = fake_timer(winner)
    context = PricingContext(timer=timer)
    compile_network(pruned_network, context=context)
    calls = timer.calls
    compile_network(pruned_network, context=context)  # memoized
    assert timer.calls == calls
    compile_network(
        pruned_network, context=context,
        kernels=[DENSE_KERNEL] * pruned_network.n_layers,
    )
    report = obs_clean.compile_report()
    f64 = report.row("float64")
    assert f64 is not None and f64["plans"] == 3
    layers = pruned_network.n_layers
    # one pruned layer in each of the two measured plans
    expected_sparse = 2 if winner == SPARSE_KERNEL else 0
    assert f64["sparse_layers"] == expected_sparse
    assert f64["dense_layers"] == 3 * layers - expected_sparse
    assert f64["buffer_bytes"] > 0 and f64["compile_us"] > 0
    assert f64["tune_us"] > 0
    rendered = report.render()
    assert "Compiled plans" in rendered and "tuning" in rendered


def test_observability_real_timer_records_tuning(pruned_network, obs_clean):
    # A fresh timer means a fresh tuning record, so this compile times.
    context = PricingContext(timer=wall_timer)
    plan = compile_network(pruned_network, context=context, max_batch=128)
    row = obs_clean.compile_report().row("float64")
    assert row["tune_us"] > 0
    first, *unpruned = plan.layers
    assert set(first.measured_us_per_doc()) == {16, 128}, first.describe()
    assert "measured" in first.describe()
    # GEMM is an unpruned layer's only candidate: nothing to time
    assert not any(lp.measured for lp in unpruned)
    assert "predicted/measured" in plan.describe()

