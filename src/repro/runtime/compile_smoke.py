"""Self-checking compiled-inference smoke run (``make compile-smoke``).

Exercises :func:`repro.runtime.compile.compile_network` end to end on a
90%-pruned-first-layer network and *asserts* the outcomes, so CI can
gate on ``python -m repro.runtime.compile_smoke``:

1. **Bit identity** — a forced-dense float64 plan must reproduce
   ``FeedForwardNetwork.predict`` bit for bit at every probed batch
   size (including 0 and 1); the auto-selected hybrid plan must match
   :func:`~repro.runtime.compile.reference_scores` the same way.
2. **Zero steady-state allocations** — repeated
   :meth:`~repro.runtime.compile.InferencePlan.execute_into` calls at a
   fixed batch size must not grow the heap (``tracemalloc``).
3. **Speedup** — the float32 plan must beat naive ``predict`` by >=
   1.3x µs/doc at batch 256 on the pruned network, with a bounded
   max-abs-error against the float64 reference.
4. **Observability** — the ``compile.*`` series must have recorded the
   plans and the report must render.

Exits non-zero on any violation.  The stable-mode chunk-invariance
contract is a tier-1 test (``tests/test_runtime_compile.py``,
``TestStableMode``), so plain pytest enforces it.
"""

from __future__ import annotations

import sys
import time
import tracemalloc

import numpy as np

#: Architecture of the probe network (the paper's 136-feature setting).
INPUT_DIM = 136
HIDDEN = (400, 200, 200, 100)
PRUNE_LEVEL = 0.90
BATCH = 256
#: Heap growth tolerated across the measured window, in bytes —
#: tracemalloc itself shows ~1 KiB of jitter; real per-call temporaries
#: for a 256x400 float64 activation would be ~800 KiB per execute.
ALLOC_TOLERANCE = 16 * 1024
#: float32 error bound; the probe net's scores sit in ReLU6's [0, 6]
#: range, so absolute error is the meaningful scale.
F32_MAX_ABS_ERR = 1e-4
MIN_SPEEDUP = 1.3


def _pruned_network():
    from repro.nn.network import FeedForwardNetwork
    from repro.pruning import LevelPruner

    network = FeedForwardNetwork(INPUT_DIM, HIDDEN, seed=3)
    LevelPruner(PRUNE_LEVEL).apply(network.first_layer)
    return network


def check_bit_identity(network, features) -> None:
    """Native float64 plans must honour the layered bit contract."""
    from repro.runtime import compile_network, reference_scores
    from repro.runtime.compile import DENSE_KERNEL, SPARSE_KERNEL

    auto = compile_network(network)
    kernels = [lp.kernel for lp in auto.layers]
    assert kernels[0] == SPARSE_KERNEL, (
        f"predictors kept the {PRUNE_LEVEL:.0%}-pruned first layer dense"
    )
    dense_plan = compile_network(
        network, kernels=[DENSE_KERNEL] * network.n_layers
    )
    for n in (0, 1, 2, 3, 17, BATCH, len(features)):
        chunk = features[:n]
        got = auto.score(chunk)
        np.testing.assert_array_equal(
            got,
            reference_scores(network, auto, chunk),
            err_msg=f"hybrid float64 plan diverged at batch {n}",
        )
        np.testing.assert_array_equal(
            got,
            reference_scores(network, auto, chunk, strict_spmm=True),
            err_msg=f"hybrid plan diverged from strict SpMM at batch {n}",
        )
        if n > 0:  # predict rejects empty input by contract
            np.testing.assert_array_equal(
                dense_plan.score(chunk),
                network.predict(chunk),
                err_msg=f"forced-dense float64 plan != predict at batch {n}",
            )
    print(
        f"bit-identity: float64 plans reproduce predict and the hybrid "
        f"reference exactly (kernels: {', '.join(kernels)})"
    )


def check_zero_allocations(network, features) -> None:
    """Steady-state ``execute_into`` must not touch the heap, in native
    and in stable (served) mode."""
    from repro.runtime import compile_network

    chunk = np.ascontiguousarray(features[:BATCH])
    out = np.empty(BATCH)
    for stable in (False, True):
        plan = compile_network(network, stable=stable)
        plan.execute_into(chunk, out)  # build the views for this batch size
        tracemalloc.start()
        before, _ = tracemalloc.get_traced_memory()
        for _ in range(100):
            plan.execute_into(chunk, out)
        after, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        grown = after - before
        mode = "stable" if stable else "native"
        assert grown <= ALLOC_TOLERANCE, (
            f"steady-state {mode} scoring grew the heap by {grown} bytes "
            f"(tolerance {ALLOC_TOLERANCE})"
        )
        print(
            f"allocations: 100 steady-state {mode} executes grew "
            f"{grown} bytes"
        )


def _best_of(fn, repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def check_speedup(network, features) -> None:
    """float32 plan >= 1.3x over naive predict, with bounded error."""
    from repro.runtime import compile_network

    chunk = np.ascontiguousarray(features[:BATCH])
    f32 = compile_network(network, dtype="float32")
    reference = network.predict(chunk)
    err = float(np.abs(f32.score(chunk) - reference).max())
    assert err <= F32_MAX_ABS_ERR, (
        f"float32 plan error {err:.2e} exceeds the {F32_MAX_ABS_ERR:.0e} bound"
    )
    naive = _best_of(lambda: network.predict(chunk)) * 1e6 / BATCH
    compiled = _best_of(lambda: f32.score(chunk)) * 1e6 / BATCH
    speedup = naive / compiled
    assert speedup >= MIN_SPEEDUP, (
        f"float32 plan must be >= {MIN_SPEEDUP}x over predict, got "
        f"{speedup:.2f}x (naive {naive:.1f} us/doc, plan {compiled:.1f})"
    )
    print(
        f"speedup: float32 plan {speedup:.2f}x over predict "
        f"({naive:.1f} -> {compiled:.1f} us/doc at batch {BATCH}, "
        f"max abs err {err:.1e})"
    )


def check_observability() -> None:
    """The compile.* series must reflect the plans just built."""
    from repro import obs

    report = obs.compile_report()
    assert report.rows, "no compile.* series recorded"
    f64 = report.dtype("float64")
    assert f64 is not None and f64.plans >= 3, "float64 plans not recorded"
    assert f64.sparse_layers > 0, "no sparse kernel choices recorded"
    assert f64.buffer_bytes > 0 and f64.compile_us > 0
    rendered = report.render()
    assert "Compiled plans" in rendered and "float64" in rendered
    print(
        f"obs: {sum(row.plans for row in report.rows)} plans recorded, "
        f"float64 sparse share {f64.sparse_share:.0%}"
    )


def main() -> int:
    from repro.runtime import compile_network

    rng = np.random.default_rng(11)
    network = _pruned_network()
    features = rng.standard_normal((512, INPUT_DIM))

    check_bit_identity(network, features)
    check_zero_allocations(network, features)
    check_speedup(network, features)
    check_observability()

    from repro import obs

    plan = compile_network(network)
    print()
    print(plan.describe())
    for lp in plan.layers:
        print(f"  {lp.describe()}")
    print()
    print(obs.compile_report().render())
    print(
        "compile-smoke: plans are bit-exact, allocation-free and faster "
        "than naive scoring"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
