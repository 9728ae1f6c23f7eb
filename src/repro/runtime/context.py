"""Shared pricing state for the scoring runtime.

A :class:`PricingContext` bundles every calibrated cost model a backend
may need — the QuickScorer analytic model, its GPU variant, the dense +
sparse network predictor, and the quantized-timing scaling — behind lazy
construction, so contexts are cheap to create and the expensive GFLOPS
calibration only runs when a network is actually priced.

One process-wide default context backs ``make_scorer``/``price`` when no
explicit context is passed; its :class:`NetworkTimePredictor` is the
library-wide shared instance (also handed out by
``EfficientRankingPipeline.network_predictor``), so every layer prices
against the same calibration.

A context also carries the *kernel timer* and the :class:`TuningRecord`
of :func:`~repro.runtime.compile.compile_network`'s measured kernel
arbitration.  Every context on the default :func:`wall_timer` shares
one process-wide record, so two services built on the same weights
compile the same kernels (hence the same bits) and only the first build
pays for the timing; a context with an injected timer keeps a record of
its own, so fake timings never leak into real plans.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.quickscorer.cost import QuickScorerCostModel
from repro.timing.network_predictor import NetworkTimePredictor

_SHARED_PREDICTOR: NetworkTimePredictor | None = None


def shared_predictor() -> NetworkTimePredictor:
    """The lazily-built, process-wide dense+sparse time predictor."""
    global _SHARED_PREDICTOR
    if _SHARED_PREDICTOR is None:
        _SHARED_PREDICTOR = NetworkTimePredictor()
    return _SHARED_PREDICTOR


def wall_timer(run, *, kernel: str, docs: int, shape: tuple[int, int]) -> float:
    """Wall seconds one call of ``run`` takes: the default kernel timer.

    ``kernel`` (a compiled kernel name), ``docs`` (the batch size) and
    ``shape`` (the layer's ``(out_width, in_width)``) say what is being
    timed; an injected timer may use them to return fake timings without
    calling ``run`` at all.
    """
    start = time.perf_counter()
    run()
    return time.perf_counter() - start


@dataclass(frozen=True)
class LayerTuning:
    """One layer's measured kernel arbitration.

    ``kernel`` is the chosen kernel; ``timings`` holds ``(kernel, docs,
    us_per_doc)`` rows, best of the interleaved rounds, for every
    candidate at every batch bucket it was timed at.
    """

    kernel: str
    timings: tuple[tuple[str, int, float], ...]


class TuningRecord:
    """Thread-safe memo of measured per-layer kernel choices.

    Keys name what was measured (layer weight/bias digest, dtype, stable
    mode, candidate set, batch buckets); values are
    :class:`LayerTuning`.  The first verdict stored for a key wins, so
    two threads tuning the same layer at once still agree.
    """

    def __init__(self) -> None:
        self._entries: dict[tuple, LayerTuning] = {}
        self._lock = threading.Lock()

    def get(self, key: tuple) -> LayerTuning | None:
        return self._entries.get(key)

    def settle(self, key: tuple, tuning: LayerTuning) -> LayerTuning:
        """Store ``tuning`` unless a verdict exists; return the kept one."""
        with self._lock:
            return self._entries.setdefault(key, tuning)

    def __len__(self) -> int:
        return len(self._entries)


#: The record every context on the default timer shares.
_SHARED_TUNING = TuningRecord()


class PricingContext:
    """Cost models and kernel timing shared by every scorer backend.

    Parameters
    ----------
    predictor:
        Network time predictor; defaults to the process-wide shared
        instance (built on first use).
    qs_cost:
        QuickScorer cost model for tree ensembles.
    gpu_cost:
        GPU QuickScorer cost model; defaults to one wrapping ``qs_cost``.
    quantized_efficiency, quantized_sparse_efficiency:
        Fractions of the SIMD lane-ratio ceiling the int8 dense/sparse
        kernels sustain (see :mod:`repro.timing.quantized`).
    timer:
        Kernel timer of the compile-time arbitration, called as
        ``timer(run, kernel=, docs=, shape=)`` and returning seconds
        (default :func:`wall_timer`).  An injected timer gets a
        :attr:`tuning` record of its own.
    """

    def __init__(
        self,
        *,
        predictor: NetworkTimePredictor | None = None,
        qs_cost: QuickScorerCostModel | None = None,
        gpu_cost=None,
        quantized_efficiency: float = 0.6,
        quantized_sparse_efficiency: float = 0.8,
        timer=None,
    ) -> None:
        self._predictor = predictor
        self.qs_cost = qs_cost or QuickScorerCostModel()
        self._gpu_cost = gpu_cost
        self.quantized_efficiency = quantized_efficiency
        self.quantized_sparse_efficiency = quantized_sparse_efficiency
        self.timer = timer or wall_timer
        #: measured kernel choices of the plans compiled on this context
        self.tuning = _SHARED_TUNING if timer is None else TuningRecord()

    @property
    def predictor(self) -> NetworkTimePredictor:
        """The network time predictor (lazily resolved)."""
        if self._predictor is None:
            self._predictor = shared_predictor()
        return self._predictor

    @property
    def gpu_cost(self):
        """GPU QuickScorer cost model, built around :attr:`qs_cost`."""
        if self._gpu_cost is None:
            from repro.quickscorer.gpu import GpuQuickScorerCostModel

            self._gpu_cost = GpuQuickScorerCostModel(cpu_model=self.qs_cost)
        return self._gpu_cost

    def quantized_timing(self, bits: int = 8):
        """The int-``bits`` timing model over this context's predictor."""
        from repro.timing.quantized import QuantizedTimingModel

        if not 2 <= bits <= 16:
            raise ValueError(f"bits must be in [2, 16], got {bits}")
        return QuantizedTimingModel(
            self.predictor,
            lane_ratio=32.0 / bits,
            efficiency=self.quantized_efficiency,
            sparse_efficiency=self.quantized_sparse_efficiency,
        )


_DEFAULT_CONTEXT: PricingContext | None = None


def default_context() -> PricingContext:
    """The process-wide default :class:`PricingContext`."""
    global _DEFAULT_CONTEXT
    if _DEFAULT_CONTEXT is None:
        _DEFAULT_CONTEXT = PricingContext()
    return _DEFAULT_CONTEXT


def set_default_context(context: PricingContext) -> PricingContext:
    """Install a new default context, returning the previous one."""
    global _DEFAULT_CONTEXT
    previous = default_context()
    _DEFAULT_CONTEXT = context
    return previous
