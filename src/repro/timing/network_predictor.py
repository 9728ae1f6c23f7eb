"""Whole-network scoring-time prediction (Sections 5.2 and 6).

Combines the dense predictor (Eq. 3 over the GFLOPS surface) and the
sparse predictor (Eq. 5) into the hybrid model the paper designs with:
a network whose *first* layer has been pruned to high sparsity runs the
first layer through the sparse kernel and the remaining layers densely.

Tables 10-11 of the paper forecast a pruned model's time by subtracting
the dense first layer's contribution from the total, arguing the sparse
residual is negligible at >= 95% sparsity; this module provides both that
forecast (:meth:`NetworkTimePredictor.pruned_forecast_us`) and the full
hybrid estimate with the sparse layer's Eq. 5 cost included.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.matmul.blocks import BlockCsrMatrix
from repro.matmul.csr import CsrMatrix
from repro.timing.calibration import calibrate_sparse_predictor
from repro.timing.dense_predictor import DenseTimePredictor, LayerTime
from repro.timing.sparse_predictor import SparseTimePredictor

#: Gather + panel-bookkeeping overhead of block-SpMM over a dense GEMM
#: at the gathered (m x k_eff) shape.  The block kernel runs the same
#: GEMM micro-kernel after compacting the active columns, so its cost is
#: the dense cost of the compacted shape plus the gather traffic.
BLOCK_KERNEL_OVERHEAD = 1.25


@dataclass(frozen=True)
class NetworkTimeReport:
    """Predicted timing of one architecture."""

    input_dim: int
    layers: tuple[int, ...]
    batch_size: int
    layer_times: tuple[LayerTime, ...]
    dense_total_us_per_doc: float
    first_layer_impact_pct: float
    sparse_first_layer_us_per_doc: float | None
    hybrid_total_us_per_doc: float | None
    pruned_forecast_us_per_doc: float

    def describe(self) -> str:
        """Architecture in the paper's ``a x b x c`` notation."""
        return "x".join(str(w) for w in self.layers)


class NetworkTimePredictor:
    """Hybrid dense + sparse scoring-time predictor for FFN rankers."""

    def __init__(
        self,
        dense: DenseTimePredictor | None = None,
        sparse: SparseTimePredictor | None = None,
        *,
        sparse_batch: int = 64,
    ) -> None:
        self.dense = dense or DenseTimePredictor()
        self.sparse = sparse or calibrate_sparse_predictor()
        self.sparse_batch = sparse_batch

    # ------------------------------------------------------------------
    def predict(
        self,
        input_dim: int,
        layers,
        *,
        first_layer_sparsity: float | None = None,
        first_layer_matrix: CsrMatrix | None = None,
    ) -> NetworkTimeReport:
        """Full timing report for an architecture.

        Parameters
        ----------
        first_layer_sparsity:
            Planned sparsity of the first layer; uses the worst-case
            (all rows/columns active) Eq. 5 estimate.
        first_layer_matrix:
            The actual pruned weight matrix; uses its measured structure
            instead of the worst case.  Takes precedence.
        """
        layer_times = tuple(self.dense.layer_times(input_dim, layers))
        batch = self.dense.batch_size
        total_us = sum(lt.time_us for lt in layer_times)
        dense_per_doc = total_us / batch
        first_share = layer_times[0].time_us / total_us
        forecast = dense_per_doc * (1.0 - first_share)

        sparse_per_doc = None
        hybrid = None
        if first_layer_matrix is not None:
            sparse_us = self.sparse.time_for(
                first_layer_matrix, self.sparse_batch
            )
            sparse_per_doc = sparse_us / self.sparse_batch
        elif first_layer_sparsity is not None:
            m = layer_times[0].out_width
            k = layer_times[0].in_width
            sparse_us = self.sparse.worst_case_time_us(
                m, k, first_layer_sparsity, self.sparse_batch
            )
            sparse_per_doc = sparse_us / self.sparse_batch
        if sparse_per_doc is not None:
            hybrid = forecast + sparse_per_doc

        return NetworkTimeReport(
            input_dim=input_dim,
            layers=tuple(int(v) for v in layers),
            batch_size=batch,
            layer_times=layer_times,
            dense_total_us_per_doc=dense_per_doc,
            first_layer_impact_pct=100.0 * first_share,
            sparse_first_layer_us_per_doc=sparse_per_doc,
            hybrid_total_us_per_doc=hybrid,
            pruned_forecast_us_per_doc=forecast,
        )

    def layer_kernel_times(self, matrix: CsrMatrix) -> tuple[float, float]:
        """Per-document dense-vs-sparse cost of one weight matrix.

        The arbitration rule behind ahead-of-time kernel selection
        (:func:`repro.runtime.compile.compile_network`): the dense side
        prices ``2mk`` FLOPs at the measured GFLOPS of the layer's
        shape (Eq. 3's per-layer term), the sparse side runs the
        matrix's measured structure through Eq. 5 at the calibrated
        ``sparse_batch``.  Returns ``(dense_us, sparse_us)`` per doc.
        """
        m, k = matrix.shape
        dense_us = 2.0 * m * k / self.dense.surface.lookup(m, k) / 1000.0
        sparse_us = (
            self.sparse.time_for(matrix, self.sparse_batch, strict=False)
            / self.sparse_batch
        )
        return dense_us, sparse_us

    def block_kernel_time(self, block: BlockCsrMatrix) -> float:
        """Per-document cost of the block-SpMM kernel for ``block``.

        Blocked SpMM gathers the stored tiles' columns into a compact
        ``k_eff = stored_cells / m`` panel and runs the dense GEMM
        micro-kernel on it, so the cost is the GFLOPS-surface dense
        price of the compacted ``(m, k_eff)`` shape times the measured
        gather overhead :data:`BLOCK_KERNEL_OVERHEAD`.
        """
        m, _ = block.shape
        k_eff = max(1, -(-block.stored_cells // m))
        gflops = self.dense.surface.lookup(m, k_eff)
        return BLOCK_KERNEL_OVERHEAD * 2.0 * m * k_eff / gflops / 1000.0

    def quantized_kernel_time(self, m: int, k: int, bits: int) -> float:
        """Per-document cost of an int-``bits`` integer GEMM layer.

        Prices the layer's ``2mk`` FLOPs at the dense GFLOPS surface
        and applies the SIMD lane-ratio speedup of
        :class:`repro.timing.quantized.QuantizedTimingModel` — the same
        scaling the pricing layer already uses for quantized networks,
        so plans and ``price()`` agree.
        """
        from repro.timing.quantized import QuantizedTimingModel

        if bits not in (8, 16):
            raise ValueError(f"bits must be 8 or 16, got {bits}")
        model = QuantizedTimingModel(self, lane_ratio=32.0 / bits)
        dense_us = 2.0 * m * k / self.dense.surface.lookup(m, k) / 1000.0
        return dense_us / model.dense_speedup

    def layer_kernel_times_all(
        self, matrix: CsrMatrix, *, block: BlockCsrMatrix | None = None
    ) -> dict[str, float]:
        """Per-document cost of every compiled kernel for one layer.

        The full arbitration table behind
        :func:`repro.runtime.compile.compile_network`: scalar
        dense/sparse from :meth:`layer_kernel_times`, int8 from
        :meth:`quantized_kernel_time`, and — when a regrouped ``block``
        matrix is supplied — block-SpMM from :meth:`block_kernel_time`.
        Keys are the compiled kernel names (``dense-gemm``,
        ``csr-spmm``, ``block-spmm``, ``int8-gemm``).
        """
        m, k = matrix.shape
        dense_us, sparse_us = self.layer_kernel_times(matrix)
        times = {
            "dense-gemm": dense_us,
            "csr-spmm": sparse_us,
            "int8-gemm": self.quantized_kernel_time(m, k, 8),
        }
        if block is not None:
            times["block-spmm"] = self.block_kernel_time(block)
        return times

    def pruned_forecast_us(self, input_dim: int, layers) -> float:
        """Tables 10-11: total minus the dense first layer."""
        return self.predict(input_dim, layers).pruned_forecast_us_per_doc

    def sparsity_speedup(
        self, m: int, k: int, sparsity: float, *, batch: int | None = None
    ) -> float:
        """Fig. 11: dense-vs-sparse speed-up of one layer at a sparsity.

        Worst-case structure (all rows and columns active), as in the
        paper's figure.
        """
        batch = batch or self.sparse_batch
        dense_us = 2.0 * m * k * batch / self.dense.surface.lookup(m, k) / 1000.0
        sparse_us = self.sparse.worst_case_time_us(m, k, sparsity, batch)
        if sparse_us <= 0:
            return float("inf")
        return dense_us / sparse_us
