"""Post-training weight quantization (the paper's stated future work).

Section 7: "As future work, we intend to apply different compression
methods such as quantization ... to further improve the efficiency of
our neural models."  This module implements the standard symmetric
per-layer int8 scheme as that extension:

* each linear layer's weights are quantized to ``q = round(w / scale)``
  with ``scale = max|w| / 127`` (symmetric, zero-point 0, so sparsity is
  preserved: pruned zeros stay exactly zero);
* inference dequantizes on the fly (numpy has no int8 GEMM), so the
  quality impact of the precision loss is measured faithfully while the
  *time* benefit is modeled: int8 operands quarter the memory traffic
  and double the SIMD lane count, which the time-predictor helper
  accounts for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.nn.network import FeedForwardNetwork

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.distill.student import DistilledStudent


@dataclass(frozen=True)
class QuantizedTensor:
    """Symmetric integer quantization of one weight matrix."""

    values: np.ndarray  # int8 (bits <= 8) or int16
    scale: float

    def dequantize(self) -> np.ndarray:
        return self.values.astype(np.float64) * self.scale

    @property
    def nbytes(self) -> int:
        return self.values.size * self.values.itemsize

    def sparsity(self) -> float:
        """Fraction of exact zeros (pruning survives quantization)."""
        return float(np.mean(self.values == 0))


def quantize_tensor(weights: np.ndarray, bits: int = 8) -> QuantizedTensor:
    """Symmetric per-tensor quantization to ``bits`` (2..16) bits.

    Up to 8 bits the codes are stored as int8; 9..16 bits store int16
    (wider grids for the quantization ablation; compiled plans run
    int8 only).
    """
    if not 2 <= bits <= 16:
        raise ValueError(f"bits must be in [2, 16], got {bits}")
    w = np.asarray(weights, dtype=np.float64)
    qmax = 2 ** (bits - 1) - 1
    max_abs = float(np.abs(w).max())
    scale = max_abs / qmax if max_abs > 0 else 1.0
    store = np.int8 if bits <= 8 else np.int16
    q = np.clip(np.round(w / scale), -qmax, qmax).astype(store)
    return QuantizedTensor(values=q, scale=scale)


def quantization_error(weights: np.ndarray, bits: int = 8) -> float:
    """RMS relative error introduced by quantizing ``weights``."""
    w = np.asarray(weights, dtype=np.float64)
    back = quantize_tensor(w, bits).dequantize()
    denom = float(np.sqrt(np.mean(w * w))) or 1.0
    return float(np.sqrt(np.mean((w - back) ** 2)) / denom)


def quantize_network(
    network: FeedForwardNetwork, bits: int = 8
) -> FeedForwardNetwork:
    """Return a copy of ``network`` with fake-quantized weights.

    Weights are replaced by their dequantized int8 representation
    ("fake quantization"), so standard inference measures exactly the
    accuracy an int8 engine would see.  Biases stay in full precision,
    as deployed int8 engines keep them in int32/fp32.
    """
    twin = network.clone()
    for linear in twin.linears:
        q = quantize_tensor(linear.weight.data, bits)
        linear.weight.data = q.dequantize()
        linear.apply_mask()
    return twin


def quantize_student(student: "DistilledStudent", bits: int = 8) -> "DistilledStudent":
    """Quantized copy of a distilled student (normalizer shared)."""
    from repro.distill.student import DistilledStudent

    return DistilledStudent(
        quantize_network(student.network, bits),
        student.normalizer,
        teacher_description=student.teacher_description + f" (int{bits})",
    )


def quantized_speedup_estimate(
    network: FeedForwardNetwork | None = None,
    *,
    simd_bits: int = 256,
    fp_bits: int = 32,
    int_bits: int = 8,
    bits_per_layer=None,
) -> float:
    """Upper-bound kernel speed-up from wider integer SIMD lanes.

    Without a network this is the raw lane ratio (an AVX2 register
    holds 4x more int8 lanes than fp32 lanes).  With a ``network`` the
    ceiling is weighted by the *actual per-layer scale* of the model:
    each linear layer contributes its dense FLOPs at its own lane ratio,
    so a model whose layers run at different widths or stay float
    (pass the compiled plan's per-layer ``bits``, with ``None``/``0``
    for float layers, as ``bits_per_layer``) no longer inherits the
    uniform global estimate.  Real engines see a fraction
    of this because of quantize/dequantize overhead, so the estimate is
    a *ceiling* on measured kernel speed-ups (regression-tested against
    the compiled int8 kernels).
    """
    if fp_bits % int_bits != 0:
        raise ValueError("fp_bits must be a multiple of int_bits")
    del simd_bits  # lane ratio is independent of the register width
    if network is None:
        return fp_bits / int_bits
    layers = network.linears
    if bits_per_layer is None:
        bits_list = [int_bits] * len(layers)
    else:
        bits_list = list(bits_per_layer)
        if len(bits_list) != len(layers):
            raise ValueError(
                f"bits_per_layer has {len(bits_list)} entries for a "
                f"{len(layers)}-layer network"
            )
    fp_cost = 0.0
    int_cost = 0.0
    for linear, bits in zip(layers, bits_list):
        flops = 2.0 * linear.in_features * linear.out_features
        fp_cost += flops
        ratio = fp_bits / bits if bits else 1.0
        int_cost += flops / ratio
    if int_cost <= 0.0:
        return 1.0
    return fp_cost / int_cost
