"""Ahead-of-time compiled inference plans (the paper's kernel layer).

The paper's efficiency argument lives in the innermost loop: each linear
layer runs either a dense GEMM (oneDNN's Goto kernels) or a sparse
micro-kernel (LIBXSMM), chosen per layer for the target CPU (Section
4.4 calibrates by measuring that CPU).  :func:`compile_network` makes
that decision ahead of time, on *this* host, and freezes it into an
executable :class:`InferencePlan`:

* **measured per-layer kernel selection** — each float candidate
  (dense GEMM, scalar CSR SpMM when scipy is present, block-CSR SpMM
  under ``block_sparse`` in float32) is built as the kernel object the
  plan will execute and timed on the real layer shape, interleaved best-of-
  :data:`TUNING_REPEATS` or more (rounds fill :data:`TUNING_SECONDS`),
  at the :data:`TUNING_BUCKETS` batch sizes (capped at ``max_batch``).  One kernel per layer, by one rule over
  the buckets: a sparse candidate replaces ``dense-gemm`` only if it is
  at least :data:`SPARSE_MARGIN` times faster at *every* bucket (among
  several such, the lowest geometric mean of its per-bucket ratios to
  dense wins).  Choices are memoized in the context's
  :class:`~repro.runtime.context.TuningRecord`, keyed by the layer's
  weights, dtype, mode, candidates and buckets, so recompiling the
  same weights in one process times nothing and returns the same
  kernels — the same bits.  The analytic predictors
  (:meth:`~repro.timing.network_predictor.NetworkTimePredictor.
  layer_kernel_times_all`) still price every layer for ``price()`` and
  cascade budgets, but no longer choose float kernels;
* **explicit** ``kernels=`` overrides are never timed; **quantized
  plans** (``quantize="int8"``) take the measured float structure and
  then move, untimed, the dense layers whose inputs a ReLU6 bounds to
  int8 (the entry layer stays float);
* **weights pre-converted once** — C-contiguous dense copies, CSR
  arrays, gathered block panels or integer-valued int8 copies;
* **fused epilogues** — dequantization, bias-add, ReLU6 and (between
  consecutive int8 layers) requantization execute in-place on the GEMM
  output, no intermediate activation matrices;
* **ping-pong activation buffers** — scratch arenas sized once per
  ``(plan, max_batch)``; steady-state scoring allocates nothing on the
  heap (:meth:`InferencePlan.execute_into`).

Bit contract.  Different kernels cannot share bits — their reduction
trees differ — so the plan guarantees a *layered* identity:

* ``float64`` dense-GEMM layers run ``np.matmul(x, W.T, out=...)`` on
  the frozen copy of the eager weight — bit-identical to
  ``FeedForwardNetwork.predict`` at every batch size;
* ``float64`` CSR-SpMM layers accumulate the stored non-zeros in
  ascending column order — bit-identical to
  :meth:`~repro.matmul.csr.CsrMatrix.matmul_reference`;
* ``float32`` mode trades the bit contract for speed (the paper's
  kernels are fp32): tolerance-tested against the float64 reference;
  block-SpMM layers exist only here (a float64 block layer could only
  run as CSR over the tiles' stored zeros, never faster than
  ``csr-spmm``);
* **int8 layers** carry a *declared score tolerance*:
  ``plan.score_tolerance`` bounds ``|plan.score(x) -
  reference_scores(...)|`` the same way the float32 contract does,
  measured on a fixed-seed batch at compile time.

Since the kernels are measured, two processes may choose differently
for a layer near a tie (and so give different bits); pin a plan across
processes with ``kernels=[lp.kernel for lp in plan.layers]``.

Integer accumulation without integer hardware: int8 weights and
activations are stored as *integer-valued* float32 arrays and multiplied
through the ordinary BLAS sgemm.  Every product is ``<= 127 * 127`` and
a dot product over ``k <= 1040`` columns stays below ``2**24``, so every
partial sum is exactly representable in float32 **regardless of the
reduction order** — the GEMM is a true integer-accumulated kernel at
BLAS speed, and (unlike float GEMM) its bits cannot depend on the batch
shape.  Consecutive int8 layers fuse their requantization: the feeder's
epilogue emits activations already on the int8 grid (ReLU6 bounds them
to ``[0, 6]``, so the activation scale ``6/127`` is static), and the
consumer skips its quantization pass entirely.

Serving needs one more property: the :class:`~repro.runtime.base.Scorer`
contract guarantees *chunk-invariant* scoring, and BLAS GEMM bits depend
on the batch shape.  ``compile_network(..., stable=True)`` runs the
dense and block-panel float kernels as BLAS GEMM over fixed
:data:`~repro.runtime.base.STABLE_TILE`-document tiles, one document
per column (:func:`~repro.runtime.base.stable_matmul`), whose bits
depend only on that document (full tiles run as wider calls where a
compile-time probe shows the same bits,
:func:`~repro.runtime.base.wide_widths`); CSR and quantized kernels are
chunk-invariant already
(row-independent or exact-integer reductions).  Because each layer
keeps one kernel whatever the batch size, a stable plan stays
chunk-invariant under measured arbitration.  See
``docs/compiled.md`` and ``docs/quantized_kernels.md``.
"""

from __future__ import annotations

import hashlib
import threading
import time
import weakref
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ReproError
from repro.matmul.blocks import BlockCsrMatrix, regroup_to_blocks
from repro.matmul.csr import CsrMatrix
from repro.nn.layers import Dropout, Linear, ReLU6
from repro.nn.network import FeedForwardNetwork
from repro.obs.compile import record_compile
from repro.obs.requests import active_requests, annotate_requests
from repro.obs.tracer import span
from repro.runtime.base import (
    STABLE_TILE,
    StableTiles,
    product_tiles,
    stable_matmul,
    wide_widths,
)
from repro.runtime.context import LayerTuning, default_context

try:  # the zero-allocation SpMM entry point; gated like repro.matmul.csr
    from scipy.sparse import _sparsetools as _scipy_sparsetools
except ImportError:  # pragma: no cover - exercised only without scipy
    _scipy_sparsetools = None

__all__ = [
    "BLOCK_KERNEL",
    "CompileError",
    "DENSE_KERNEL",
    "INT8_KERNEL",
    "INT8_MAX_IN_WIDTH",
    "InferencePlan",
    "LayerPlan",
    "PLAN_DTYPES",
    "SPARSE_KERNEL",
    "compile_network",
    "reference_scores",
]

#: Supported execution dtypes.
PLAN_DTYPES = {"float64": np.float64, "float32": np.float32}

#: Kernel names, as they appear in plans, metrics and the CLI probe.
DENSE_KERNEL = "dense-gemm"
SPARSE_KERNEL = "csr-spmm"
BLOCK_KERNEL = "block-spmm"
INT8_KERNEL = "int8-gemm"
KERNEL_NAMES = (DENSE_KERNEL, SPARSE_KERNEL, BLOCK_KERNEL, INT8_KERNEL)

#: Largest ``in_width`` whose int8 dot products stay exact in float32
#: accumulation: ``k * 127 * 127 < 2**24``.
INT8_MAX_IN_WIDTH = 1040

#: Batch sizes whose buffer views a plan keeps per thread, least
#: recently used out first.  Views cost ~6 KiB per size for the serving
#: student and ~50 us to rebuild.
VIEW_CACHE_SIZES = 256

#: Batch sizes (documents) at which the measured arbitration times each
#: layer's candidate kernels, each capped at the plan's ``max_batch``:
#: the sizes plans are called at when serving.  A cascade stage call
#: holds at most 128 documents (``STAGE_CALL_DOCS``), a micro-batched
#: call at most 256 (``ServiceConfig.max_batch_size``), and calls of
#: 1-31 documents are common; no served call is larger (see
#: docs/compiled.md).
TUNING_BUCKETS = (16, 128, 256)
#: Interleaved timing rounds per bucket (after one warm-up round); each
#: candidate keeps its best.  Rounds go on past :data:`TUNING_REPEATS`
#: until the bucket's timings add up to :data:`TUNING_SECONDS` (at most
#: :data:`TUNING_MAX_REPEATS` rounds), so a call of a few microseconds
#: gets hundreds of samples and a short slow spell of the host cannot
#: decide a near tie.
TUNING_REPEATS = 5
TUNING_SECONDS = 2e-3
TUNING_MAX_REPEATS = 100
#: A sparse candidate replaces ``dense-gemm`` only when it is at least
#: this many times faster at every bucket, so a near tie (where timing
#: noise would pick either) stays on the dense GEMM.
SPARSE_MARGIN = 1.1
#: Under ``block_sparse``, a layer whose regrouped tiles hold at least
#: this share of true non-zeros joins the arbitration as ``block-spmm``.
MIN_BLOCK_FILL = 0.5
#: Seed of the features the arbitration times kernels on (timings do
#: not depend on the values, only the shape).
_TUNING_SEED = 20240808

_Q8_MAX = 127.0
#: ReLU6 bounds hidden activations to [0, 6] — the static activation
#: scale int8 layers quantize their inputs with.
_ACT_BOUND = 6.0
#: Declared tolerance of an int8 plan when no ``tolerance`` is given:
#: ``max(_TOLERANCE_MARGIN * measured, _TOLERANCE_FLOOR)``.
_TOLERANCE_MARGIN = 3.0
_TOLERANCE_FLOOR = 1e-3


class CompileError(ReproError):
    """A network could not be compiled into an inference plan."""


@dataclass(frozen=True)
class LayerPlan:
    """One layer's frozen compilation decision."""

    index: int  # 1-based, matching the paper's Table 7
    in_width: int  # k of the weight matrix
    out_width: int  # m of the weight matrix
    kernel: str  # one of KERNEL_NAMES
    sparsity: float
    nnz: int
    predicted_dense_us_per_doc: float
    predicted_sparse_us_per_doc: float
    activation: str  # "relu6" or "none"
    predicted_block_us_per_doc: float | None = None
    predicted_quant_us_per_doc: float | None = None
    bits: int | None = None  # 8 for the int8 kernel
    block_fill: float | None = None  # achieved fill for block layers
    weight_scale: float | None = None  # quantization scale of W
    input_scale: float | None = None  # quantization scale of the input
    emits_quantized: bool = False  # epilogue leaves int8-grid output
    #: document widths of the stable wide GEMMs the layer runs besides
    #: 16-document tiles (a block layer: those of any panel); not part
    #: of the fingerprint, since they move no bit
    wide_widths: tuple[int, ...] = ()
    #: compile-time ``(kernel, docs, us_per_doc)`` timings of every
    #: candidate the arbitration measured (empty for an explicit
    #: kernel, which is never timed; a quantized layer keeps the float
    #: timings that chose its dense structure)
    measured: tuple[tuple[str, int, float], ...] = ()

    @property
    def predicted_us_per_doc(self) -> float:
        """Predicted cost of the *chosen* kernel."""
        if self.kernel == SPARSE_KERNEL:
            return self.predicted_sparse_us_per_doc
        if self.kernel == BLOCK_KERNEL and self.predicted_block_us_per_doc is not None:
            return self.predicted_block_us_per_doc
        if self.kernel == INT8_KERNEL and self.predicted_quant_us_per_doc is not None:
            return self.predicted_quant_us_per_doc
        return self.predicted_dense_us_per_doc

    def measured_us_per_doc(self, kernel: str | None = None) -> dict[int, float]:
        """Compile-time µs/doc of ``kernel`` (default: the chosen one)
        per batch bucket; empty if it was never timed."""
        kernel = kernel or self.kernel
        return {docs: us for name, docs, us in self.measured if name == kernel}

    def describe(self) -> str:
        text = (
            f"L{self.index} {self.out_width}x{self.in_width} "
            f"{self.kernel} @ {self.sparsity:.1%}, "
            f"{self.predicted_us_per_doc:.3g} predicted"
        )
        # The chosen kernel's compile-time timing at its largest bucket.
        measured = self.measured_us_per_doc()
        if measured:
            docs = max(measured)
            text += f" / {measured[docs]:.3g} measured us/doc @{docs}"
        else:
            text += " us/doc"
        if self.kernel == BLOCK_KERNEL and self.block_fill is not None:
            text += f", fill {self.block_fill:.0%}"
        if self.bits is not None:
            text += f", w_scale {self.weight_scale:.3g}"
            if self.emits_quantized:
                text += ", fused requant"
        if self.wide_widths:
            text += f", wide {_widths_text(self.wide_widths)}"
        return text


def _widths_text(widths) -> str:
    return "/".join(str(w) for w in widths)


def _finish(c, scale, bias, relu6: bool, q8: bool):
    """The fused epilogue: dequant scale, bias, activation, requant.

    Plain float layers pass ``scale=None, q8=False`` and execute the
    exact op sequence of the original fused epilogue (bit contract).
    ``q8`` emits the activation already on the int8 grid:
    ``clip(rint(y * 127/6), 0, 127)`` equals ``rint(relu6(y) * 127/6)``
    for every ``y``, so the ReLU6 is folded into the clip.
    """
    if scale is not None:
        np.multiply(c, scale, out=c)
    np.add(c, bias, out=c)
    if q8:
        np.rint(c, out=c)
        np.clip(c, 0.0, _Q8_MAX, out=c)
    elif relu6:
        np.maximum(c, 0.0, out=c)
        np.minimum(c, 6.0, out=c)
    return c


class _DenseKernel:
    """Frozen dense float layer: GEMM + fused epilogue.

    ``w`` is the C-contiguous ``(m, k)`` copy whose transposed view
    reproduces the eager forward bit for bit in float64; ``wt`` is the
    C-contiguous pre-transposed ``(k, m)`` copy the native float32 mode
    multiplies by directly.  Stable mode keeps only ``w`` and runs the
    GEMM on fixed document tiles (:class:`~repro.runtime.base.
    StableTiles`, the preallocated form of
    :func:`~repro.runtime.base.stable_matmul`), whose bits do not depend
    on the batch shape, covering full tiles with the probe-verified
    ``wide`` widths (:func:`~repro.runtime.base.wide_widths`).
    With ``out_gain`` (feeding a fused int8 layer) the frozen weights
    and bias are pre-scaled by ``127/6`` so the epilogue's requantize is
    a bare round+clip.
    """

    __slots__ = (
        "w", "wt", "bias", "relu6", "emit_q8", "scratch", "wide", "_exact", "_stable",
    )

    def __init__(
        self, linear: Linear, dtype, stable: bool, *, relu6: bool, out_gain=None,
        max_batch: int, digest: bytes | None = None,
    ) -> None:
        w = np.asarray(linear.weight.data, dtype=np.float64)
        b = np.asarray(linear.bias.data, dtype=np.float64)
        if out_gain is not None:
            w = w * out_gain
            b = b * out_gain
        # Copies, never views: later training must not leak into a plan.
        # Plans of the same weights (``digest``) share one copy.
        if digest is not None and out_gain is None:
            self.w = _shared_copy(w, digest, dtype)
        else:
            self.w = np.array(w, dtype=dtype, order="C")
        self.wt = None if stable else np.ascontiguousarray(self.w.T)
        self.bias = np.array(b, dtype=dtype, order="C")
        self.relu6 = relu6
        self.emit_q8 = out_gain is not None
        m, k = self.w.shape
        self.scratch = {"tile": k, "tprod": m} if stable else {}
        self.wide = wide_widths(m, k, dtype, max_batch) if stable else ()
        self._exact = dtype == np.float64
        self._stable = stable

    def make_views(self, buffers, a, c) -> "_LayerViews":
        tiles = _stable_tiles(buffers, a, c, self.wide) if self._stable else None
        return _LayerViews(c, tiles=tiles)

    def apply(self, a: np.ndarray, views) -> np.ndarray:
        c = views.c
        if self._stable:
            views.tiles.run(self.w)
        elif self._exact:
            np.matmul(a, self.w.T, out=c)
        else:
            np.matmul(a, self.wt, out=c)
        return _finish(c, None, self.bias, self.relu6, self.emit_q8)


class _SparseKernel:
    """Frozen sparse layer: CSR SpMM into preallocated transposes.

    Computes ``C = (A @ X^T)^T`` through scipy's ``csr_matvecs``, which
    accumulates each output element over the stored non-zeros in
    ascending order — the reference reduction of
    :meth:`CsrMatrix.matmul_reference` — into a caller-provided buffer,
    so the hot path allocates nothing.
    """

    __slots__ = ("m", "k", "indptr", "indices", "data", "bias", "relu6", "emit_q8", "scratch")

    def __init__(self, linear: Linear, csr: CsrMatrix, dtype, *, relu6: bool, out_gain=None) -> None:
        self.m, self.k = csr.shape
        self.indptr = np.ascontiguousarray(csr.row_ptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(csr.col_index, dtype=np.int64)
        data = np.asarray(csr.values, dtype=np.float64)
        b = np.asarray(linear.bias.data, dtype=np.float64)
        if out_gain is not None:
            data = data * out_gain
            b = b * out_gain
        self.data = np.ascontiguousarray(data, dtype=dtype)
        self.bias = np.array(b, dtype=dtype, order="C")
        self.relu6 = relu6
        self.emit_q8 = out_gain is not None
        self.scratch = {"xt": self.k, "yt": self.m}

    def make_views(self, buffers, a, c) -> "_LayerViews":
        n = len(a)
        xt = buffers["xt"][: self.k * n].reshape(self.k, n)
        yt = buffers["yt"][: self.m * n].reshape(self.m, n)
        return _LayerViews(c, xt=xt, yt=yt)

    def apply(self, a: np.ndarray, views) -> np.ndarray:
        c, xt, yt = views.c, views.xt, views.yt
        np.copyto(xt, a.T)
        yt.fill(0.0)
        _scipy_sparsetools.csr_matvecs(
            self.m,
            self.k,
            a.shape[0],
            self.indptr,
            self.indices,
            self.data,
            xt.ravel(),
            yt.ravel(),
        )
        np.copyto(c, yt.T)
        return _finish(c, None, self.bias, self.relu6, self.emit_q8)


class _BlockPanelKernel:
    """Frozen block-sparse layer: gather + dense GEMM per panel (fp32).

    Consecutive block rows sharing one column pattern merge into a
    *panel*; each panel gathers its active columns into compact scratch
    (``np.take`` with a preallocated out) and runs one dense GEMM on the
    gathered operand — the block-CSR layout guarantees those columns
    are dense tiles, so every lane does useful work (the paper's
    LIBXSMM micro-kernel story, Section 4.3).  Stable mode runs the
    gathered panel on fixed document tiles
    (:class:`~repro.runtime.base.StableTiles`, panel weights stored
    ``(rows, cols)`` for the weights-left product), with each panel's
    own probe-verified wide widths.  Column-block-pruned layers
    produce a single full-height panel, so the GEMM writes the whole
    contiguous output buffer.
    """

    __slots__ = (
        "panels", "panel_wide", "zero_spans", "bias", "relu6", "emit_q8",
        "scratch", "wide", "_stable",
    )

    def __init__(
        self, linear: Linear, block: BlockCsrMatrix, dtype, stable: bool, *,
        relu6: bool, out_gain=None, max_batch: int,
    ) -> None:
        m, k = block.shape
        r, c = block.block_shape
        dense = block.to_dense()
        b = np.asarray(linear.bias.data, dtype=np.float64)
        if out_gain is not None:
            dense = dense * out_gain
            b = b * out_gain
        panels: list[tuple[int, int, np.ndarray, np.ndarray]] = []
        zero_spans: list[tuple[int, int]] = []
        i = 0
        while i < block.n_block_rows:
            lo, hi = block.row_ptr[i], block.row_ptr[i + 1]
            pattern = tuple(block.col_blocks[lo:hi])
            j = i + 1
            while j < block.n_block_rows and pattern == tuple(
                block.col_blocks[block.row_ptr[j] : block.row_ptr[j + 1]]
            ):
                j += 1
            r0, r1 = i * r, min(j * r, m)
            if not pattern:
                zero_spans.append((r0, r1))
            else:
                cols = np.concatenate(
                    [np.arange(jb * c, min((jb + 1) * c, k)) for jb in pattern]
                ).astype(np.int64)
                wp = dense[r0:r1, cols]
                wp = np.ascontiguousarray(wp if stable else wp.T, dtype=dtype)
                panels.append((r0, r1, cols, wp))
            i = j
        self.panels = panels
        self.panel_wide = tuple(
            wide_widths(*wp.shape, dtype, max_batch) if stable else ()
            for _, _, _, wp in panels
        )
        self.wide = tuple(sorted(set().union(*self.panel_wide), reverse=True))
        self.zero_spans = zero_spans
        self.bias = np.array(b, dtype=dtype, order="C")
        self.relu6 = relu6
        self.emit_q8 = out_gain is not None
        widest = max((len(p[2]) for p in panels), default=0)
        self.scratch = {"g": widest}
        if stable:
            tallest = max((r1 - r0 for r0, r1, _, _ in panels), default=0)
            self.scratch.update(tile=widest, tprod=tallest)
        self._stable = stable

    def make_views(self, buffers, a, c) -> "_LayerViews":
        n = len(a)
        g = tuple(
            buffers["g"][: n * len(cols)].reshape(n, len(cols))
            for _, _, cols, _ in self.panels
        )
        outs = tuple(c[:, r0:r1] for r0, r1, _, _ in self.panels)
        if self._stable:
            tiles = tuple(
                _stable_tiles(buffers, *io) for io in zip(g, outs, self.panel_wide)
            )
        else:
            tiles = (None,) * len(outs)
        return _LayerViews(c, g=g, outs=outs, tiles=tiles)

    def apply(self, a: np.ndarray, views) -> np.ndarray:
        c = views.c
        for (_, _, cols, wp), g, out, tiles in zip(
            self.panels, views.g, views.outs, views.tiles
        ):
            np.take(a, cols, axis=1, out=g, mode="clip")
            if tiles is not None:
                tiles.run(wp)
            else:
                np.matmul(g, wp, out=out)
        for r0, r1 in self.zero_spans:
            c[:, r0:r1] = 0.0
        return _finish(c, None, self.bias, self.relu6, self.emit_q8)


class _Int8Kernel:
    """Frozen int8 layer: exact integer GEMM in float32 lanes.

    The quantized weight (``repro.nn.quantization`` numerics) is stored
    as an integer-valued array of the plan dtype; inputs arrive either
    already on the int8 grid (``self_quant=False``, the feeder's fused
    requantizing epilogue) or as floats that this kernel quantizes into
    scratch.  The GEMM's partial sums stay below ``2**24``
    (``in_width <= INT8_MAX_IN_WIDTH``), so accumulation is exact in
    float32 under any reduction order — the kernel is chunk-invariant
    by construction and needs no stable-mode tiling.  The epilogue
    fuses dequantization (``w_scale * in_scale``) with bias + ReLU6, or
    requantizes straight to the int8 grid for a fused int8 successor.
    """

    __slots__ = (
        "wt", "weight_scale", "bias", "post_scale", "relu6", "emit_q8",
        "self_quant", "inv_in_scale", "k", "scratch",
    )

    def __init__(
        self, linear: Linear, dtype, *, in_scale: float, self_quant: bool,
        relu6: bool, emit_q8: bool,
    ) -> None:
        from repro.nn.quantization import quantize_tensor

        q = quantize_tensor(linear.weight.data, bits=8)
        self.wt = np.ascontiguousarray(q.values.T, dtype=dtype)
        self.weight_scale = q.scale
        self.k = linear.in_features
        scale = q.scale * in_scale
        b = np.asarray(linear.bias.data, dtype=np.float64)
        if emit_q8:
            scale *= _Q8_MAX / _ACT_BOUND
            b = b * (_Q8_MAX / _ACT_BOUND)
        self.post_scale = float(scale)
        self.bias = np.array(b, dtype=dtype, order="C")
        self.relu6 = relu6
        self.emit_q8 = emit_q8
        self.self_quant = self_quant
        self.inv_in_scale = 1.0 / in_scale
        self.scratch = {"qx": self.k} if self_quant else {}

    def make_views(self, buffers, a, c) -> "_LayerViews":
        if not self.self_quant:
            return _LayerViews(c)
        n = len(a)
        qx = buffers["qx"][: n * self.k].reshape(n, self.k)
        return _LayerViews(c, qx=qx)

    def apply(self, a: np.ndarray, views) -> np.ndarray:
        x = a
        if self.self_quant:
            x = views.qx
            np.multiply(a, self.inv_in_scale, out=x)
            np.rint(x, out=x)
            np.clip(x, -_Q8_MAX, _Q8_MAX, out=x)
        np.matmul(x, self.wt, out=views.c)
        return _finish(views.c, self.post_scale, self.bias, self.relu6, self.emit_q8)


#: Frozen read-only dense weights by ``(layer digest, dtype)``, shared
#: by every plan compiled from those weights; an entry lives while a
#: plan holds it.
_SHARED_COPIES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_SHARED_LOCK = threading.Lock()


def _shared_copy(w: np.ndarray, digest: bytes, dtype) -> np.ndarray:
    """One read-only C-contiguous ``dtype`` copy of ``w`` per digest."""
    key = (digest, np.dtype(dtype).str)
    with _SHARED_LOCK:
        copy = _SHARED_COPIES.get(key)
        if copy is None:
            copy = np.array(w, dtype=dtype, order="C")
            copy.flags.writeable = False
            _SHARED_COPIES[key] = copy
    return copy


def _stable_tiles(buffers, a, out, wide) -> StableTiles:
    """:class:`StableTiles` for ``out = a @ w.T`` over the shared
    ``tile`` / ``tprod`` pools (layers run one at a time per thread;
    the tile products and the wide products take turns in ``tprod``)."""
    n, k = a.shape
    m = out.shape[1]
    tiles = product_tiles(n)
    tile = buffers["tile"][: STABLE_TILE * k].reshape(STABLE_TILE, k)
    pool = buffers["tprod"]
    prod = pool[: tiles * m * STABLE_TILE].reshape(tiles, m, STABLE_TILE)
    return StableTiles(a, out, tile, prod, wide=wide, wide_prod=pool)


class _LayerViews:
    """Per-(layer, batch) buffer views, built once and reused."""

    __slots__ = ("c", "tiles", "outs", "xt", "yt", "g", "qx")

    def __init__(
        self, c, tiles=None, outs=None, xt=None, yt=None, g=None, qx=None
    ) -> None:
        self.c = c
        self.tiles = tiles
        self.outs = outs
        self.xt = xt
        self.yt = yt
        self.g = g
        self.qx = qx


#: Scratch pools, all of the plan dtype.  Stable-mode ``tile`` holds
#: one zero-padded tail tile; ``tprod`` the ``(tiles, m, STABLE_TILE)``
#: GEMM products or one ``(m, width)`` wide product.
_PLAN_POOLS = ("xt", "yt", "g", "qx", "tile", "tprod")


class InferencePlan:
    """An executable, frozen forward pass (built by :func:`compile_network`).

    The plan owns pre-converted weights, two ping-pong activation arenas
    and per-kernel scratch pools (transposes, gather panels, quantized
    activations), all sized once from ``max_batch`` and held **per
    thread** so concurrent shard workers never share in-flight
    activations.  :meth:`score` is the allocating convenience wrapper;
    :meth:`execute_into` is the zero-allocation steady-state entry point
    ``tests/gates/test_quant_gates.py`` measures.
    """

    def __init__(
        self,
        *,
        layers: tuple[LayerPlan, ...],
        kernels: list,
        input_dim: int,
        max_batch: int,
        dtype_name: str,
        stable: bool,
        fingerprint: str,
        compile_us: float,
        source: str,
        quantize: str = "none",
        score_tolerance: float | None = None,
        block_shape: tuple[int, int] = (64, 8),
    ) -> None:
        self.layers = layers
        self._kernels = kernels
        self.input_dim = int(input_dim)
        self.max_batch = int(max_batch)
        self.dtype_name = dtype_name
        self.dtype = PLAN_DTYPES[dtype_name]
        self.stable = bool(stable)
        self.fingerprint = fingerprint
        self.compile_us = compile_us
        self.source = source
        self.quantize = quantize
        self.score_tolerance = score_tolerance
        self.block_shape = tuple(int(v) for v in block_shape)

        widths = [self.input_dim] + [lp.out_width for lp in layers]
        itemsize = np.dtype(self.dtype).itemsize
        self._arena = self.max_batch * max(widths)
        pools = dict.fromkeys(_PLAN_POOLS, 0)
        for kernel in kernels:
            for key, per_doc in kernel.scratch.items():
                pools[key] = max(pools[key], per_doc)
        # Rows each pool holds per unit of a kernel's ``scratch`` entry.
        widest = max(
            (w for kern in kernels for w in getattr(kern, "wide", ())), default=0
        )
        rows = {
            "tile": STABLE_TILE,
            "tprod": max(product_tiles(self.max_batch) * STABLE_TILE, widest),
        }
        self._pool_sizes = {
            k: v * rows.get(k, self.max_batch) for k, v in pools.items()
        }
        #: per-thread footprint of the arenas + all scratch pools.
        self.buffer_bytes = itemsize * (
            2 * self._arena + sum(self._pool_sizes.values())
        )
        # Arenas and view caches live per thread: ShardedScorer scores
        # shards of one plan concurrently, and two in-flight batches
        # must never share the ping-pong activation scratch.  Within a
        # thread the views are still built once per batch size (for
        # the VIEW_CACHE_SIZES most recently used sizes), so
        # steady-state scoring allocates nothing.
        self._local = threading.local()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_layers(self) -> int:
        return len(self.layers)

    @property
    def predicted_us_per_doc(self) -> float:
        """Sum of the chosen kernels' predicted per-document costs."""
        return sum(lp.predicted_us_per_doc for lp in self.layers)

    def kernel_counts(self) -> dict[str, int]:
        """Layer count per kernel name, in canonical kernel order."""
        counts = {name: 0 for name in KERNEL_NAMES}
        for lp in self.layers:
            counts[lp.kernel] += 1
        return {name: n for name, n in counts.items() if n}

    def describe(self) -> str:
        mix = " + ".join(f"{n} {name}" for name, n in self.kernel_counts().items())
        mode = "stable" if self.stable else "native"
        text = (
            f"plan[{self.source}] {self.dtype_name}/{mode}, "
            f"{mix}, max_batch {self.max_batch}, "
            f"{self.predicted_us_per_doc:.2f} us/doc predicted"
        )
        if self.score_tolerance is not None:
            text += f", tol {self.score_tolerance:.1e}"
        measured = [lp.measured_us_per_doc() for lp in self.layers]
        if any(measured):
            # The chosen kernels' compile-time timings at the largest
            # bucket, next to their predictions, layer by layer.
            docs = max(max(m) for m in measured if m)
            text += f", predicted/measured us/doc @{docs}: " + " ".join(
                f"L{lp.index} {lp.predicted_us_per_doc:.3g}/"
                + (f"{m[docs]:.3g}" if docs in m else "-")
                for lp, m in zip(self.layers, measured)
            )
        wide = [lp for lp in self.layers if lp.wide_widths]
        if wide:
            text += ", wide " + " ".join(
                f"L{lp.index}:{_widths_text(lp.wide_widths)}" for lp in wide
            )
        return text

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _views_for(self, n: int) -> tuple:
        local = self._local
        cache = getattr(local, "views", None)
        if cache is None:
            local.ping = np.empty(self._arena, dtype=self.dtype)
            local.pong = np.empty(self._arena, dtype=self.dtype)
            local.buffers = {
                key: np.empty(size, dtype=self.dtype)
                for key, size in self._pool_sizes.items()
                if size
            }
            cache = local.views = OrderedDict()
        views = cache.get(n)
        if views is not None:
            cache.move_to_end(n)
        else:
            built = []
            entry = local.ping[: n * self.input_dim].reshape(n, self.input_dim)
            a, src, dst = entry, local.ping, local.pong
            for lp, kernel in zip(self.layers, self._kernels):
                c = dst[: n * lp.out_width].reshape(n, lp.out_width)
                built.append(kernel.make_views(local.buffers, a, c))
                a, src, dst = c, dst, src
            views = cache[n] = (entry, tuple(built))
            if len(cache) > VIEW_CACHE_SIZES:
                cache.popitem(last=False)
        return views

    def execute_into(self, features: np.ndarray, out: np.ndarray) -> None:
        """Score ``features`` into ``out`` with zero heap allocations.

        ``features`` must be 2-D with ``input_dim`` columns and at most
        ``max_batch`` rows; ``out`` must be a float64 vector of matching
        length.  After the first call at a given batch size, repeated
        calls at that size allocate nothing
        (``tests/gates/test_quant_gates.py`` asserts this with
        ``tracemalloc``).
        """
        n = features.shape[0]
        if n == 0:
            return
        if n > self.max_batch:
            raise CompileError(
                f"batch {n} exceeds the plan's max_batch {self.max_batch}"
            )
        entry, views = self._views_for(n)
        np.copyto(entry, features)
        self._run(entry, views)
        np.copyto(out, views[-1].c[:, 0], casting="unsafe")

    def _run(self, a: np.ndarray, views, timings=None) -> np.ndarray:
        for i, kernel in enumerate(self._kernels):
            start = time.perf_counter() if timings is not None else 0.0
            a = kernel.apply(a, views[i])
            if timings is not None:
                timings[i] = min(
                    timings[i], time.perf_counter() - start
                )
        return a

    def score(self, features) -> np.ndarray:
        """Scores as float64, chunked by ``max_batch``; allocates only
        the returned vector (and, in float32 mode, casts on the way in
        and out of the fp32 arenas)."""
        x = np.asarray(features, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError(
                f"features must be 2-dimensional, got shape {x.shape}"
            )
        if x.shape[1] != self.input_dim:
            raise ValueError(
                f"expected {self.input_dim} features, got {x.shape[1]}"
            )
        out = np.empty(len(x), dtype=np.float64)
        # Request tracing: stamp the plan identity onto whichever
        # coalesced requests are live in this thread's context.  The
        # kernel string is only built when a traced request is present.
        if active_requests():
            annotate_requests(
                plan=self.fingerprint[:12],
                plan_dtype=self.dtype_name,
                plan_kernels="/".join(lp.kernel for lp in self.layers),
            )
        with span(
            "plan.execute", dtype=self.dtype_name, rows=len(x)
        ):
            for start in range(0, len(x), self.max_batch):
                chunk = x[start : start + self.max_batch]
                self.execute_into(chunk, out[start : start + len(chunk)])
        return out

    def profile_layers(self, features, repeats: int = 20) -> list[float]:
        """Best-of-``repeats`` measured µs/doc per layer.

        Drives the normal buffers layer by layer with a timer around
        each kernel (epilogue included) — the measurement half of the
        CLI probe's predicted-vs-measured table.
        """
        x = np.asarray(features, dtype=np.float64)
        n = x.shape[0]
        if not 0 < n <= self.max_batch:
            raise CompileError(
                f"profile batch must be in [1, {self.max_batch}], got {n}"
            )
        entry, views = self._views_for(n)
        timings = [float("inf")] * self.n_layers
        for _ in range(max(1, repeats)):
            np.copyto(entry, x)
            self._run(entry, views, timings=timings)
        return [t * 1e6 / n for t in timings]


# ----------------------------------------------------------------------
# Compilation
# ----------------------------------------------------------------------
@dataclass
class _LayerChoice:
    """Per-layer structure decision plus everything wiring needs."""

    linear: Linear
    structure: str  # DENSE_KERNEL, SPARSE_KERNEL or BLOCK_KERNEL
    csr: CsrMatrix
    block: BlockCsrMatrix | None
    activation: str
    dense_us: float
    sparse_us: float
    block_us: float | None
    int8_us: float
    forced_bits: int | None = None  # 8: an explicit int8 kernel override
    forced_float: bool = False  # explicit float-structure override
    tuning: LayerTuning | None = None  # the measured arbitration, if timed


def _float_kernel(
    name: str, linear: Linear, csr: CsrMatrix, block, dtype, stable: bool, *,
    relu6: bool, out_gain=None, max_batch: int, digest: bytes | None = None,
):
    """The frozen kernel object a float layer executes as ``name``
    (``digest``: the layer's, to share dense weights across plans)."""
    if name == SPARSE_KERNEL:
        return _SparseKernel(linear, csr, dtype, relu6=relu6, out_gain=out_gain)
    if name == BLOCK_KERNEL:
        return _BlockPanelKernel(
            linear, block, dtype, stable,
            relu6=relu6, out_gain=out_gain, max_batch=max_batch,
        )
    return _DenseKernel(
        linear, dtype, stable, relu6=relu6, out_gain=out_gain,
        max_batch=max_batch, digest=digest,
    )


def _float_candidates(block, pruned: bool) -> tuple[str, ...]:
    """The float kernels a layer can run, dense first (``block``: the
    regrouped float32 layer, if any; ``pruned``: the layer stores a zero
    weight — on a fully dense layer csr-spmm can only lose to GEMM)."""
    names = [DENSE_KERNEL]
    if pruned and _scipy_sparsetools is not None:
        names.append(SPARSE_KERNEL)
    if block is not None:
        names.append(BLOCK_KERNEL)
    return tuple(names)


def _tuning_buckets(max_batch: int) -> tuple[int, ...]:
    """The :data:`TUNING_BUCKETS` capped at ``max_batch``, ascending."""
    return tuple(sorted({min(docs, max_batch) for docs in TUNING_BUCKETS}))


def _timed_call(kernel, features: np.ndarray, out_width: int, dtype_name: str, stable: bool):
    """A no-argument call of ``kernel.apply`` on ``features``, through a
    one-layer plan's buffers (built on the first, warm-up call)."""
    n, k = features.shape
    layer = LayerPlan(
        index=1, in_width=k, out_width=out_width, kernel=DENSE_KERNEL,
        sparsity=0.0, nnz=0, predicted_dense_us_per_doc=0.0,
        predicted_sparse_us_per_doc=0.0, activation="none",
    )
    plan = InferencePlan(
        layers=(layer,), kernels=[kernel], input_dim=k, max_batch=n,
        dtype_name=dtype_name, stable=stable, fingerprint="tuning",
        compile_us=0.0, source="tuning",
    )
    bound = []

    def run() -> None:
        if not bound:
            entry, (views,) = plan._views_for(n)
            np.copyto(entry, features)
            bound.append((entry, views))
        kernel.apply(*bound[0])

    return run


def _arbitrate(timings: dict[tuple[str, int], float], alive: list[str], buckets) -> str:
    """The rule: among the sparse candidates still ``alive`` (each at
    least :data:`SPARSE_MARGIN` times faster than dense at every
    bucket), the lowest geometric mean of per-bucket ratios to dense
    wins; with none alive, ``dense-gemm``."""
    best, best_log = DENSE_KERNEL, 0.0
    for name in alive:
        if name == DENSE_KERNEL:
            continue
        log_ratio = sum(
            np.log(timings[name, n] / timings[DENSE_KERNEL, n]) for n in buckets
        )
        if log_ratio < best_log:
            best, best_log = name, log_ratio
    return best


def _tune_layer(
    ctx, linear: Linear, csr: CsrMatrix, block, candidates: tuple[str, ...], *,
    np_dtype, dtype_name: str, stable: bool, relu6: bool, max_batch: int,
) -> LayerTuning:
    """Time a layer's ``candidates`` and choose its one kernel.

    Per bucket (ascending), one warm-up round and then at least
    :data:`TUNING_REPEATS` interleaved rounds (more, up to
    :data:`TUNING_MAX_REPEATS`, until they add up to
    :data:`TUNING_SECONDS`) call ``ctx.timer`` on each live candidate;
    each keeps its best.  A sparse candidate that is not
    :data:`SPARSE_MARGIN` times faster than dense at a bucket is out and
    is not timed at larger buckets (it can no longer win).
    """
    buckets = _tuning_buckets(max_batch)
    m, k = csr.shape
    kernels = {
        name: _float_kernel(
            name, linear, csr, block, np_dtype, stable,
            relu6=relu6, max_batch=max_batch,
        )
        for name in candidates
    }
    features = np.random.default_rng(_TUNING_SEED).standard_normal((buckets[-1], k))
    alive = list(candidates)
    timings: dict[tuple[str, int], float] = {}
    for n in buckets:
        runs = {
            name: _timed_call(kernels[name], features[:n], m, dtype_name, stable)
            for name in alive
        }
        best = dict.fromkeys(alive, float("inf"))
        spent, rounds = 0.0, 0
        for name in alive:  # warm-up: builds each call's buffers
            ctx.timer(runs[name], kernel=name, docs=n, shape=(m, k))
        while rounds < TUNING_REPEATS or (
            spent < TUNING_SECONDS and rounds < TUNING_MAX_REPEATS
        ):
            for name in alive:
                seconds = ctx.timer(runs[name], kernel=name, docs=n, shape=(m, k))
                best[name] = min(best[name], seconds)
                spent += seconds
            rounds += 1
        for name in alive:
            timings[name, n] = best[name] * 1e6 / n
        alive = [
            name
            for name in alive
            if name == DENSE_KERNEL or best[name] * SPARSE_MARGIN <= best[DENSE_KERNEL]
        ]
    return LayerTuning(
        kernel=_arbitrate(timings, alive, buckets),
        timings=tuple((name, n, us) for (name, n), us in timings.items()),
    )


def _tuned(
    ctx, linear: Linear, csr: CsrMatrix, block, candidates: tuple[str, ...], *,
    layer_digest: bytes, np_dtype, dtype_name: str, stable: bool, relu6: bool,
    max_batch: int, block_shape,
) -> LayerTuning:
    """The layer's verdict from ``ctx.tuning``, timed on a miss.  The
    key is what the verdict depends on: the weights, dtype, mode,
    activation, candidate set and batch buckets."""
    key = (
        layer_digest,
        np.dtype(np_dtype).str,
        bool(stable),
        relu6,
        candidates,
        block_shape if BLOCK_KERNEL in candidates else None,
        _tuning_buckets(max_batch),
    )
    tuning = ctx.tuning.get(key)
    if tuning is None:
        tuning = ctx.tuning.settle(key, _tune_layer(
            ctx, linear, csr, block, candidates, np_dtype=np_dtype,
            dtype_name=dtype_name, stable=stable, relu6=relu6,
            max_batch=max_batch,
        ))
    return tuning


def _layer_digest(linear: Linear) -> bytes:
    """BLAKE2b of one layer's shape, weights and bias: the weight half
    of the plan fingerprint and of the layer's tuning key, so a compile
    hashes the weights once."""
    digest = hashlib.blake2b(digest_size=16)
    digest.update(str(linear.weight.data.shape).encode())
    digest.update(np.ascontiguousarray(linear.weight.data))
    digest.update(np.ascontiguousarray(linear.bias.data))
    return digest.digest()


def _plan_fingerprint(
    input_dim: int, dtype_name: str, stable: bool, tags, layer_digests
) -> str:
    """BLAKE2b over dtype, mode, per-layer kernel/quantization tags and
    the layers' weight digests.  The tags carry kernel name, bit width,
    quantization scales, requant-fusion flags and block shape, so an
    int8 plan, an f32 plan and a block plan of the same weights never
    share a fingerprint (and therefore never share ``ScoreCache``
    entries)."""
    digest = hashlib.blake2b(digest_size=16)
    mode = "stable" if stable else "native"
    digest.update(f"plan:{dtype_name}:{mode}:{input_dim}".encode())
    for tag, layer in zip(tags, layer_digests):
        digest.update(tag.encode())
        digest.update(layer)
    return digest.hexdigest()


def _linear_activations(network: FeedForwardNetwork) -> list[str]:
    """Activation following each linear layer, from the layer sequence."""
    acts: list[str] = []
    for layer in network.layers:
        if isinstance(layer, Linear):
            acts.append("none")
        elif isinstance(layer, ReLU6):
            if not acts or acts[-1] != "none":
                raise CompileError("ReLU6 without a preceding linear layer")
            acts[-1] = "relu6"
        elif isinstance(layer, Dropout):
            continue  # identity at inference
        else:
            raise CompileError(
                f"cannot compile layer type {type(layer).__name__}"
            )
    return acts


def _deviation_features(network: FeedForwardNetwork) -> np.ndarray:
    """The fixed batch an int8 plan's score deviation is measured on:
    standard-normal features (the scale z-scored serving features
    arrive at) from a fixed seed, so two compilations of the same
    network produce identical plans."""
    rng = np.random.default_rng(20240808)
    return rng.standard_normal((256, network.input_dim))


def _wire_plan(
    network: FeedForwardNetwork,
    choices: list[_LayerChoice],
    bits: list,
    *,
    np_dtype,
    dtype_name: str,
    stable: bool,
    max_batch: int,
    quantize_label: str,
    score_tolerance: float | None,
    block_shape,
    layer_digests,
    started: float,
) -> InferencePlan:
    """Build the executable plan for one (structure, bits) assignment."""
    fuse = np_dtype == np.float32
    # A layer's feeder emits int8-grid activations when the consumer is
    # int8 (whose input a ReLU6 bounds to the static 6/127 grid).
    # Fusion is a float32-plan optimization: float64 plans keep their
    # non-quantized layers on the eager bit contract.
    emits = [fuse and b == 8 for b in bits[1:]] + [False]

    kernels: list = []
    layer_plans: list[LayerPlan] = []
    tags: list[str] = []
    r_blk, c_blk = block_shape
    for i, choice in enumerate(choices):
        linear = choice.linear
        relu6 = choice.activation == "relu6"
        out_gain = (_Q8_MAX / _ACT_BOUND) if emits[i] else None
        if bits[i] == 8:
            # The input is ReLU6-bounded: on the int8 grid already when
            # the feeder requantizes, else quantized by this kernel.
            kernel_name = INT8_KERNEL
            in_scale = _ACT_BOUND / _Q8_MAX
            kern = _Int8Kernel(
                linear, np_dtype, in_scale=in_scale, self_quant=not emits[i - 1],
                relu6=relu6, emit_q8=emits[i],
            )
            weight_scale = kern.weight_scale
            quant_us = choice.int8_us
        else:
            kernel_name = choice.structure
            kern = _float_kernel(
                kernel_name, linear, choice.csr, choice.block, np_dtype, stable,
                relu6=relu6, out_gain=out_gain, max_batch=max_batch,
                digest=layer_digests[i],
            )
            weight_scale = in_scale = quant_us = None

        kernels.append(kern)
        layer_plans.append(
            LayerPlan(
                index=i + 1,
                in_width=linear.in_features,
                out_width=linear.out_features,
                kernel=kernel_name,
                sparsity=choice.csr.sparsity,
                nnz=choice.csr.nnz,
                predicted_dense_us_per_doc=choice.dense_us,
                predicted_sparse_us_per_doc=choice.sparse_us,
                activation=choice.activation,
                predicted_block_us_per_doc=choice.block_us,
                predicted_quant_us_per_doc=quant_us,
                bits=bits[i],
                block_fill=choice.block.fill if choice.block is not None else None,
                weight_scale=weight_scale,
                input_scale=in_scale,
                emits_quantized=emits[i],
                wide_widths=getattr(kern, "wide", ()),
                measured=choice.tuning.timings if choice.tuning else (),
            )
        )
        ws = weight_scale if weight_scale is not None else 0.0
        ins = in_scale if in_scale is not None else 0.0
        tags.append(
            f"{kernel_name}:{bits[i] or 0}:{ws:.17g}:{ins:.17g}:"
            f"{int(emits[i])}:{r_blk}x{c_blk}"
        )

    fingerprint = _plan_fingerprint(
        network.input_dim, dtype_name, stable, tags, layer_digests
    )
    compile_us = (time.perf_counter() - started) * 1e6
    return InferencePlan(
        layers=tuple(layer_plans),
        kernels=kernels,
        input_dim=network.input_dim,
        max_batch=max_batch,
        dtype_name=dtype_name,
        stable=stable,
        fingerprint=fingerprint,
        compile_us=compile_us,
        source=network.describe(),
        quantize=quantize_label,
        score_tolerance=score_tolerance,
        block_shape=block_shape,
    )


def _score_deviation(
    network: FeedForwardNetwork, plan: InferencePlan, features: np.ndarray
) -> float:
    """Max |plan score - float64 reference| over ``features``."""
    got = plan.score(features)
    ref = reference_scores(network, plan, features)
    return float(np.max(np.abs(got - ref))) if len(got) else 0.0


def compile_network(
    network: FeedForwardNetwork,
    *,
    context=None,
    dtype: str = "float64",
    max_batch: int = 4096,
    kernels=None,
    stable: bool = False,
    quantize: str | None = None,
    tolerance: float | None = None,
    block_sparse: bool = False,
    block_shape: tuple[int, int] = (64, 8),
) -> InferencePlan:
    """Compile a trained/pruned network into an :class:`InferencePlan`.

    Parameters
    ----------
    network:
        The :class:`FeedForwardNetwork` to freeze.  Weights are copied;
        later training steps do not leak into the plan (and change its
        fingerprint, so caches stay sound).
    context:
        :class:`~repro.runtime.context.PricingContext` supplying the
        kernel timer and tuning record of the measured arbitration, and
        the calibrated predictors that price each layer (defaults to
        the process-wide context).
    dtype:
        ``"float64"`` (bit-exact, the default) or ``"float32"`` (the
        paper's kernel precision; tolerance-bounded, not bit-exact).
    max_batch:
        Largest chunk the ping-pong buffers must hold; requests larger
        than this are split by :meth:`InferencePlan.score`.
    kernels:
        Optional per-layer override, a sequence drawn from
        ``"dense-gemm"`` / ``"csr-spmm"`` / ``"block-spmm"`` /
        ``"int8-gemm"`` / ``None`` (``None`` = let the measured
        arbitration decide).  An explicit kernel is never timed;
        ``kernels=[lp.kernel for lp in plan.layers]`` pins a plan's
        measured choices in another process.  Forcing ``"csr-spmm"``
        without scipy raises, as does forcing ``"block-spmm"`` in
        float64, or ``"int8-gemm"`` on a layer wider than
        :data:`INT8_MAX_IN_WIDTH` (the exact-accumulation bound) or not
        fed by a ReLU6; an explicit float kernel exempts that layer
        from ``quantize``.
    stable:
        Run dense and block-panel float layers as BLAS GEMM over fixed
        document tiles (:func:`~repro.runtime.base.stable_matmul`),
        making per-row bits independent of the batch shape — the
        chunk-invariance contract the serving adapters guarantee.
        Quantized kernels are exact-integer reductions and therefore
        chunk-invariant in *both* modes.
    quantize:
        ``None``/``"none"`` (default, float kernels) or ``"int8"``:
        the layers the measured arbitration leaves on ``dense-gemm``
        whose input a ReLU6 bounds run ``int8-gemm`` where it is exact
        (``in_width <= INT8_MAX_IN_WIDTH``); sparse and wider layers
        and the entry layer stay float.  Choosing them times nothing:
        the float structure is the one a float plan of the same
        weights gets, from the same tuning record.
    tolerance:
        The score-tolerance budget of a plan with int8 layers, verified
        against the deviation measured on a fixed-seed batch (a
        violation raises :class:`CompileError`) and published as
        ``plan.score_tolerance``; without it the plan declares a margin
        over the measured deviation.
    block_sparse:
        Try to regroup each pruned layer's non-zeros (a layer with at
        least one zero weight) into dense ``block_shape`` tiles
        (:func:`repro.matmul.blocks.regroup_to_blocks`).  In float32,
        when the achieved fill reaches :data:`MIN_BLOCK_FILL` the
        block-SpMM kernel joins dense and scalar CSR as a timed
        candidate; float64 plans offer no block candidate.
    block_shape:
        Tile shape ``(rows, cols)`` of block regrouping.
    """
    if not isinstance(network, FeedForwardNetwork):
        raise CompileError(
            f"expected a FeedForwardNetwork, got {type(network).__name__}"
        )
    if dtype not in PLAN_DTYPES:
        raise CompileError(
            f"dtype must be one of {sorted(PLAN_DTYPES)}, got {dtype!r}"
        )
    if max_batch < 1:
        raise CompileError(f"max_batch must be >= 1, got {max_batch}")
    quantize = quantize or "none"
    if quantize not in ("none", "int8"):
        raise CompileError(
            f"quantize must be None, 'none' or 'int8', got {quantize!r}"
        )
    if tolerance is not None and not tolerance > 0.0:
        raise CompileError(f"tolerance must be > 0, got {tolerance}")
    block_shape = (int(block_shape[0]), int(block_shape[1]))
    overrides = list(kernels) if kernels is not None else [None] * network.n_layers
    if len(overrides) != network.n_layers:
        raise CompileError(
            f"kernels has {len(overrides)} entries for a "
            f"{network.n_layers}-layer network"
        )
    ctx = context or default_context()
    predictor = ctx.predictor
    np_dtype = PLAN_DTYPES[dtype]

    started = time.perf_counter()
    with span(
        "compile.plan",
        dtype=dtype,
        layers=network.n_layers,
        mode="stable" if stable else "native",
        quantize=quantize,
    ):
        activations = _linear_activations(network)
        layer_digests = [_layer_digest(linear) for linear in network.linears]

        # ---- structure selection (dense vs csr vs block) -------------
        choices: list[_LayerChoice] = []
        tune_us = 0.0
        for i, (linear, override) in enumerate(
            zip(network.linears, overrides), start=1
        ):
            csr = CsrMatrix.from_dense(linear.weight.data)
            block = None
            # An unpruned layer's tiles hold every column: block-spmm can
            # only tie dense there, so only pruned layers regroup (and
            # only they time csr-spmm).
            pruned = csr.nnz < linear.weight.data.size
            if np_dtype == np.float32 and (
                (block_sparse and pruned) or override == BLOCK_KERNEL
            ):
                fill_floor = 0.0 if override == BLOCK_KERNEL else MIN_BLOCK_FILL
                regrouped = regroup_to_blocks(
                    csr, block_shape, min_fill=fill_floor
                )
                if isinstance(regrouped, BlockCsrMatrix):
                    block = regrouped
            times = predictor.layer_kernel_times_all(csr, block=block)
            dense_us = times[DENSE_KERNEL]
            sparse_us = times[SPARSE_KERNEL]
            block_us = times.get(BLOCK_KERNEL)
            forced_bits = None
            forced_float = False
            tuning = None
            if override is None:
                candidates = _float_candidates(block, pruned)
                if len(candidates) == 1:
                    structure = DENSE_KERNEL
                else:
                    tune_started = time.perf_counter()
                    tuning = _tuned(
                        ctx, linear, csr, block, candidates,
                        layer_digest=layer_digests[i - 1],
                        np_dtype=np_dtype, dtype_name=dtype, stable=stable,
                        relu6=activations[i - 1] == "relu6",
                        max_batch=max_batch, block_shape=block_shape,
                    )
                    tune_us += (time.perf_counter() - tune_started) * 1e6
                    structure = tuning.kernel
            elif override == DENSE_KERNEL:
                structure = DENSE_KERNEL
                forced_float = True
            elif override == SPARSE_KERNEL:
                if _scipy_sparsetools is None:
                    raise CompileError(
                        "csr-spmm was forced but scipy is unavailable"
                    )
                structure = SPARSE_KERNEL
                forced_float = True
            elif override == BLOCK_KERNEL:
                if np_dtype == np.float64:
                    raise CompileError(
                        f"block-spmm was forced for layer {i} of a float64 "
                        f"plan; block panels run in float32 only"
                    )
                if block is None or block.n_blocks == 0:
                    raise CompileError(
                        f"block-spmm was forced for layer {i} but the "
                        f"matrix regroups to no stored blocks"
                    )
                structure = BLOCK_KERNEL
                forced_float = True
            elif override == INT8_KERNEL:
                if linear.in_features > INT8_MAX_IN_WIDTH:
                    raise CompileError(
                        f"layer {i} in_width {linear.in_features} exceeds "
                        f"the int8 exact-accumulation bound "
                        f"({INT8_MAX_IN_WIDTH})"
                    )
                if i == 1 or activations[i - 2] != "relu6":
                    raise CompileError(
                        f"int8-gemm was forced for layer {i}, whose input "
                        f"no ReLU6 bounds (the int8 grid would clip it)"
                    )
                structure = DENSE_KERNEL
                forced_bits = 8
            else:
                raise CompileError(
                    f"unknown kernel {override!r} for layer {i}; "
                    f"use one of {KERNEL_NAMES}"
                )
            choices.append(
                _LayerChoice(
                    linear=linear,
                    structure=structure,
                    csr=csr,
                    block=block,
                    activation=activations[i - 1],
                    dense_us=dense_us,
                    sparse_us=sparse_us,
                    block_us=block_us,
                    int8_us=times[INT8_KERNEL],
                    forced_bits=forced_bits,
                    forced_float=forced_float,
                    tuning=tuning,
                )
            )

        # ---- int8 assignment ----------------------------------------
        # Only layers fed by a ReLU6 quantize: their inputs lie in
        # [0, 6], a static grid.  The entry layer stays float, since raw
        # features have no bound and any fixed input scale clips some
        # serving row.
        bits: list = [choice.forced_bits for choice in choices]
        if quantize == "int8":
            for j, choice in enumerate(choices):
                if (
                    j > 0
                    and choices[j - 1].activation == "relu6"
                    and choice.structure == DENSE_KERNEL
                    and not choice.forced_float
                    and choice.linear.in_features <= INT8_MAX_IN_WIDTH
                ):
                    bits[j] = 8

        def build(*, declared=None) -> InferencePlan:
            return _wire_plan(
                network,
                choices,
                bits,
                np_dtype=np_dtype,
                dtype_name=dtype,
                stable=stable,
                max_batch=max_batch,
                quantize_label=quantize,
                score_tolerance=declared,
                block_shape=block_shape,
                layer_digests=layer_digests,
                started=started,
            )

        declared: float | None = None
        if any(b is not None for b in bits):
            dev = _score_deviation(network, build(), _deviation_features(network))
            if tolerance is not None:
                if dev > tolerance:
                    raise CompileError(
                        f"quantized plan deviates {dev:.3g} from the "
                        f"float64 reference, above the declared "
                        f"tolerance {tolerance}"
                    )
                declared = tolerance
            else:
                declared = max(_TOLERANCE_MARGIN * dev, _TOLERANCE_FLOOR)

        plan = build(declared=declared)

    record_compile(
        dtype=dtype,
        kernel_counts=plan.kernel_counts(),
        buffer_bytes=plan.buffer_bytes,
        compile_us=plan.compile_us,
        tune_us=tune_us,
    )
    return plan


def reference_scores(
    network: FeedForwardNetwork,
    plan: InferencePlan,
    features,
    *,
    strict_spmm: bool = False,
) -> np.ndarray:
    """The float64 hybrid reference a compiled plan must reproduce.

    Dense-GEMM layers run the eager ``x @ W.T + b`` op (or, for a
    stable-mode plan, the fixed-tile GEMM of
    :func:`~repro.runtime.base.stable_matmul` that kernel executes);
    CSR-SpMM and (float32) block-SpMM layers run
    :meth:`CsrMatrix.matmul` (or, with ``strict_spmm``, the per-non-zero
    :meth:`CsrMatrix.matmul_reference` loop — same bits, independently
    derived).  Quantized layers run the *unquantized* eager float64 op:
    the reference is what the exact network computes, and the plan's
    declared ``score_tolerance`` bounds the quantization deviation from
    it.  A float64 all-float plan must match this bit for bit; float32
    and quantized plans are tolerance-tested against it.
    """
    out = np.ascontiguousarray(features, dtype=np.float64)
    if out.shape[0] == 0:
        return np.empty(0, dtype=np.float64)
    for lp, linear in zip(plan.layers, network.linears):
        if lp.kernel in (SPARSE_KERNEL, BLOCK_KERNEL):
            csr = CsrMatrix.from_dense(linear.weight.data)
            product = (
                csr.matmul_reference(out.T) if strict_spmm else csr.matmul(out.T)
            ).T
            # C-order like the plan's arenas: BLAS bits depend on the
            # operand layout, so the F-order ``.T`` view must not leak
            # into the next dense layer's GEMM.
            out = np.ascontiguousarray(product) + linear.bias.data
        elif plan.stable and lp.bits is None:
            out = stable_matmul(out, linear.weight.data) + linear.bias.data
        else:
            out = out @ linear.weight.data.T + linear.bias.data
        if lp.activation == "relu6":
            out = np.minimum(np.maximum(out, 0.0), 6.0)
    return out[:, 0]
