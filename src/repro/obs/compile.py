"""Plan-compilation metric series and the compile report.

:func:`repro.runtime.compile.compile_network` folds every compilation
into the default :class:`~repro.obs.metrics.MetricsRegistry`, mirroring
the ``parallel.*`` series:

* ``compile.plans`` (counter, label ``dtype``) — plans compiled;
* ``compile.layers`` (counter, labels ``dtype``, ``kernel``) — layers
  frozen per kernel choice (``dense-gemm`` / ``csr-spmm`` /
  ``block-spmm`` / ``int8-gemm`` / ``int16-gemm``);
* ``compile.buffer_bytes`` (gauge, label ``dtype``) — the last plan's
  ping-pong + transpose arena footprint;
* ``compile.compile_us`` (gauge, label ``dtype``) — the last plan's
  wall compile time;
* ``compile.tune_us`` (counter, label ``dtype``) — wall time spent
  timing candidate kernels (the measured arbitration; a recompile of
  memoized weights adds ~0).

:func:`compile_report` reads the series back into one row per dtype —
the ahead-of-time counterpart of :func:`repro.obs.parallel.
parallel_report`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.metrics import MetricsRegistry, get_registry


def record_compile(
    *,
    dtype: str,
    buffer_bytes: int,
    compile_us: float,
    tune_us: float = 0.0,
    kernel_counts: dict[str, int] | None = None,
    dense_layers: int = 0,
    sparse_layers: int = 0,
    registry: MetricsRegistry | None = None,
) -> None:
    """Fold one plan compilation into the ``compile.*`` series.

    ``kernel_counts`` is the plan's ``kernel_counts()`` mapping (any
    kernel name); the ``dense_layers`` / ``sparse_layers`` pair is the
    pre-quantization spelling, kept for callers recording only the
    two scalar kernels.
    """
    registry = registry or get_registry()
    registry.counter("compile.plans", dtype=dtype).inc()
    counts = dict(kernel_counts) if kernel_counts else {}
    if dense_layers:
        counts["dense-gemm"] = counts.get("dense-gemm", 0) + dense_layers
    if sparse_layers:
        counts["csr-spmm"] = counts.get("csr-spmm", 0) + sparse_layers
    for kernel, layers in counts.items():
        if layers:
            registry.counter(
                "compile.layers", dtype=dtype, kernel=kernel
            ).inc(layers)
    registry.gauge("compile.buffer_bytes", dtype=dtype).set(buffer_bytes)
    registry.gauge("compile.compile_us", dtype=dtype).set(compile_us)
    registry.counter("compile.tune_us", dtype=dtype).inc(tune_us)


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CompileRow:
    """One execution dtype's compilation position."""

    dtype: str
    plans: int
    dense_layers: int
    sparse_layers: int
    buffer_bytes: int
    compile_us: float
    block_layers: int = 0
    int8_layers: int = 0
    int16_layers: int = 0
    tune_us: float = 0.0

    @property
    def sparse_share(self) -> float:
        total = self.dense_layers + self.sparse_layers
        return self.sparse_layers / total if total else 0.0

    def describe(self) -> str:
        text = (
            f"{self.dtype}: {self.plans} plans, "
            f"{self.dense_layers} dense / {self.sparse_layers} sparse "
            f"layers, {self.buffer_bytes / 1024:.0f} KiB buffers"
        )
        extras = [
            f"{n} {name}"
            for name, n in (
                ("block", self.block_layers),
                ("int8", self.int8_layers),
                ("int16", self.int16_layers),
            )
            if n
        ]
        if extras:
            text += " (+ " + ", ".join(extras) + ")"
        return text


@dataclass(frozen=True)
class CompileReport:
    """Per-dtype compilation rows plus a rendering."""

    rows: tuple[CompileRow, ...]

    def dtype(self, name: str) -> CompileRow | None:
        for row in self.rows:
            if row.dtype == name:
                return row
        return None

    def render(self) -> str:
        if not self.rows:
            return "(no plan compilations recorded)"
        header = (
            f"{'dtype':<9} {'plans':>6} {'dense':>6} {'sparse':>7} "
            f"{'block':>6} {'int8':>5} {'int16':>6} "
            f"{'buffers':>10} {'compile':>10} {'tuning':>10}"
        )
        lines = ["Compiled plans", header, "-" * len(header)]
        for row in self.rows:
            lines.append(
                f"{row.dtype:<9} {row.plans:>6d} {row.dense_layers:>6d} "
                f"{row.sparse_layers:>7d} "
                f"{row.block_layers:>6d} {row.int8_layers:>5d} "
                f"{row.int16_layers:>6d} "
                f"{row.buffer_bytes / 1024:>6.0f} KiB "
                f"{row.compile_us / 1000:>7.1f} ms "
                f"{row.tune_us / 1000:>7.1f} ms"
            )
        return "\n".join(lines)


def compile_report(registry: MetricsRegistry | None = None) -> CompileReport:
    """Assemble the per-dtype compilation table from the series."""
    registry = registry or get_registry()
    slots: dict[str, dict[str, float]] = {}
    for (name, label_pairs), metric in registry.items():
        if not name.startswith("compile."):
            continue
        labels = dict(label_pairs)
        dtype = labels.get("dtype")
        if dtype is None:
            continue
        slot = slots.setdefault(dtype, {})
        if name == "compile.layers":
            slot[f"layers:{labels.get('kernel')}"] = metric.value
        else:
            slot[name] = metric.value
    rows = tuple(
        CompileRow(
            dtype=dtype,
            plans=int(slot.get("compile.plans", 0)),
            dense_layers=int(slot.get("layers:dense-gemm", 0)),
            sparse_layers=int(slot.get("layers:csr-spmm", 0)),
            buffer_bytes=int(slot.get("compile.buffer_bytes", 0)),
            compile_us=slot.get("compile.compile_us", 0.0),
            block_layers=int(slot.get("layers:block-spmm", 0)),
            int8_layers=int(slot.get("layers:int8-gemm", 0)),
            int16_layers=int(slot.get("layers:int16-gemm", 0)),
            tune_us=slot.get("compile.tune_us", 0.0),
        )
        for dtype, slot in sorted(slots.items())
    )
    return CompileReport(rows=rows)
