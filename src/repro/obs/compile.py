"""Plan-compilation metric series and the compile report.

:func:`repro.runtime.compile.compile_network` folds every compilation
into the default :class:`~repro.obs.metrics.MetricsRegistry`, mirroring
the ``parallel.*`` series:

* ``compile.plans`` (counter, label ``dtype``) — plans compiled;
* ``compile.layers`` (counter, labels ``dtype``, ``kernel``) — layers
  frozen per kernel choice (``dense-gemm`` / ``csr-spmm`` /
  ``block-spmm`` / ``int8-gemm``);
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

from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.report import (
    Column,
    Report,
    ReportSpec,
    TableSpec,
    build_report,
    count,
    ratio,
    value,
)


def record_compile(
    *,
    dtype: str,
    buffer_bytes: int,
    compile_us: float,
    tune_us: float = 0.0,
    kernel_counts: dict[str, int] | None = None,
    registry: MetricsRegistry | None = None,
) -> None:
    """Fold one plan compilation into the ``compile.*`` series.

    ``kernel_counts`` is the plan's ``kernel_counts()`` mapping (any
    kernel name).
    """
    registry = registry or get_registry()
    registry.counter("compile.plans", dtype=dtype).inc()
    for kernel, layers in (kernel_counts or {}).items():
        if layers:
            registry.counter(
                "compile.layers", dtype=dtype, kernel=kernel
            ).inc(layers)
    registry.gauge("compile.buffer_bytes", dtype=dtype).set(buffer_bytes)
    registry.gauge("compile.compile_us", dtype=dtype).set(compile_us)
    registry.counter("compile.tune_us", dtype=dtype).inc(tune_us)


def _layers(kernel: str):
    """Layers frozen on ``kernel`` (``compile.layers`` split by kernel)."""
    return lambda slot: int(
        slot.get(("compile.layers", "kernel"), {}).get(kernel, 0)
    )


def _ms(us: float) -> str:
    return f"{us / 1000:.1f} ms"


_COMPILE = ReportSpec(
    {
        "dtypes": TableSpec(
            "Compiled plans",
            "compile.",
            ("dtype",),
            (
                Column("plans", "plans", count("compile.plans")),
                Column("dense_layers", "dense", _layers("dense-gemm")),
                Column("sparse_layers", "sparse", _layers("csr-spmm")),
                Column("block_layers", "block", _layers("block-spmm")),
                Column("int8_layers", "int8", _layers("int8-gemm")),
                Column("buffer_bytes", "buffers",
                       count("compile.buffer_bytes"),
                       lambda b: f"{b / 1024:.0f} KiB"),
                Column("compile_us", "compile",
                       value("compile.compile_us", 0.0), _ms),
                Column("tune_us", "tuning",
                       value("compile.tune_us", 0.0), _ms),
                Column("sparse_share", None, ratio(
                    "sparse_layers", ("dense_layers", "sparse_layers"), 0.0
                )),
            ),
        ),
    },
    empty="(no plan compilations recorded)",
)


def compile_report(registry: MetricsRegistry | None = None) -> Report:
    """The per-dtype compilation table, one row per ``dtype`` label."""
    return build_report(_COMPILE, registry)
