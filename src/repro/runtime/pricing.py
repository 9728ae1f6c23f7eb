"""One pricing surface for every model family.

``price(model_or_shape)`` is the single entry point that used to be
re-implemented as three separate dense/sparse/QuickScorer blocks in
``serving.py``, ``core/pipeline.py`` and the CLI.  It accepts either

* a **concrete model** (``TreeEnsemble``, ``DistilledStudent``,
  ``EarlyExitCascade``, or anything a registered backend handles) —
  priced by building its scorer and reading ``predicted_us_per_doc``; or
* a **shape** (:class:`ForestShape` / :class:`NetworkShape`, or any
  object carrying ``n_trees``/``n_leaves`` such as a zoo ``ForestSpec``)
  — priced analytically without training anything, which is how the
  paper's design loop and the benchmark tables locate paper-*named*
  models on the time axis.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.forest.ensemble import TreeEnsemble
from repro.matmul.csr import CsrMatrix
from repro.runtime.context import PricingContext, default_context
from repro.timing.network_predictor import NetworkTimeReport


@dataclass(frozen=True)
class ForestShape:
    """A tree-ensemble shape to price (no trained trees required)."""

    n_trees: int
    n_leaves: int
    false_fraction: float | None = None
    blockwise: bool = True
    footprint_bytes: int | None = None

    def describe(self) -> str:
        return f"{self.n_trees} trees, {self.n_leaves} leaves"


@dataclass(frozen=True, eq=False)
class NetworkShape:
    """A feed-forward architecture to price.

    ``first_layer_matrix`` (a concrete pruned CSR weight matrix) takes
    precedence over ``first_layer_sparsity`` (worst-case Eq. 5); either
    selects hybrid sparse-first-layer pricing.  ``bits`` prices the same
    architecture executed on int-``bits`` kernels.
    """

    input_dim: int
    hidden: tuple[int, ...]
    first_layer_sparsity: float | None = None
    first_layer_matrix: CsrMatrix | None = None
    bits: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))

    @property
    def is_sparse(self) -> bool:
        return (
            self.first_layer_matrix is not None
            or self.first_layer_sparsity is not None
        )

    def describe(self) -> str:
        return "x".join(str(w) for w in self.hidden)


def student_shape(student, *, sparse: bool) -> NetworkShape:
    """The analytic shape of a trained student (the paper's pricing).

    ``sparse`` prices the first layer hybrid, through its actual pruned
    CSR structure (Eq. 5), and the remaining layers densely, the
    paper's deployment model for pruned networks; otherwise the whole
    network prices dense (Eq. 3).
    """
    first = student.network.first_layer.weight.data
    return NetworkShape(
        student.input_dim,
        student.hidden,
        first_layer_matrix=CsrMatrix.from_dense(first) if sparse else None,
    )


def price_forest_shape(
    shape: ForestShape,
    context: PricingContext | None = None,
    *,
    device: str = "cpu",
    batch_docs: int = 10_000,
    n_features: int = 136,
) -> float:
    """µs/doc of a forest shape under the (CPU or GPU) QuickScorer model."""
    ctx = context or default_context()
    if device == "gpu":
        return ctx.gpu_cost.scoring_time_us(
            shape.n_trees,
            shape.n_leaves,
            batch_docs=batch_docs,
            n_features=n_features,
        )
    if device != "cpu":
        raise ValueError(f"device must be 'cpu' or 'gpu', got {device!r}")
    return ctx.qs_cost.scoring_time_us(
        shape.n_trees,
        shape.n_leaves,
        false_fraction=shape.false_fraction,
        blockwise=shape.blockwise,
        forest_footprint_bytes=shape.footprint_bytes,
    )


def network_report(
    shape: NetworkShape, context: PricingContext | None = None
) -> NetworkTimeReport:
    """Full dense/sparse timing report for an architecture."""
    ctx = context or default_context()
    return ctx.predictor.predict(
        shape.input_dim,
        shape.hidden,
        first_layer_sparsity=shape.first_layer_sparsity,
        first_layer_matrix=shape.first_layer_matrix,
    )


def price_network_shape(
    shape: NetworkShape, context: PricingContext | None = None
) -> float:
    """µs/doc of a network shape: dense, hybrid sparse, or quantized."""
    ctx = context or default_context()
    if shape.bits is not None:
        timing = ctx.quantized_timing(shape.bits)
        if shape.is_sparse:
            return timing.hybrid_time_us(
                shape.input_dim,
                shape.hidden,
                first_layer_matrix=shape.first_layer_matrix,
                first_layer_sparsity=shape.first_layer_sparsity,
            )
        return timing.dense_time_us(shape.input_dim, shape.hidden)
    report = network_report(shape, ctx)
    if shape.is_sparse:
        return float(report.hybrid_total_us_per_doc)
    return float(report.dense_total_us_per_doc)


def price(
    model,
    *,
    context: PricingContext | None = None,
    backend: str | None = None,
    **opts,
) -> float:
    """Predicted µs/doc of a model or shape — the one pricing function.

    Concrete models go through the scorer registry (``make_scorer``),
    so a backend registered by downstream code is priced with no change
    here; shapes are priced analytically.  Extra keyword arguments are
    forwarded to the backend builder (for models) or the shape pricer
    (for shapes, e.g. ``device="gpu"``).
    """
    ctx = context or default_context()
    if isinstance(model, ForestShape):
        return price_forest_shape(model, ctx, **opts)
    if isinstance(model, NetworkShape):
        return price_network_shape(model, ctx)
    if (
        not isinstance(model, TreeEnsemble)
        and hasattr(model, "n_trees")
        and hasattr(model, "n_leaves")
    ):
        # Duck-typed forest shapes, e.g. the zoo's ForestSpec: priced at
        # the *named* shape, the paper's convention for scaled forests.
        return price_forest_shape(
            ForestShape(model.n_trees, model.n_leaves), ctx, **opts
        )
    from repro.runtime.registry import make_scorer

    return make_scorer(
        model, backend=backend, context=ctx, **opts
    ).predicted_us_per_doc
