"""Concrete :class:`~repro.runtime.base.Scorer` adapters.

One adapter per model family, each pairing an execution path with its
calibrated price:

==================  =============================  =========================
backend             executes                        priced by
==================  =============================  =========================
quickscorer         QuickScorer bitvector traversal QuickScorer cost model
quickscorer-gpu     (same traversal, CPU-simulated) GPU QuickScorer model
cascade             per-request early-exit cascade  expected amortized cost
compiled-network    AOT-compiled inference plan     the plan's chosen kernels
==================  =============================  =========================

Every :class:`~repro.distill.student.DistilledStudent`, dense or
pruned, scores through its compiled plan, by default a float64
``stable=True`` one, so micro-batched and whole-request scoring are
bit-identical (see ``base.py``).  The paper's analytic dense and hybrid
prices are :func:`~repro.runtime.pricing.price` over a
:class:`~repro.runtime.pricing.NetworkShape`
(:func:`~repro.runtime.pricing.student_shape`).
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.design.cascade import EarlyExitCascade
from repro.distill.student import DistilledStudent
from repro.forest.ensemble import TreeEnsemble
from repro.obs.cascade import CascadeSeries
from repro.quickscorer.scorer import QuickScorer
from repro.runtime.base import BaseScorer, hidden_request_rows, request_rows
from repro.runtime.context import PricingContext


class QuickScorerAdapter(BaseScorer):
    """A :class:`TreeEnsemble` scored through QuickScorer.

    Oblivious-tree ensembles flow through unchanged — they are plain
    ``TreeEnsemble`` objects and QuickScorer encodes them exactly.
    """

    backend = "quickscorer"

    def __init__(
        self,
        ensemble: TreeEnsemble,
        context: PricingContext,
        *,
        false_fraction: float | None = None,
        blockwise: bool = True,
    ) -> None:
        if not isinstance(ensemble, TreeEnsemble):
            raise TypeError(
                f"expected a TreeEnsemble, got {type(ensemble).__name__}"
            )
        self.ensemble = ensemble
        self._scorer = QuickScorer(ensemble)
        super().__init__(
            price_fn=lambda: context.qs_cost.scoring_time_for(
                ensemble, false_fraction=false_fraction, blockwise=blockwise
            ),
            input_dim=ensemble.n_features,
        )

    def score(self, features) -> np.ndarray:
        return self._scorer.score(features)

    def describe(self) -> str:
        return f"QuickScorer over {self.ensemble.describe()}"


class GpuQuickScorerAdapter(QuickScorerAdapter):
    """A forest priced by the GPU QuickScorer cost model.

    Execution still runs the (exact) CPU traversal — the environment has
    no device — while the price locates the model on the GPU engine's
    time axis, the same measured-vs-modeled split the library uses
    everywhere.
    """

    backend = "quickscorer-gpu"

    def __init__(
        self,
        ensemble: TreeEnsemble,
        context: PricingContext,
        *,
        batch_docs: int = 10_000,
    ) -> None:
        super().__init__(ensemble, context)
        self._price = None  # re-arm lazy pricing with the GPU model
        self._price_fn = lambda: context.gpu_cost.scoring_time_us(
            ensemble.n_trees,
            ensemble.max_leaves,
            batch_docs=batch_docs,
            n_features=ensemble.n_features,
        )

    def describe(self) -> str:
        return f"GPU QuickScorer over {self.ensemble.describe()}"


class CompiledNetworkScorer(BaseScorer):
    """A student executed through an ahead-of-time compiled plan.

    Construction compiles the student's network into an
    :class:`~repro.runtime.compile.InferencePlan` — per-layer kernels
    measured on this host, frozen weight copies,
    fused epilogues and preallocated ping-pong buffers — so scoring is
    the plan's zero-allocation loop.  The price is the sum of the
    *chosen* kernels' predicted per-document costs, and the plan's
    weight digest doubles as the scorer ``fingerprint()``, keeping
    :class:`~repro.runtime.parallel.ScoreCache` entries sound across
    recompilations.

    The plan is compiled in **stable** mode by default: the adapter
    inherits the :class:`Scorer` chunk-invariance guarantee (sharding
    and micro-batching may never change a ranking), which BLAS GEMM
    bits over a whole batch cannot honour.  Pass ``stable=False`` for
    the native BLAS kernels when the scorer will only ever see whole
    requests.

    Unlike the lazily-priced forest adapters, compilation prices every
    layer with the predictors and times the candidate kernels, so the
    cost models are built eagerly here.
    """

    backend = "compiled-network"

    def __init__(
        self,
        student: DistilledStudent,
        context: PricingContext,
        *,
        plan_dtype: str = "float64",
        max_batch: int = 4096,
        kernels=None,
        stable: bool = True,
        quantize: str | None = None,
        tolerance: float | None = None,
        block_sparse: bool = False,
        block_shape: tuple[int, int] = (64, 8),
    ) -> None:
        from repro.runtime.compile import compile_network

        if not isinstance(student, DistilledStudent):
            raise TypeError(
                f"expected a DistilledStudent, got {type(student).__name__}"
            )
        self.student = student
        self.plan = compile_network(
            student.network,
            context=context,
            dtype=plan_dtype,
            max_batch=max_batch,
            kernels=kernels,
            stable=stable,
            quantize=quantize,
            tolerance=tolerance,
            block_sparse=block_sparse,
            block_shape=block_shape,
        )
        super().__init__(
            price_fn=lambda: self.plan.predicted_us_per_doc,
            input_dim=student.input_dim,
        )

    def fingerprint(self) -> str:
        """The plan's weight/kernel digest (see ``scorer_fingerprint``)."""
        return self.plan.fingerprint

    def score(self, features) -> np.ndarray:
        z = self.student.normalizer.transform(
            np.asarray(features, dtype=np.float64)
        )
        return self.plan.score(z)

    def describe(self) -> str:
        mix = " + ".join(
            f"{n} {name}" for name, n in self.plan.kernel_counts().items()
        )
        return (
            f"compiled net {self.student.describe()} "
            f"[{self.plan.dtype_name}, {mix}]"
        )


class CascadeScorer(BaseScorer):
    """An early-exit cascade served as one scorer.

    Cascades rank *within* a request (survivor cuts are per-query), so
    the adapter is **not batchable**: no call may split a request.  It
    is **coalescable**: the batch engine hands it a whole coalesced
    batch in one call and pins the request boundaries
    (:func:`~repro.runtime.base.request_rows`); the cascade then runs
    each stage once over every request's survivors
    (:meth:`~repro.design.cascade.EarlyExitCascade.
    score_queries_detailed`), bit-identically to scoring each request
    alone.  Without pinned boundaries the call is one query.

    Every scored query feeds the ``cascade.*`` series (survivor funnel,
    budget early-exits, predicted spend — see :mod:`repro.obs.cascade`),
    a shared stage call counting toward each query's ``stage_us`` in
    proportion to its documents.  When request tracing is live, each
    request's own timeline gets one ``cascade:<stage>`` detail stage per
    executed level (the shared call's span, with the request's
    ``share_us``) plus ``cascade_*`` annotations.  Scores are
    unaffected.
    """

    backend = "cascade"
    batchable = False
    coalescable = True

    def __init__(
        self, cascade: EarlyExitCascade, context: PricingContext
    ) -> None:
        if not isinstance(cascade, EarlyExitCascade):
            raise TypeError(
                f"expected an EarlyExitCascade, got {type(cascade).__name__}"
            )
        self.cascade = cascade
        self.pipeline_name = getattr(cascade, "name", None) or "cascade"
        self._series = CascadeSeries(self.pipeline_name)
        super().__init__(
            price_fn=cascade.expected_cost_us_per_doc,
            input_dim=None,
        )

    def score(self, features) -> np.ndarray:
        x = np.asarray(features, dtype=np.float64)
        rows = request_rows(len(x)) or (len(x),)
        # The stages must not read this call's boundaries as their own.
        with hidden_request_rows():
            scores, results = self.cascade.score_queries_detailed(x, rows)
        # Each request's traced context: its own slot of the engine
        # call, or every live request when the call is one query.
        slots = obs.request_slots()
        if len(slots) == len(rows):
            contexts = [(ctx,) if ctx is not None else () for ctx in slots]
        elif len(rows) == 1:
            contexts = [obs.active_requests()]
        else:
            contexts = [()] * len(rows)
        names = tuple(stage.name for stage in self.cascade.stages)
        for q, result in enumerate(results):
            if not result.stages_run:
                continue
            stage_names = names[: result.stages_run]
            stage_us = result.stage_us
            self._series.record(
                stage_names=stage_names,
                stage_docs=result.stage_docs,
                stage_us=stage_us,
                predicted_spend_us=result.predicted_spend_us,
                exited_early=result.exited_early,
            )
            for ctx in contexts[q]:
                for name, (start, end), docs, total, share in zip(
                    stage_names,
                    result.stage_spans,
                    result.stage_docs,
                    result.stage_batch_docs,
                    stage_us,
                ):
                    ctx.stage(
                        f"cascade:{name}",
                        start,
                        end,
                        docs=docs,
                        batch_docs=total,
                        share_us=round(share, 3),
                    )
                ctx.annotate(
                    cascade=self.pipeline_name,
                    cascade_stages=result.stages_run,
                    cascade_exited_early=result.exited_early,
                    cascade_predicted_spend_us=round(
                        result.predicted_spend_us, 3
                    ),
                )
        return scores

    def describe(self) -> str:
        return f"cascade [{self.cascade.describe()}]"


__all__ = [
    "QuickScorerAdapter",
    "GpuQuickScorerAdapter",
    "CompiledNetworkScorer",
    "CascadeScorer",
]
