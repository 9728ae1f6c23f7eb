"""Declarative budgeted ranking pipelines over the scoring runtime.

The execution core of a cascade lives in
:class:`repro.design.cascade.EarlyExitCascade`: banded per-query
refinement with ceil survivor cuts and an optional per-query µs budget.
This module gives it a first-class, *declarative* face so a staged
retrieval→rerank pipeline is configured the same way as batching,
parallelism or resilience — a typed, JSON-round-trippable config nested
in :class:`~repro.runtime.config.ServiceConfig`:

* :class:`PipelineStageConfig` — one stage: a model **role name**, the
  runtime backend to execute it with, the survivor keep fraction and
  optional backend options / price override.  Pure data; models never
  appear in the config.
* :class:`PipelineConfig` — the ordered stages plus the per-query
  budget.  ``to_dict()``/``from_dict()`` round-trip through JSON.
* :class:`RankingPipeline` — an :class:`EarlyExitCascade` built from a
  config and a ``{role: model}`` mapping via
  :func:`build_pipeline`; being a cascade subclass, ``make_scorer``
  dispatches it to the ``cascade`` backend unchanged, so it serves
  through :class:`~repro.serving.ScoringService`, the asyncio
  front-end, fallback chains and the batch engine like any scorer.

Stage prices come from the calibrated
:func:`~repro.runtime.pricing.price` through each stage's backend
adapter, which is what makes the per-query budget *predictive*: the
cascade stops promoting survivors once their predicted spend would
exceed the budget, before the expensive stage ever runs.  See
``docs/cascade.md``.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any

from repro.design.cascade import CascadeStage, EarlyExitCascade
from repro.exceptions import ConfigError
from repro.utils.codec import ConfigCodec

__all__ = [
    "PipelineConfig",
    "PipelineStageConfig",
    "RankingPipeline",
    "build_pipeline",
]


@dataclass(frozen=True)
class PipelineStageConfig(ConfigCodec):
    """One declarative stage of a :class:`PipelineConfig`.

    Parameters
    ----------
    model:
        Role name resolved against the ``{role: model}`` mapping handed
        to :func:`build_pipeline` (e.g. ``"pruned"``, ``"student"``,
        ``"teacher"``).  The config stays pure data; live models are
        attached at build time, the same split
        :class:`~repro.runtime.config.ResilienceConfig` makes for
        fallback models.
    backend:
        Runtime backend name executing the stage (``None`` = registry
        auto-dispatch for the bound model).
    keep_fraction:
        Share of each query's surviving documents this stage promotes
        (``ceil`` policy; ignored on the last stage).
    backend_options:
        Extra keyword options for the backend factory (e.g.
        ``{"plan_dtype": "float32"}`` or ``{"quantize": "int8"}``).
    cost_us_per_doc:
        Optional price override; default is the bound scorer's
        calibrated ``predicted_us_per_doc``.
    name:
        Display name (defaults to ``model``).
    """

    model: str
    backend: str | None = None
    keep_fraction: float = 1.0
    backend_options: dict | None = None
    cost_us_per_doc: float | None = None
    name: str | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.model or not isinstance(self.model, str):
            raise ConfigError(
                f"stage model must be a non-empty role name, got {self.model!r}"
            )
        if not 0.0 < self.keep_fraction <= 1.0:
            raise ConfigError(
                f"keep_fraction must be in (0, 1], got {self.keep_fraction}"
            )
        if self.cost_us_per_doc is not None and not (
            math.isfinite(self.cost_us_per_doc) and self.cost_us_per_doc >= 0
        ):
            raise ConfigError(
                f"cost_us_per_doc must be finite and >= 0 (or None), "
                f"got {self.cost_us_per_doc}"
            )
        if self.backend_options is not None:
            if not isinstance(self.backend_options, Mapping):
                raise ConfigError(
                    "backend_options must be a mapping, got "
                    f"{type(self.backend_options).__name__}"
                )
            items = dict(self.backend_options)
            if any(not isinstance(k, str) for k in items):
                raise ConfigError("backend_options keys must be strings")
            object.__setattr__(self, "backend_options", items or None)

    @property
    def label(self) -> str:
        """The display name of this stage."""
        return self.name or self.model


@dataclass(frozen=True)
class PipelineConfig(ConfigCodec):
    """The declarative shape of a multi-stage ranking pipeline.

    Parameters
    ----------
    stages:
        Ordered :class:`PipelineStageConfig` entries (dicts are
        coerced), cheapest first; the last stage is the final reranker
        and its ``keep_fraction`` is ignored.
    budget_us_per_query:
        Optional per-query spending cap enforced by predicted cost —
        see :class:`~repro.design.cascade.EarlyExitCascade`.
    """

    stages: tuple[PipelineStageConfig, ...] = ()
    budget_us_per_query: float | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.stages:
            raise ConfigError("a pipeline needs at least one stage")
        if self.budget_us_per_query is not None and not (
            math.isfinite(self.budget_us_per_query)
            and self.budget_us_per_query > 0
        ):
            raise ConfigError(
                f"budget_us_per_query must be finite and > 0 (or None), "
                f"got {self.budget_us_per_query}"
            )

    @property
    def roles(self) -> tuple[str, ...]:
        """Model role names the stages reference, in stage order."""
        return tuple(stage.model for stage in self.stages)


class RankingPipeline(EarlyExitCascade):
    """An :class:`EarlyExitCascade` built from a declarative config.

    Constructed by :func:`build_pipeline`; carries the
    :class:`PipelineConfig` it was built from (``config``) so the
    serving layer can serialize the pipeline's shape, and a readable
    ``name``.  Everything behavioural — banded refinement scoring, ceil
    cuts, per-query budget exits — is inherited.
    """

    def __init__(
        self,
        stages,
        *,
        budget_us_per_query: float | None = None,
        config: PipelineConfig | None = None,
        name: str = "pipeline",
    ) -> None:
        super().__init__(stages, budget_us_per_query=budget_us_per_query)
        self.config = config
        self.name = name

    def describe(self) -> str:
        return f"{self.name}: {super().describe()}"


def build_pipeline(
    models: Mapping[str, Any],
    config: PipelineConfig,
    *,
    context=None,
    name: str = "pipeline",
) -> RankingPipeline:
    """Bind a :class:`PipelineConfig` to live models.

    ``models`` maps each role name a stage references to either a raw
    model (adapted through :func:`~repro.runtime.make_scorer` with the
    stage's backend and options) or an already-built
    :class:`~repro.runtime.base.Scorer` (used as-is; its calibrated
    price becomes the stage cost unless overridden).
    """
    from repro.runtime.base import is_scorer

    if isinstance(config, Mapping):
        config = PipelineConfig.from_dict(config)
    if not isinstance(config, PipelineConfig):
        raise ConfigError(
            f"expected a PipelineConfig, got {type(config).__name__}"
        )
    stages = []
    for stage_config in config.stages:
        role = stage_config.model
        if role not in models:
            raise ConfigError(
                f"pipeline stage {stage_config.label!r} references model "
                f"role {role!r} but only {sorted(models)} were provided"
            )
        model = models[role]
        if is_scorer(model):
            if stage_config.backend or stage_config.backend_options:
                raise ConfigError(
                    f"stage {stage_config.label!r}: role {role!r} is "
                    "already a built scorer; backend/backend_options "
                    "cannot be re-applied"
                )
            stages.append(
                CascadeStage(
                    name=stage_config.name or model.describe(),
                    score_fn=model.score,
                    cost_us_per_doc=(
                        model.predicted_us_per_doc
                        if stage_config.cost_us_per_doc is None
                        else stage_config.cost_us_per_doc
                    ),
                    keep_fraction=stage_config.keep_fraction,
                )
            )
        else:
            stages.append(
                CascadeStage.from_model(
                    model,
                    keep_fraction=stage_config.keep_fraction,
                    name=stage_config.name or role,
                    cost_us_per_doc=stage_config.cost_us_per_doc,
                    context=context,
                    backend=stage_config.backend,
                    **(stage_config.backend_options or {}),
                )
            )
    return RankingPipeline(
        stages,
        budget_us_per_query=config.budget_us_per_query,
        config=config,
        name=name,
    )
