"""Cascade metric series and the per-stage funnel report.

The cascade adapter (:class:`~repro.runtime.adapters.CascadeScorer`)
folds every query it scores into the default
:class:`~repro.obs.metrics.MetricsRegistry`, the same way the sharded
scorer feeds the ``parallel.*`` series:

* ``cascade.queries`` (counter, label ``pipeline``) — queries scored;
* ``cascade.early_exits`` (counter, label ``pipeline``) — queries the
  per-query budget stopped before the last stage;
* ``cascade.predicted_spend_us`` (histogram, label ``pipeline``) — the
  calibrated-price-predicted spend per query, the number the budget is
  enforced against;
* ``cascade.stage_queries`` (counter, labels ``pipeline``, ``stage``,
  ``level``) — queries that *reached* the stage;
* ``cascade.stage_docs`` (counter, same labels) — documents the stage
  scored;
* ``cascade.stage_us`` (counter, same labels) — measured stage wall
  microseconds, summed.

:func:`cascade_report` reads the series back into one row per stage —
the survivor funnel (docs/query entering each level), measured µs/doc,
and each pipeline's query/early-exit totals — the staged counterpart of
:func:`repro.obs.parallel.parallel_report`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.obs.metrics import BoundSeries, MetricsRegistry, get_registry


class CascadeSeries(BoundSeries):
    """The ``cascade.*`` series of one pipeline, looked up once.

    Recording a query costs a few dict probes instead of a label-keyed
    registry lookup per series (see :class:`~repro.obs.metrics.
    BoundSeries`).
    """

    def __init__(
        self, pipeline: str, registry: MetricsRegistry | None = None
    ) -> None:
        super().__init__(registry, pipeline=pipeline)
        self.pipeline = pipeline

    def record(
        self,
        *,
        stage_names: Sequence[str],
        stage_docs: Sequence[int],
        stage_us: Sequence[float],
        predicted_spend_us: float,
        exited_early: bool,
    ) -> None:
        """Fold one scored query in (see :func:`record_cascade_query`)."""
        self.refresh()
        handle = self.handle
        handle("counter", "cascade.queries").inc()
        if exited_early:
            handle("counter", "cascade.early_exits").inc()
        if math.isfinite(predicted_spend_us):
            handle("histogram", "cascade.predicted_spend_us").add(
                predicted_spend_us
            )
        for level, (name, docs, us) in enumerate(
            zip(stage_names, stage_docs, stage_us)
        ):
            self._stage_handle("cascade.stage_queries", level, name).inc()
            if docs:
                self._stage_handle("cascade.stage_docs", level, name).inc(
                    int(docs)
                )
            if math.isfinite(us) and us > 0:
                self._stage_handle("cascade.stage_us", level, name).inc(us)

    def _stage_handle(self, name: str, level: int, stage: str):
        """The per-stage counter ``name`` of ``stage`` at ``level``."""
        key = (name, level, stage)
        metric = self._handles.get(key)
        if metric is None:
            metric = self._handles[key] = self._bound[0].counter(
                name, **self.labels, stage=stage, level=str(level)
            )
        return metric


def record_cascade_query(
    pipeline: str,
    *,
    stage_names: Sequence[str],
    stage_docs: Sequence[int],
    stage_us: Sequence[float],
    predicted_spend_us: float,
    exited_early: bool,
    registry: MetricsRegistry | None = None,
) -> None:
    """Fold one scored query into the ``cascade.*`` series.

    ``stage_names``/``stage_docs``/``stage_us`` are aligned over the
    stages the query *executed* (a budget exit shortens them).
    Zero-doc queries should not be recorded — the engine treats them as
    no-ops and so does this layer.  A scorer that records many queries
    keeps one :class:`CascadeSeries` instead.
    """
    CascadeSeries(pipeline, registry).record(
        stage_names=stage_names,
        stage_docs=stage_docs,
        stage_us=stage_us,
        predicted_spend_us=predicted_spend_us,
        exited_early=exited_early,
    )


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CascadeStageRow:
    """One pipeline stage's position in the survivor funnel."""

    pipeline: str
    stage: str
    level: int
    queries: int
    docs: int
    total_us: float

    @property
    def docs_per_query(self) -> float:
        """Mean documents entering this stage per query that reached it."""
        return self.docs / self.queries if self.queries else 0.0

    @property
    def us_per_doc(self) -> float:
        """Measured mean stage cost per scored document."""
        return self.total_us / self.docs if self.docs else float("nan")

    def describe(self) -> str:
        return (
            f"{self.pipeline}[{self.level}] {self.stage}: "
            f"{self.queries} queries, {self.docs_per_query:.1f} docs/query, "
            f"{self.us_per_doc:.2f} us/doc"
        )


@dataclass(frozen=True)
class CascadeReport:
    """Per-stage funnel rows plus per-pipeline totals and a rendering."""

    rows: tuple[CascadeStageRow, ...]
    queries: dict[str, int]
    early_exits: dict[str, int]
    mean_predicted_spend_us: dict[str, float]

    def pipeline(self, name: str) -> tuple[CascadeStageRow, ...]:
        """The funnel rows of one pipeline, in stage order."""
        return tuple(row for row in self.rows if row.pipeline == name)

    def render(self) -> str:
        if not self.rows:
            return "(no cascade queries recorded)"
        header = (
            f"{'pipeline':<14} {'lvl':>3} {'stage':<22} {'queries':>8} "
            f"{'docs/query':>11} {'us/doc':>8}"
        )
        lines = ["Cascade funnel", header, "-" * len(header)]
        for row in self.rows:
            us = (
                f"{row.us_per_doc:>8.2f}"
                if math.isfinite(row.us_per_doc)
                else f"{'-':>8}"
            )
            lines.append(
                f"{row.pipeline:<14} {row.level:>3d} {row.stage:<22} "
                f"{row.queries:>8d} {row.docs_per_query:>11.1f} {us}"
            )
        for name in sorted(self.queries):
            total = self.queries[name]
            exits = self.early_exits.get(name, 0)
            spend = self.mean_predicted_spend_us.get(name, float("nan"))
            spend_txt = (
                f"{spend:.1f} us/query predicted"
                if math.isfinite(spend)
                else "unpriced"
            )
            lines.append(
                f"{name}: {total} queries, {exits} budget early-exits "
                f"({exits / total:.1%}), {spend_txt}"
            )
        return "\n".join(lines)


def cascade_report(
    registry: MetricsRegistry | None = None,
) -> CascadeReport:
    """Assemble the per-stage funnel table from the ``cascade.*`` series."""
    registry = registry or get_registry()
    stages: dict[tuple[str, int, str], dict[str, float]] = {}
    queries: dict[str, int] = {}
    early_exits: dict[str, int] = {}
    spend: dict[str, float] = {}
    for (name, label_pairs), metric in registry.items():
        labels = dict(label_pairs)
        pipeline = labels.get("pipeline")
        if pipeline is None:
            continue
        if name == "cascade.queries":
            queries[pipeline] = int(metric.value)
        elif name == "cascade.early_exits":
            early_exits[pipeline] = int(metric.value)
        elif name == "cascade.predicted_spend_us":
            snap = metric.snapshot()
            spend[pipeline] = (
                snap["sum"] / snap["count"] if snap["count"] else float("nan")
            )
        elif name in (
            "cascade.stage_queries",
            "cascade.stage_docs",
            "cascade.stage_us",
        ):
            stage = labels.get("stage")
            try:
                level = int(labels.get("level", "0"))
            except ValueError:
                continue
            if stage is None:
                continue
            stages.setdefault((pipeline, level, stage), {})[name] = (
                metric.value
            )
    rows = tuple(
        CascadeStageRow(
            pipeline=pipeline,
            stage=stage,
            level=level,
            queries=int(slot.get("cascade.stage_queries", 0)),
            docs=int(slot.get("cascade.stage_docs", 0)),
            total_us=slot.get("cascade.stage_us", 0.0),
        )
        for (pipeline, level, stage), slot in sorted(stages.items())
    )
    return CascadeReport(
        rows=rows,
        queries=queries,
        early_exits=early_exits,
        mean_predicted_spend_us=spend,
    )
