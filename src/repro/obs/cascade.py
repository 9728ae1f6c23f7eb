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
from typing import Sequence

from repro.obs.metrics import BoundSeries, MetricsRegistry
from repro.obs.report import (
    Column,
    Report,
    ReportSpec,
    TableSpec,
    build_report,
    count,
    ratio,
    stat,
    value,
)


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
        """Fold one scored query in.

        ``stage_names``/``stage_docs``/``stage_us`` are aligned over the
        stages the query *executed* (a budget exit shortens them).
        Zero-doc queries should not be recorded — the engine treats
        them as no-ops and so does this layer.
        """
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


def _pipelines_footer(report: Report) -> str:
    lines = []
    for row in report.tables["pipelines"].rows:
        spend = row["mean_predicted_spend_us"]
        spend_txt = (
            f"{spend:.1f} us/query predicted"
            if math.isfinite(spend)
            else "unpriced"
        )
        lines.append(
            f"{row['pipeline']}: {row['queries']} queries, "
            f"{row['early_exits']} budget early-exits "
            f"({row['early_exit_ratio']:.1%}), {spend_txt}"
        )
    return "\n".join(lines)


_CASCADE = ReportSpec(
    {
        "stages": TableSpec(
            "Cascade funnel",
            "cascade.stage_",
            ("pipeline", "level", "stage"),
            (
                Column("queries", "queries", count("cascade.stage_queries")),
                Column("docs", None, count("cascade.stage_docs")),
                Column("total_us", None, value("cascade.stage_us", 0.0)),
                Column("docs_per_query", "docs/query",
                       ratio("docs", "queries", 0.0), ".1f"),
                Column("us_per_doc", "us/doc", ratio("total_us", "docs"),
                       ".2f"),
            ),
            parse={"level": int},
        ),
        "pipelines": TableSpec(
            None,
            ("cascade.queries", "cascade.early_exits",
             "cascade.predicted_spend_us"),
            ("pipeline",),
            (
                Column("queries", None, count("cascade.queries")),
                Column("early_exits", None, count("cascade.early_exits")),
                Column("early_exit_ratio", None,
                       ratio("early_exits", "queries")),
                Column("mean_predicted_spend_us", None,
                       stat("cascade.predicted_spend_us", "mean")),
            ),
        ),
    },
    empty="(no cascade queries recorded)",
    footer=_pipelines_footer,
)


def cascade_report(registry: MetricsRegistry | None = None) -> Report:
    """The survivor-funnel table, one row per ``(pipeline, level,
    stage)``, and the per-pipeline query/early-exit/predicted-spend
    table (``tables["pipelines"]``)."""
    return build_report(_CASCADE, registry)
