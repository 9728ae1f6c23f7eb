"""Predicted-vs-measured scoring-cost drift.

The paper's central discipline is *pricing before training*: analytic
cost models decide which architectures are worth fitting.  This module
audits those predictions at the other end of the lifecycle — while the
model serves traffic — by folding every request the
:class:`~repro.runtime.batching.BatchEngine` executes into per-backend
series in the default :class:`~repro.obs.metrics.MetricsRegistry`:

* ``scoring.predicted_us_per_doc`` (gauge) — the calibrated price;
* ``scoring.measured_us_per_doc`` (gauge) — running measured mean;
* ``scoring.drift_pct`` (gauge) — ``(measured - predicted) / predicted``
  as a percentage, positive when the model runs *slower* than priced;
* ``scoring.request_us_per_doc`` (histogram) — per-request unit costs;
* ``scoring.requests`` / ``scoring.documents`` (counters).

:func:`drift_report` reads those series back into a table, one row per
backend — the deployment-time answer to "did the paper's predictor get
it right on this hardware?".
"""

from __future__ import annotations

import math

from repro.obs.metrics import BoundSeries, MetricsRegistry
from repro.obs.report import (
    Column,
    Report,
    ReportSpec,
    TableSpec,
    build_report,
    count,
    value,
)


class DriftSeries(BoundSeries):
    """The ``scoring.*`` drift series of one backend, looked up once
    (see :class:`~repro.obs.metrics.BoundSeries`); the batch engine
    keeps one."""

    def __init__(
        self, backend: str, registry: MetricsRegistry | None = None
    ) -> None:
        super().__init__(registry, backend=backend)
        self.backend = backend

    def record(
        self, *, n_docs: int, seconds: float, predicted_us_per_doc: float
    ) -> None:
        """Fold one executed request into the drift series."""
        self.refresh()
        handle = self.handle
        handle("counter", "scoring.requests").inc()
        docs_total = handle("counter", "scoring.documents")
        docs_total.inc(n_docs)
        seconds_total = handle("counter", "scoring.wall_seconds")
        seconds_total.inc(seconds)
        handle("histogram", "scoring.request_us_per_doc").add(
            seconds * 1e6 / n_docs
        )
        mean_us = seconds_total.value * 1e6 / docs_total.value
        handle("gauge", "scoring.measured_us_per_doc").set(mean_us)
        if math.isfinite(predicted_us_per_doc) and predicted_us_per_doc > 0:
            handle("gauge", "scoring.predicted_us_per_doc").set(
                predicted_us_per_doc
            )
            handle("gauge", "scoring.drift_pct").set(
                (mean_us - predicted_us_per_doc)
                / predicted_us_per_doc
                * 100.0
            )


_DRIFT = ReportSpec(
    {
        "backends": TableSpec(
            "Predicted vs measured scoring cost (us/doc)",
            "scoring.",
            ("backend",),
            (
                Column("requests", "requests", count("scoring.requests")),
                Column("documents", "docs", count("scoring.documents")),
                Column("predicted_us_per_doc", "predicted",
                       value("scoring.predicted_us_per_doc"), ".2f"),
                Column("measured_us_per_doc", "measured",
                       value("scoring.measured_us_per_doc"), ".2f"),
                Column("drift_pct", "drift", value("scoring.drift_pct"),
                       lambda pct: f"{pct:+.1f}%"),
            ),
        ),
    },
    empty="(no scoring traffic recorded)",
)


def drift_report(registry: MetricsRegistry | None = None) -> Report:
    """The per-backend drift table, one row per ``backend`` label."""
    return build_report(_DRIFT, registry)
