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
from dataclasses import dataclass

from repro.obs.metrics import BoundSeries, MetricsRegistry, get_registry


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
        """Fold one executed request in (see :func:`record_request`)."""
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


def record_request(
    *,
    backend: str,
    n_docs: int,
    seconds: float,
    predicted_us_per_doc: float,
    registry: MetricsRegistry | None = None,
) -> None:
    """Fold one executed request into the per-backend drift series.

    A recorder of many requests keeps one :class:`DriftSeries` instead.
    """
    DriftSeries(backend, registry).record(
        n_docs=n_docs,
        seconds=seconds,
        predicted_us_per_doc=predicted_us_per_doc,
    )


@dataclass(frozen=True)
class DriftRow:
    """One backend's predicted-vs-measured position."""

    backend: str
    requests: int
    documents: int
    predicted_us_per_doc: float
    measured_us_per_doc: float
    drift_pct: float

    def describe(self) -> str:
        sign = "+" if self.drift_pct >= 0 else ""
        return (
            f"{self.backend}: predicted {self.predicted_us_per_doc:.2f} "
            f"us/doc, measured {self.measured_us_per_doc:.2f} us/doc "
            f"({sign}{self.drift_pct:.1f}%)"
        )


@dataclass(frozen=True)
class DriftReport:
    """Per-backend drift rows plus an ASCII rendering."""

    rows: tuple[DriftRow, ...]

    def row(self, backend: str) -> DriftRow | None:
        for row in self.rows:
            if row.backend == backend:
                return row
        return None

    def render(self) -> str:
        if not self.rows:
            return "(no scoring traffic recorded)"
        header = (
            f"{'backend':<20} {'requests':>9} {'docs':>9} "
            f"{'predicted':>12} {'measured':>12} {'drift':>8}"
        )
        lines = [
            "Predicted vs measured scoring cost (us/doc)",
            header,
            "-" * len(header),
        ]
        for row in self.rows:
            sign = "+" if row.drift_pct >= 0 else ""
            lines.append(
                f"{row.backend:<20} {row.requests:>9d} {row.documents:>9d} "
                f"{row.predicted_us_per_doc:>12.2f} "
                f"{row.measured_us_per_doc:>12.2f} "
                f"{sign}{row.drift_pct:>6.1f}%"
            )
        return "\n".join(lines)


def drift_report(registry: MetricsRegistry | None = None) -> DriftReport:
    """Assemble the per-backend drift table from the recorded series."""
    registry = registry or get_registry()
    backends: dict[str, dict[str, float]] = {}
    for (name, label_pairs), metric in registry.items():
        if not name.startswith("scoring."):
            continue
        labels = dict(label_pairs)
        backend = labels.get("backend")
        if backend is None:
            continue
        slot = backends.setdefault(backend, {})
        if name in ("scoring.requests", "scoring.documents"):
            slot[name] = metric.value
        elif name in (
            "scoring.predicted_us_per_doc",
            "scoring.measured_us_per_doc",
            "scoring.drift_pct",
        ):
            slot[name] = metric.value
    rows = []
    for backend in sorted(backends):
        slot = backends[backend]
        rows.append(
            DriftRow(
                backend=backend,
                requests=int(slot.get("scoring.requests", 0)),
                documents=int(slot.get("scoring.documents", 0)),
                predicted_us_per_doc=slot.get(
                    "scoring.predicted_us_per_doc", float("nan")
                ),
                measured_us_per_doc=slot.get(
                    "scoring.measured_us_per_doc", float("nan")
                ),
                drift_pct=slot.get("scoring.drift_pct", float("nan")),
            )
        )
    return DriftReport(rows=tuple(rows))
