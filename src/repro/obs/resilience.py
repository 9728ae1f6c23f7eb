"""Resilience metric series and the per-backend resilience report.

The resilience layer (:mod:`repro.runtime.resilience`) folds every
retry, failure, breaker transition and fallback into the default
:class:`~repro.obs.metrics.MetricsRegistry`, the same way the batch
engine feeds the drift series:

* ``resilience.retries`` (counter, label ``backend``) — re-attempts
  after a failed scorer call;
* ``resilience.failures`` (counter, labels ``backend``/``kind``) —
  failed attempts, by exception class;
* ``resilience.breaker_state`` (gauge, label ``backend``) — 0 closed,
  1 half-open, 2 open;
* ``resilience.breaker_transitions`` (counter, labels ``backend``/
  ``to``) — state changes, by destination state;
* ``resilience.served`` (counter, labels ``primary``/``tier``) —
  requests answered by each tier of a fallback chain;
* ``resilience.fallbacks`` (counter, labels ``primary``/``tier``) —
  the subset a *non-primary* tier had to answer.

:func:`resilience_report` reads the series back into two tables — one
row per fallback chain (requests, fallbacks, fallback ratio) and one row
per backend (retries, failures, current breaker state) — the serving
counterpart of :func:`repro.obs.drift.drift_report`.
"""

from __future__ import annotations

import math

from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.report import (
    Column,
    Report,
    ReportSpec,
    TableSpec,
    build_report,
    count,
    ratio,
)

#: Gauge encoding of the breaker state machine.
BREAKER_STATE_VALUES = {"closed": 0.0, "half-open": 1.0, "open": 2.0}
_STATE_NAMES = {v: k for k, v in BREAKER_STATE_VALUES.items()}


def record_retry(backend: str, *, registry: MetricsRegistry | None = None) -> None:
    """Count one re-attempt against ``backend``."""
    registry = registry or get_registry()
    registry.counter("resilience.retries", backend=backend).inc()


def record_failure(
    backend: str, kind: str, *, registry: MetricsRegistry | None = None
) -> None:
    """Count one failed attempt against ``backend``, by failure kind."""
    registry = registry or get_registry()
    registry.counter("resilience.failures", backend=backend, kind=kind).inc()


def record_breaker_state(
    backend: str,
    state,
    *,
    transition: bool = True,
    registry: MetricsRegistry | None = None,
) -> None:
    """Publish a breaker's current state (and optionally the transition).

    ``state`` may be a :class:`~repro.runtime.resilience.BreakerState`
    or its string value.  ``transition=False`` sets the gauge without
    counting a transition (used when a breaker is first constructed).
    """
    name = str(getattr(state, "value", state))
    try:
        value = BREAKER_STATE_VALUES[name]
    except KeyError:
        raise ValueError(
            f"unknown breaker state {name!r}; "
            f"expected one of {', '.join(BREAKER_STATE_VALUES)}"
        ) from None
    registry = registry or get_registry()
    registry.gauge("resilience.breaker_state", backend=backend).set(value)
    if transition:
        registry.counter(
            "resilience.breaker_transitions", backend=backend, to=name
        ).inc()


def record_served(
    primary: str, tier: str, *, registry: MetricsRegistry | None = None
) -> None:
    """Count one request of chain ``primary`` answered by ``tier``."""
    registry = registry or get_registry()
    registry.counter("resilience.served", primary=primary, tier=tier).inc()


def record_fallback(
    primary: str, tier: str, *, registry: MetricsRegistry | None = None
) -> None:
    """Count one request of chain ``primary`` degraded to ``tier``."""
    registry = registry or get_registry()
    registry.counter("resilience.fallbacks", primary=primary, tier=tier).inc()


def _breaker_state(slot) -> str:
    """The breaker gauge's state name; ``untracked`` without a gauge."""
    state = slot.get("resilience.breaker_state", math.nan)
    if not math.isfinite(state):
        return "untracked"
    return _STATE_NAMES.get(state, "unknown")


_RESILIENCE = ReportSpec(
    {
        "chains": TableSpec(
            "Fallback chains",
            ("resilience.served", "resilience.fallbacks"),
            ("primary",),
            (
                Column("requests", "requests", count("resilience.served")),
                Column("fallbacks", "fallbacks",
                       count("resilience.fallbacks")),
                Column("fallback_ratio", "ratio",
                       ratio("fallbacks", "requests", 0.0), ".1%"),
            ),
        ),
        "backends": TableSpec(
            "Backends",
            ("resilience.retries", "resilience.failures",
             "resilience.breaker_state"),
            ("backend",),
            (
                Column("retries", "retries", count("resilience.retries")),
                Column("failures", "failures", count("resilience.failures")),
                Column("breaker_state", "breaker", _breaker_state),
            ),
        ),
    },
    empty="(no resilience events recorded)",
)


def resilience_report(registry: MetricsRegistry | None = None) -> Report:
    """The per-chain table (one row per ``primary``) and the per-backend
    table (``tables["backends"]``, one row per ``backend``)."""
    return build_report(_RESILIENCE, registry)
