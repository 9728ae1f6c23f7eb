"""Per-tenant SLO burn-rate monitoring over sliding time windows.

``serving.slo_miss`` is a cumulative counter — fine for a post-hoc
report, useless for paging: a counter cannot say *how fast* the error
budget is burning right now.  :class:`SloMonitor` keeps, per tenant,
served/missed counts in a ring of fixed-width time buckets and derives
the classic SRE **multi-window burn rate**:

    ``burn = (missed / served) / error_budget``

where ``error_budget = 1 - objective`` (objective 99.9% → budget
0.1%).  A burn rate of 1.0 spends exactly the budget over the SLO
period; the standard paging thresholds are *fast* (5-minute window,
threshold 14.4 — budget gone in ~2 days) and *slow* (1-hour window,
threshold 6 — gone in ~5 days).  Requiring the short window keeps
alerts fresh; requiring the long one keeps them from flapping on a
single bad batch.

Memory is O(tenants × bins): each tenant owns one ring of
``policy.bins`` buckets of width ``slow_window_s / bins``; the fast
window reads the newest few buckets of the same ring.  Bucket-edge
granularity means a window's totals can be off by up to one bucket
width of traffic — irrelevant at alerting timescales.

The monitor runs on its own wall-clock (``time.monotonic`` by default,
injectable for tests) rather than the front-end's request clock, and is
fed by :func:`repro.obs.serving.record_response` via
:func:`record_slo_event` whenever a response carries an SLO.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import Callable

from repro.exceptions import ReproError
from repro.utils.tables import format_table


@dataclass(frozen=True)
class SloPolicy:
    """Objective + window/threshold configuration for burn alerting."""

    objective: float = 0.999
    fast_window_s: float = 300.0
    slow_window_s: float = 3600.0
    fast_burn: float = 14.4
    slow_burn: float = 6.0
    bins: int = 60

    def __post_init__(self) -> None:
        if not 0.0 < self.objective < 1.0:
            raise ReproError(
                f"objective must be in (0, 1), got {self.objective}"
            )
        if self.fast_window_s <= 0 or self.slow_window_s <= 0:
            raise ReproError("burn windows must be positive")
        if self.fast_window_s > self.slow_window_s:
            raise ReproError(
                "fast window must not exceed the slow window "
                f"({self.fast_window_s} > {self.slow_window_s})"
            )
        if self.bins < 2:
            raise ReproError(f"bins must be >= 2, got {self.bins}")

    @property
    def error_budget(self) -> float:
        """The tolerated miss ratio: ``1 - objective``."""
        return 1.0 - self.objective

    @property
    def bucket_s(self) -> float:
        """Ring bucket width in seconds."""
        return self.slow_window_s / self.bins


class _WindowCounts:
    """Served/missed counts in a ring of fixed-width time buckets.

    Each slot remembers which bucket *epoch* (``floor(now / bucket_s)``)
    it holds; writing into a slot whose epoch is stale resets it first,
    so the ring never needs a sweeper.
    """

    __slots__ = ("bucket_s", "epochs", "served", "missed")

    def __init__(self, bucket_s: float, n_buckets: int) -> None:
        self.bucket_s = bucket_s
        self.epochs = [-1] * n_buckets
        self.served = [0] * n_buckets
        self.missed = [0] * n_buckets

    def record(self, miss: bool, now: float) -> None:
        epoch = int(now // self.bucket_s)
        idx = epoch % len(self.epochs)
        if self.epochs[idx] != epoch:
            self.epochs[idx] = epoch
            self.served[idx] = 0
            self.missed[idx] = 0
        self.served[idx] += 1
        if miss:
            self.missed[idx] += 1

    def totals(self, window_s: float, now: float) -> tuple[int, int]:
        """(served, missed) across buckets overlapping the last window."""
        current = int(now // self.bucket_s)
        oldest = current - int(math.ceil(window_s / self.bucket_s)) + 1
        served = missed = 0
        for idx, epoch in enumerate(self.epochs):
            if oldest <= epoch <= current:
                served += self.served[idx]
                missed += self.missed[idx]
        return served, missed


@dataclass(frozen=True)
class BurnRow:
    """One tenant's burn position across both alert windows."""

    tenant: str
    fast_served: int
    fast_missed: int
    slow_served: int
    slow_missed: int
    fast_burn: float
    slow_burn: float
    fast_threshold: float
    slow_threshold: float

    @property
    def state(self) -> str:
        """``idle`` / ``ok`` / ``slow-burn`` / ``fast-burn``.

        ``fast-burn`` requires *both* windows over their thresholds —
        the multi-window AND that keeps a single bad batch from paging.
        """
        if not self.slow_served:
            return "idle"
        if (
            self.fast_burn >= self.fast_threshold
            and self.slow_burn >= self.slow_threshold
        ):
            return "fast-burn"
        if self.slow_burn >= self.slow_threshold:
            return "slow-burn"
        return "ok"

    def describe(self) -> str:
        return (
            f"{self.tenant}: fast burn {self.fast_burn:.1f}x "
            f"({self.fast_missed}/{self.fast_served}), "
            f"slow burn {self.slow_burn:.1f}x "
            f"({self.slow_missed}/{self.slow_served}) -> {self.state}"
        )


@dataclass(frozen=True)
class SloBurnReport:
    """Burn rows for every tenant the monitor has seen."""

    policy: SloPolicy
    rows: tuple[BurnRow, ...]

    def tenant(self, name: str) -> BurnRow | None:
        for row in self.rows:
            if row.tenant == name:
                return row
        return None

    @property
    def alerting(self) -> tuple[BurnRow, ...]:
        """Rows currently in ``fast-burn`` or ``slow-burn``."""
        return tuple(r for r in self.rows if r.state.endswith("burn"))

    def to_dict(self) -> dict:
        """JSON-ready report."""
        return {
            "objective": self.policy.objective,
            "rows": [
                {
                    "tenant": r.tenant,
                    "fast_served": r.fast_served,
                    "fast_missed": r.fast_missed,
                    "slow_served": r.slow_served,
                    "slow_missed": r.slow_missed,
                    "fast_burn": round(r.fast_burn, 3),
                    "slow_burn": round(r.slow_burn, 3),
                    "state": r.state,
                }
                for r in self.rows
            ],
        }

    def render(self) -> str:
        """ASCII burn table, one row per tenant."""
        if not self.rows:
            return "(no SLO traffic recorded)"
        return format_table(
            ("tenant", "fast miss", "fast burn", "slow miss", "slow burn",
             "state"),
            (
                (
                    r.tenant,
                    f"{r.fast_missed}/{r.fast_served}",
                    f"{r.fast_burn:.1f}x",
                    f"{r.slow_missed}/{r.slow_served}",
                    f"{r.slow_burn:.1f}x",
                    r.state,
                )
                for r in self.rows
            ),
            title=(
                f"SLO burn (objective {self.policy.objective:.3%}, budget "
                f"{self.policy.error_budget:.3%})"
            ),
        )


class SloMonitor:
    """Thread-safe per-tenant burn-rate tracker.

    Parameters
    ----------
    policy:
        Objective, windows and thresholds (default: 99.9% objective,
        5-minute/14.4× fast and 1-hour/6× slow windows).
    clock:
        Monotonic-seconds source — injectable so tests can replay
        hours of traffic instantly.
    """

    def __init__(
        self,
        policy: SloPolicy | None = None,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.policy = policy or SloPolicy()
        self._clock = clock
        self._lock = threading.Lock()
        # One extra bucket so the slot being overwritten "now" never
        # aliases the oldest slot still inside the slow window.
        self._n_buckets = self.policy.bins + 1
        self._tenants: dict[str, _WindowCounts] = {}

    # ------------------------------------------------------------------
    def record(
        self, tenant: str, miss: bool, *, now: float | None = None
    ) -> None:
        """Fold one served response (hit or miss) into the windows."""
        now = self._clock() if now is None else now
        with self._lock:
            counts = self._tenants.get(tenant)
            if counts is None:
                counts = self._tenants[tenant] = _WindowCounts(
                    self.policy.bucket_s, self._n_buckets
                )
            counts.record(miss, now)

    def report(self, *, now: float | None = None) -> SloBurnReport:
        """The burn table at ``now`` (defaults to the monitor's clock)."""
        now = self._clock() if now is None else now
        policy = self.policy
        rows = []
        with self._lock:
            tenants = sorted(self._tenants.items())
            for tenant, counts in tenants:
                fast_served, fast_missed = counts.totals(
                    policy.fast_window_s, now
                )
                slow_served, slow_missed = counts.totals(
                    policy.slow_window_s, now
                )
                rows.append(
                    BurnRow(
                        tenant=tenant,
                        fast_served=fast_served,
                        fast_missed=fast_missed,
                        slow_served=slow_served,
                        slow_missed=slow_missed,
                        fast_burn=_burn(
                            fast_missed, fast_served, policy.error_budget
                        ),
                        slow_burn=_burn(
                            slow_missed, slow_served, policy.error_budget
                        ),
                        fast_threshold=policy.fast_burn,
                        slow_threshold=policy.slow_burn,
                    )
                )
        return SloBurnReport(policy=policy, rows=tuple(rows))

    def reset(self) -> None:
        """Forget every tenant's windows."""
        with self._lock:
            self._tenants.clear()


def _burn(missed: int, served: int, budget: float) -> float:
    if not served:
        return 0.0
    return (missed / served) / budget


# ----------------------------------------------------------------------
# Process-wide default monitor
# ----------------------------------------------------------------------
_default_monitor = SloMonitor()


def get_slo_monitor() -> SloMonitor:
    """The process-wide default SLO burn monitor."""
    return _default_monitor


def set_slo_monitor(monitor: SloMonitor) -> SloMonitor:
    """Replace the default SLO monitor; returns the previous one."""
    global _default_monitor
    previous = _default_monitor
    _default_monitor = monitor
    return previous


def record_slo_event(tenant: str, miss: bool) -> None:
    """Fold one SLO-accounted response into the default monitor."""
    _default_monitor.record(tenant, miss)


def slo_burn_report() -> SloBurnReport:
    """The default monitor's burn table."""
    return _default_monitor.report()
