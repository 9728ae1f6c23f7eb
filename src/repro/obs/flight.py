"""Flight recorder: bounded retention of per-request trace records.

A fleet under load produces far more request traces than anyone can
keep, and the interesting ones are exactly the ones a uniform ring
buffer evicts first: the tail.  :class:`FlightRecorder` therefore
retains **tail-based**:

* a ring of the most *recent* records (context for "what was the
  service doing just now"),
* the *slowest-N* served requests ever seen (a min-heap keyed on wall
  time, so a new slow request evicts the least slow retained one),
* every *shed* and every *errored* request, each in its own bounded
  ring (oldest evicted first).

All four stores are bounded at construction time, so memory stays
O(recent + slowest + shed + errored) regardless of traffic volume.
Lookup by trace id is a linear scan over a few hundred retained
records — lookups are rare (CLI / tests), retention is hot.

:class:`ExemplarStore` is the histogram↔trace bridge: per tenant and
per geometric latency bucket it keeps the *last* trace id observed in
that bucket (plus its value and a hit count), so a fat ``p99`` in
``serving.latency_us`` resolves to a concrete trace one can pull from
the flight recorder.  This mirrors OpenMetrics exemplars at a fraction
of the machinery.

Records are stored as the live objects (anything with ``trace_id`` /
``status`` / ``wall_us`` / ``to_dict()`` — in practice
:class:`repro.obs.requests.RequestContext`); :func:`render_record`
renders the *dict* form, so JSON-round-tripped records render the same
as live ones.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from collections import deque
from dataclasses import dataclass
from typing import Any

from repro.exceptions import ReproError

#: Geometric latency bucket upper bounds (µs) for exemplars: 250µs .. 3s.
DEFAULT_EXEMPLAR_BUCKETS_US: tuple[float, ...] = (
    250.0,
    500.0,
    1_000.0,
    2_500.0,
    5_000.0,
    10_000.0,
    25_000.0,
    50_000.0,
    100_000.0,
    250_000.0,
    1_000_000.0,
    3_000_000.0,
    float("inf"),
)


class FlightRecorder:
    """Bounded, tail-biased store of finished request records.

    Parameters
    ----------
    recent:
        Ring size for the most recently finished records (any status).
    slowest:
        How many of the slowest served ("ok") requests to retain
        forever (min-heap eviction: a new record must beat the fastest
        retained one).
    shed, errored:
        Ring sizes for shed and errored requests (all are retained
        until the ring wraps).
    """

    def __init__(
        self,
        *,
        recent: int = 256,
        slowest: int = 32,
        shed: int = 256,
        errored: int = 256,
    ) -> None:
        for label, value in (
            ("recent", recent),
            ("slowest", slowest),
            ("shed", shed),
            ("errored", errored),
        ):
            if value < 1:
                raise ReproError(f"{label} capacity must be >= 1, got {value}")
        self.slowest_capacity = int(slowest)
        self._lock = threading.Lock()
        self._recent: deque = deque(maxlen=int(recent))
        self._slowest: list[tuple[float, int, Any]] = []
        self._shed: deque = deque(maxlen=int(shed))
        self._errored: deque = deque(maxlen=int(errored))
        self._seq = itertools.count()

    # ------------------------------------------------------------------
    def retain(self, record: Any) -> None:
        """File one finished record into every store its status earns."""
        with self._lock:
            self._recent.append(record)
            status = record.status
            if status == "shed":
                self._shed.append(record)
            elif status == "error":
                self._errored.append(record)
            else:
                entry = (record.wall_us, next(self._seq), record)
                if len(self._slowest) < self.slowest_capacity:
                    heapq.heappush(self._slowest, entry)
                elif entry[0] > self._slowest[0][0]:
                    heapq.heapreplace(self._slowest, entry)

    # ------------------------------------------------------------------
    def records(self) -> list[Any]:
        """Every retained record, deduplicated, oldest first."""
        with self._lock:
            merged: dict[str, Any] = {}
            pools = (
                self._recent,
                (entry[2] for entry in self._slowest),
                self._shed,
                self._errored,
            )
            for pool in pools:
                for record in pool:
                    merged.setdefault(record.trace_id, record)
            return list(merged.values())

    def get(self, trace_id: str) -> Any | None:
        """The retained record with exactly this trace id, if any."""
        for record in self.records():
            if record.trace_id == trace_id:
                return record
        return None

    def find(self, prefix: str) -> list[Any]:
        """Retained records whose trace id starts with ``prefix``."""
        return [r for r in self.records() if r.trace_id.startswith(prefix)]

    def slowest_records(self, n: int | None = None) -> list[Any]:
        """The slowest retained served requests, slowest first."""
        with self._lock:
            ranked = sorted(self._slowest, key=lambda e: -e[0])
        records = [entry[2] for entry in ranked]
        return records if n is None else records[:n]

    def counts(self) -> dict[str, int]:
        """Retained record counts per store (recent may overlap others)."""
        with self._lock:
            return {
                "recent": len(self._recent),
                "slowest": len(self._slowest),
                "shed": len(self._shed),
                "errored": len(self._errored),
            }

    def clear(self) -> None:
        """Drop every retained record."""
        with self._lock:
            self._recent.clear()
            self._slowest.clear()
            self._shed.clear()
            self._errored.clear()

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """JSON-ready dump: counts plus every retained record."""
        return {
            "counts": self.counts(),
            "records": [r.to_dict() for r in self.records()],
        }

    def render(self) -> str:
        """One-line-per-record summary of the retained tail."""
        counts = self.counts()
        slowest = self.slowest_records()
        lines = [
            "Flight recorder: "
            + ", ".join(f"{k} {v}" for k, v in counts.items())
        ]
        for record in slowest[:10]:
            lines.append(
                f"  {record.trace_id}  {record.tenant:<12} "
                f"{record.status:<6} {record.wall_us:>10.0f} us"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Exemplars
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Exemplar:
    """The last trace seen in one (tenant, latency-bucket) cell."""

    tenant: str
    le_us: float
    value_us: float
    trace_id: str
    count: int

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation (``le_us`` may be ``inf``)."""
        return {
            "tenant": self.tenant,
            "le_us": self.le_us,
            "value_us": round(self.value_us, 3),
            "trace_id": self.trace_id,
            "count": self.count,
        }


class ExemplarStore:
    """Last-trace-id-per-latency-bucket, per tenant, at O(buckets) memory."""

    def __init__(
        self, buckets_us: tuple[float, ...] = DEFAULT_EXEMPLAR_BUCKETS_US
    ) -> None:
        if not buckets_us or buckets_us[-1] != float("inf"):
            raise ReproError("exemplar buckets must end with +inf")
        if list(buckets_us) != sorted(buckets_us):
            raise ReproError("exemplar buckets must be sorted ascending")
        self.buckets_us = tuple(float(b) for b in buckets_us)
        self._lock = threading.Lock()
        self._cells: dict[tuple[str, float], tuple[float, str, int]] = {}

    def observe(self, tenant: str, value_us: float, trace_id: str) -> None:
        """File one served latency under its bucket's exemplar cell."""
        le = next(b for b in self.buckets_us if value_us <= b)
        key = (tenant, le)
        with self._lock:
            _, _, count = self._cells.get(key, (0.0, "", 0))
            self._cells[key] = (float(value_us), trace_id, count + 1)

    def items(self) -> list[Exemplar]:
        """Every populated cell, sorted by tenant then bucket."""
        with self._lock:
            cells = sorted(self._cells.items())
        return [
            Exemplar(
                tenant=tenant,
                le_us=le,
                value_us=value,
                trace_id=trace_id,
                count=count,
            )
            for (tenant, le), (value, trace_id, count) in cells
        ]

    def clear(self) -> None:
        """Drop every exemplar cell."""
        with self._lock:
            self._cells.clear()

    def to_dict(self) -> list[dict[str, Any]]:
        """JSON-ready list of populated exemplar cells."""
        return [ex.to_dict() for ex in self.items()]

    def render(self) -> str:
        """ASCII table of exemplar cells, one per line."""
        rows = self.items()
        if not rows:
            return "(no exemplars recorded)"
        lines = ["Latency exemplars (tenant, bucket -> last trace)"]
        for ex in rows:
            le = "+inf" if ex.le_us == float("inf") else f"{ex.le_us:.0f}"
            lines.append(
                f"  {ex.tenant:<12} le {le:>8} us  x{ex.count:<6d} "
                f"last {ex.value_us:>10.0f} us  trace {ex.trace_id}"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Record rendering (dict form, shared by live and JSON-loaded records)
# ----------------------------------------------------------------------
def render_record(record: dict[str, Any]) -> str:
    """ASCII timeline of one request record in its ``to_dict`` form.

    Works identically for live :class:`~repro.obs.requests.RequestContext`
    dumps and records loaded back from a ``BENCH_serving.json`` /
    flight-dump file.
    """
    head = (
        f"trace {record.get('trace_id', '?')}  "
        f"tenant={record.get('tenant', '?')}  "
        f"status={record.get('status', '?')}  "
        f"docs={record.get('n_docs', '?')}"
    )
    batch_id = record.get("batch_id")
    if batch_id is not None:
        head += f"  batch={batch_id}"
    wall = record.get("wall_us")
    if wall is not None:
        head += f"  wall={wall:.0f}us"
    lines = [head]
    attrs = record.get("attrs") or {}
    if attrs:
        lines.append(
            "  attrs: " + " ".join(f"{k}={v}" for k, v in attrs.items())
        )
    stages = record.get("stages") or []
    for stage in stages:
        extra = " ".join(f"{k}={v}" for k, v in (stage.get("attrs") or {}).items())
        suffix = f"  [{extra}]" if extra else ""
        lines.append(
            f"  +{stage.get('start_us', 0.0):>10.0f} us  "
            f"{stage.get('name', '?'):<12} "
            f"{stage.get('duration_us', 0.0):>10.1f} us{suffix}"
        )
    return "\n".join(lines)
