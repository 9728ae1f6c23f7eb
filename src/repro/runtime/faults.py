"""Deterministic fault injection for the scoring runtime.

The resilience layer (:mod:`repro.runtime.resilience`) must be testable
without waiting for real outages, so failure is a first-class,
*scheduled* input here: a :class:`FaultPolicy` decides — purely from the
call index — whether a wrapped scorer raises, stalls, or returns NaN
scores, and :class:`FaultyScorer` applies that decision to any
:class:`~repro.runtime.base.Scorer` the registry can build.  Schedules
are plain functions of a call counter, so every run replays the same
fault sequence bit for bit.

Stalls go through an injectable ``sleep``; pairing it with
:class:`ManualClock` (reads return a stored instant, sleeps advance it)
makes deadline breaches and breaker cooldowns deterministic unit tests
instead of wall-clock races.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ReproError

__all__ = [
    "FAULT_KINDS",
    "FaultPolicy",
    "FaultSpec",
    "FaultyScorer",
    "InjectedFaultError",
    "ManualClock",
    "with_faults",
]

#: Supported fault kinds: raise, stall then serve, serve NaN scores.
FAULT_KINDS = ("error", "stall", "nan")


class InjectedFaultError(ReproError):
    """A scheduled fault raised by a :class:`FaultyScorer`."""


class ManualClock:
    """A deterministic clock: reads return ``now``, sleeps advance it.

    Drop-in for the ``clock``/``sleep`` pair the resilience layer takes
    (``clock=manual_clock, sleep=manual_clock.sleep``), so cooldowns,
    backoffs and deadline breaches are exact, replayable arithmetic.
    """

    def __init__(self, start: float = 0.0) -> None:
        self.now = float(start)

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"cannot sleep a negative duration: {seconds}")
        self.now += float(seconds)

    def advance(self, seconds: float) -> None:
        """Alias of :meth:`sleep`, for test readability."""
        self.sleep(seconds)


@dataclass(frozen=True)
class FaultSpec:
    """What goes wrong on a matching call."""

    kind: str = "error"
    stall_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"fault kind must be one of {', '.join(FAULT_KINDS)}, "
                f"got {self.kind!r}"
            )
        if self.kind == "stall" and self.stall_seconds <= 0:
            raise ValueError(
                f"a stall fault needs stall_seconds > 0, "
                f"got {self.stall_seconds}"
            )


class FaultPolicy:
    """Deterministic call-index → fault schedule.

    The schedule is any ``(call_index) -> FaultSpec | None`` function;
    the classmethods cover the common shapes (never, always, the first
    ``n`` calls, every ``n``-th call, an explicit index set).
    """

    def __init__(self, schedule: Callable[[int], FaultSpec | None]) -> None:
        self._schedule = schedule

    def fault_for(self, call_index: int) -> FaultSpec | None:
        """The fault scheduled for ``call_index`` (``None`` = healthy)."""
        return self._schedule(call_index)

    # -- common schedules ----------------------------------------------
    @classmethod
    def never(cls) -> "FaultPolicy":
        """A policy that injects nothing (the healthy baseline)."""
        return cls(lambda index: None)

    @classmethod
    def always(
        cls, kind: str = "error", *, stall_seconds: float = 0.0
    ) -> "FaultPolicy":
        """Every call faults — a hard outage."""
        spec = FaultSpec(kind, stall_seconds)
        return cls(lambda index: spec)

    @classmethod
    def first(
        cls, n: int, kind: str = "error", *, stall_seconds: float = 0.0
    ) -> "FaultPolicy":
        """The first ``n`` calls fault, then the scorer is healthy."""
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        spec = FaultSpec(kind, stall_seconds)
        return cls(lambda index: spec if index < n else None)

    @classmethod
    def every(
        cls, n: int, kind: str = "error", *, stall_seconds: float = 0.0
    ) -> "FaultPolicy":
        """Every ``n``-th call faults (calls ``n-1``, ``2n-1``, ...)."""
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        spec = FaultSpec(kind, stall_seconds)
        return cls(lambda index: spec if index % n == n - 1 else None)

    @classmethod
    def at_calls(
        cls,
        indices: Iterable[int],
        kind: str = "error",
        *,
        stall_seconds: float = 0.0,
    ) -> "FaultPolicy":
        """Exactly the listed call indices fault."""
        wanted = frozenset(int(i) for i in indices)
        spec = FaultSpec(kind, stall_seconds)
        return cls(lambda index: spec if index in wanted else None)


class FaultyScorer:
    """Any scorer, with scheduled faults layered on top.

    Price, backend name, batchability and input dimension are the
    wrapped scorer's own, so a faulty scorer drops into engines,
    services and fallback chains unchanged — only its failure behaviour
    differs:

    * ``error`` — raise :class:`InjectedFaultError` instead of scoring;
    * ``stall`` — sleep (via the injectable ``sleep``) then serve, so
      deadline enforcement downstream sees a slow call;
    * ``nan``  — return shape-correct all-NaN scores, the silent-poison
      mode the resilience layer's finite-score check must catch.

    The call counter advances on every :meth:`score` invocation, faulted
    or not, so the schedule is a pure function of traffic order.
    """

    backend = "faulty"
    batchable = True
    coalescable = False

    def __init__(
        self,
        scorer,
        policy: FaultPolicy,
        *,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        from repro.runtime.base import is_scorer

        if not is_scorer(scorer):
            raise TypeError(
                f"expected a Scorer, got {type(scorer).__name__} "
                "(build one with make_scorer)"
            )
        self.inner = scorer
        self.policy = policy
        self.backend = scorer.backend
        self.batchable = getattr(scorer, "batchable", True)
        self.coalescable = getattr(scorer, "coalescable", False)
        self._sleep = sleep
        self.calls = 0
        self.faults_injected = 0

    @property
    def input_dim(self) -> int | None:
        return self.inner.input_dim

    @property
    def predicted_us_per_doc(self) -> float:
        return self.inner.predicted_us_per_doc

    def score(self, features) -> np.ndarray:
        index = self.calls
        self.calls += 1
        spec = self.policy.fault_for(index)
        if spec is None:
            return self.inner.score(features)
        self.faults_injected += 1
        if spec.kind == "error":
            raise InjectedFaultError(
                f"scheduled fault on call {index} of backend {self.backend!r}"
            )
        if spec.kind == "stall":
            self._sleep(spec.stall_seconds)
            return self.inner.score(features)
        # "nan": shape-correct poison the finite-score check must catch.
        n_docs = np.asarray(features).shape[0]
        return np.full(n_docs, np.nan, dtype=np.float64)

    def describe(self) -> str:
        return f"faulty({self.inner.describe()})"

    def __repr__(self) -> str:
        return (
            f"<FaultyScorer [{self.backend}] calls={self.calls} "
            f"faults={self.faults_injected}>"
        )


def with_faults(
    scorer,
    policy: FaultPolicy,
    *,
    sleep: Callable[[float], None] = time.sleep,
) -> FaultyScorer:
    """Wrap ``scorer`` so it fails on ``policy``'s schedule."""
    return FaultyScorer(scorer, policy, sleep=sleep)
