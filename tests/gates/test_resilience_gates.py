"""Resilience gates: the degradation ladder absorbs faults and recovers.

1. Degradation — each probe model (the ``quickscorer`` forest and the
   dense and pruned students' ``compiled-network`` plans) is
   fault-injected on a deterministic schedule and chained onto a
   :class:`StubScorer`: every request is answered, the fallback counts
   match the schedule exactly, and with no fault the chain reproduces
   the primary's scores bit for bit.
2. Breaker recovery — under a :class:`ManualClock`, a failing tier trips
   its breaker open, reopens on a failed half-open probe, and closes
   again after the configured number of successful probes.
3. Admission bugfixes — a NaN-priced scorer is rejected by a finite
   budget (unless ``allow_unpriced=True``), zero-document requests
   return empty scores without touching the stats, and ``top_k``
   equals ``rank()[:k]`` under tied scores.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.runtime import (
    BatchEngine,
    BreakerState,
    BudgetExceededError,
    CircuitBreakerConfig,
    CircuitOpenError,
    FallbackChain,
    FaultPolicy,
    InjectedFaultError,
    ManualClock,
    ResilientScorer,
    RetryPolicy,
    StubScorer,
    make_scorer,
    with_faults,
)


@pytest.mark.parametrize("role", ["forest", "student", "pruned"])
def test_degradation(probe_models, probe_queries, role):
    model = probe_models[role]
    clock = ManualClock()
    primary = make_scorer(model)
    healthy = FallbackChain(
        [make_scorer(model), StubScorer()],
        retry=RetryPolicy(max_attempts=1),
        clock=clock,
        sleep=clock.sleep,
    )
    faulty = with_faults(
        make_scorer(model), FaultPolicy.every(2), sleep=clock.sleep
    )
    # A breaker that alternating faults cannot trip, so the fallback
    # counts are a pure function of the fault schedule.
    chain = FallbackChain(
        [faulty, StubScorer()],
        retry=RetryPolicy(max_attempts=1),
        breaker=CircuitBreakerConfig(
            window=8, min_samples=8, failure_rate_threshold=1.0
        ),
        clock=clock,
        sleep=clock.sleep,
    )
    for request in probe_queries:
        np.testing.assert_array_equal(
            healthy.score(request),
            primary.score(request),
            err_msg=f"{role}: healthy chain must be bit-identical",
        )
        scores = chain.score(request)  # never raises: the stub absorbs
        assert scores.shape == (len(request),)
    n = len(probe_queries)
    assert healthy.fallbacks == 0
    # FaultPolicy.every(2) faults calls 1, 3, 5, ... — half of them.
    expected = n // 2
    assert chain.fallbacks == expected
    assert chain.served[0] == n - expected and chain.served[1] == expected


def test_breaker_recovery():
    clock = ManualClock()
    faulty = with_faults(
        StubScorer(weights=[1.0]), FaultPolicy.first(3), sleep=clock.sleep
    )
    scorer = ResilientScorer(
        faulty,
        retry=RetryPolicy(max_attempts=1),
        breaker=CircuitBreakerConfig(
            window=4,
            min_samples=2,
            failure_rate_threshold=0.5,
            cooldown_seconds=1.0,
            half_open_probes=2,
        ),
        clock=clock,
        sleep=clock.sleep,
    )
    x = np.ones((2, 1))
    for _ in range(2):
        with pytest.raises(InjectedFaultError):
            scorer.score(x)
    assert scorer.breaker.state is BreakerState.OPEN
    with pytest.raises(CircuitOpenError):
        scorer.score(x)
    clock.advance(1.5)
    assert scorer.breaker.state is BreakerState.HALF_OPEN
    with pytest.raises(InjectedFaultError):
        scorer.score(x)  # third scheduled fault: the probe fails, reopen
    assert scorer.breaker.state is BreakerState.OPEN
    clock.advance(1.5)
    scorer.score(x)
    scorer.score(x)  # two healthy probes close the breaker
    assert scorer.breaker.state is BreakerState.CLOSED
    states = [state.value for state, _ in scorer.breaker.history]
    assert states == ["open", "half-open", "open", "half-open", "closed"]


class _UnpricedScorer(StubScorer):
    @property
    def predicted_us_per_doc(self) -> float:
        return float("nan")


def test_admission_bugfixes():
    with pytest.raises(BudgetExceededError):
        BatchEngine(_UnpricedScorer(), budget_us_per_doc=10.0)
    engine = BatchEngine(
        _UnpricedScorer(), budget_us_per_doc=10.0, allow_unpriced=True
    )
    empty = engine.score(np.empty((0, 4)))
    assert empty.shape == (0,) and engine.stats.requests == 0
    tie_engine = BatchEngine(StubScorer(weights=[1.0]))
    # scores: [1, 0, 1, 1, 0] — ties straddle every top-k boundary
    x = np.array([[1.0], [0.0], [1.0], [1.0], [0.0]])
    for k in range(1, 6):
        np.testing.assert_array_equal(
            tie_engine.top_k(x, k), tie_engine.rank(x)[:k]
        )
