"""The degradation ladder: serving through faults without failing.

The paper's deployment story prices an architecture against a latency
budget before it serves; this example shows what keeps that promise when
the chosen model misbehaves *at runtime*.  A QuickScorer forest is the
primary backend, a first-layer-sparse student the cheap stand-in and a
linear stub the last resort.  Faults are injected on a deterministic
schedule (every 3rd request the forest raises), and the fallback chain
absorbs them: every query is answered, the breaker book-keeps the
failures, and the resilience report shows exactly which tier served
what.

A second scenario trips the circuit breaker with a hard outage and then
heals it: under a manual clock the breaker walks closed -> open ->
half-open -> closed deterministically, the recovery path a production
service needs to be *testable*, not just plausible.

Run:  python examples/resilient_service.py
"""

from __future__ import annotations

import numpy as np

from repro import ResilienceConfig, ScoringService, ServiceConfig, obs
from repro.obs.probe import build_probe_models
from repro.runtime import (
    BreakerState,
    CircuitBreakerConfig,
    CircuitOpenError,
    FaultPolicy,
    InjectedFaultError,
    ManualClock,
    ResilientScorer,
    RetryPolicy,
    StubScorer,
    make_scorer,
    with_faults,
)

SEED = 7


def degradation_ladder() -> None:
    print("=" * 72)
    print("1. Degradation ladder: faulty forest -> pruned student -> stub")
    print("=" * 72)
    models = build_probe_models(n_queries=18, docs_per_query=12, seed=SEED)
    dataset = models["dataset"]

    primary = with_faults(
        make_scorer(models["forest"]),
        FaultPolicy.every(3),  # every 3rd request the forest raises
    )
    fallback = make_scorer(models["pruned"])
    service = ScoringService(
        primary,
        ServiceConfig(
            resilience=ResilienceConfig(
                fallback_models=(fallback, StubScorer()),
                retry=RetryPolicy(max_attempts=1),  # fail fast, degrade
            )
        ),
    )

    answered = 0
    for start, stop in zip(dataset.query_ptr[:-1], dataset.query_ptr[1:]):
        scores = service.score(dataset.features[start:stop])
        assert np.all(np.isfinite(scores))
        answered += 1

    print(f"\n{service.chain.describe()}")
    print(f"queries answered : {answered} / {answered} (none failed)")
    print(f"fallback ratio   : {service.fallback_ratio:.1%}")
    for tier in service.resilience_summary():
        print(
            f"  {tier['backend']:<16} served={tier['served']:<4} "
            f"failures={tier['failures']:<4} breaker={tier['breaker']}"
        )


def breaker_lifecycle() -> None:
    print()
    print("=" * 72)
    print("2. Circuit breaker: trip, cool down, probe, recover")
    print("=" * 72)
    clock = ManualClock()
    outage = with_faults(
        StubScorer(weights=[1.0, -1.0]),
        FaultPolicy.first(3),  # hard outage: the first 3 calls fail
        sleep=clock.sleep,
    )
    scorer = ResilientScorer(
        outage,
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
    x = np.array([[0.4, 0.1], [0.2, 0.9]])

    def attempt(label: str) -> None:
        try:
            scorer.score(x)
            outcome = "served"
        except (InjectedFaultError, CircuitOpenError) as exc:
            outcome = type(exc).__name__
        print(
            f"  t={clock.now:4.1f}s {label:<26} -> {outcome:<20} "
            f"breaker={scorer.breaker.state.value}"
        )

    attempt("outage call 1")
    attempt("outage call 2 (trips)")
    attempt("while open (rejected)")
    clock.advance(1.2)
    print(f"  t={clock.now:4.1f}s cooldown elapsed           -> "
          f"breaker={scorer.breaker.state.value}")
    attempt("half-open probe (fails)")
    clock.advance(1.2)
    attempt("half-open probe (succeeds)")
    attempt("second probe (closes)")
    assert scorer.breaker.state is BreakerState.CLOSED
    print("  transition history:",
          " -> ".join(state.value for state, _ in scorer.breaker.history))


def main() -> None:
    degradation_ladder()
    breaker_lifecycle()
    print()
    print("=" * 72)
    print("Resilience report (obs.resilience_report)")
    print("=" * 72)
    print(obs.resilience_report().render())


if __name__ == "__main__":
    main()
