"""Tests for the resilience layer: retries, breaker, deadlines, chains.

The two ISSUE-mandated hypothesis properties live here:

* a fallback chain returns the primary's scores *bit-identically* when
  no fault fires, whatever the traffic looks like;
* the circuit breaker state machine is deterministic under the injected
  clock — the same outcome sequence always yields the same transition
  history.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import (
    AllTiersFailedError,
    BaseScorer,
    BreakerState,
    CircuitBreaker,
    CircuitBreakerConfig,
    CircuitOpenError,
    DeadlineExceededError,
    FallbackChain,
    FaultPolicy,
    InjectedFaultError,
    ManualClock,
    ParallelConfig,
    ResilientScorer,
    RetryPolicy,
    ScorerFaultError,
    StubScorer,
    ResilienceConfig,
    make_fallback_chain,
    make_scorer,
    with_faults,
)
from repro.runtime.base import is_scorer
from repro.serving import ScoringService, ServiceConfig


def manual_pair():
    clock = ManualClock()
    return clock, dict(clock=clock, sleep=clock.sleep)


class TestRetryPolicy:
    def test_defaults_valid(self):
        policy = RetryPolicy()
        assert policy.max_attempts == 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(max_attempts=0),
            dict(backoff_seconds=-1.0),
            dict(backoff_multiplier=0.5),
            dict(backoff_seconds=0.5, max_backoff_seconds=0.1),
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_backoff_schedule_is_exponential_and_capped(self):
        policy = RetryPolicy(
            backoff_seconds=0.1,
            backoff_multiplier=2.0,
            max_backoff_seconds=0.35,
        )
        assert policy.backoff_before(1) == pytest.approx(0.1)
        assert policy.backoff_before(2) == pytest.approx(0.2)
        assert policy.backoff_before(3) == pytest.approx(0.35)  # capped
        assert policy.backoff_before(9) == pytest.approx(0.35)


class TestCircuitBreakerConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(window=0),
            dict(window=4, min_samples=5),
            dict(min_samples=0),
            dict(failure_rate_threshold=0.0),
            dict(failure_rate_threshold=1.5),
            dict(cooldown_seconds=-1.0),
            dict(half_open_probes=0),
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            CircuitBreakerConfig(**kwargs)


class TestCircuitBreaker:
    def breaker(self, clock, **kwargs):
        config = CircuitBreakerConfig(
            window=4,
            min_samples=2,
            failure_rate_threshold=0.5,
            cooldown_seconds=1.0,
            half_open_probes=2,
            **kwargs,
        )
        return CircuitBreaker(config, clock=clock, backend="test")

    def test_starts_closed(self):
        breaker = self.breaker(ManualClock())
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow()

    def test_trips_on_failure_rate(self):
        breaker = self.breaker(ManualClock())
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED  # below min_samples
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow()
        assert "failure rate" in breaker.last_trip_reason

    def test_successes_dilute_the_window(self):
        breaker = self.breaker(ManualClock())
        for _ in range(3):
            breaker.record_success()
        breaker.record_failure()  # 1 failure in a window of 4: rate 0.25
        assert breaker.state is BreakerState.CLOSED

    def test_cooldown_promotes_to_half_open(self):
        clock = ManualClock()
        breaker = self.breaker(clock)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        clock.advance(0.5)
        assert breaker.state is BreakerState.OPEN  # cooldown not elapsed
        clock.advance(0.6)
        assert breaker.state is BreakerState.HALF_OPEN
        assert breaker.allow()  # probe traffic admitted

    def test_probe_failure_reopens_and_restarts_cooldown(self):
        clock = ManualClock()
        breaker = self.breaker(clock)
        breaker.record_failure()
        breaker.record_failure()
        clock.advance(1.1)
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        clock.advance(0.9)
        assert breaker.state is BreakerState.OPEN  # cooldown restarted
        clock.advance(0.2)
        assert breaker.state is BreakerState.HALF_OPEN

    def test_enough_probes_close(self):
        clock = ManualClock()
        breaker = self.breaker(clock)
        breaker.record_failure()
        breaker.record_failure()
        clock.advance(1.1)
        breaker.record_success()
        assert breaker.state is BreakerState.HALF_OPEN  # 1 of 2 probes
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED
        states = [state.value for state, _ in breaker.history]
        assert states == ["open", "half-open", "closed"]

    def test_drift_trip(self):
        drift = {"value": float("nan")}
        config = CircuitBreakerConfig(drift_pct_limit=25.0)
        breaker = CircuitBreaker(
            config,
            clock=ManualClock(),
            drift_fn=lambda: drift["value"],
            backend="test",
        )
        breaker.record_success()  # NaN drift: no trip
        assert breaker.state is BreakerState.CLOSED
        drift["value"] = 80.0
        breaker.record_success()
        assert breaker.state is BreakerState.OPEN
        assert "drift" in breaker.last_trip_reason

    @given(
        outcomes=st.lists(st.booleans(), min_size=1, max_size=40),
        gaps=st.lists(
            st.sampled_from([0.0, 0.4, 1.2]), min_size=1, max_size=40
        ),
    )
    @settings(max_examples=25, deadline=None)
    def test_state_machine_deterministic_under_injected_clock(
        self, outcomes, gaps
    ):
        """ISSUE property: same outcome/clock sequence, same history."""

        def run():
            clock = ManualClock()
            breaker = self.breaker(clock)
            for outcome, gap in zip(outcomes, gaps * 40):
                clock.advance(gap)
                if breaker.allow():
                    if outcome:
                        breaker.record_success()
                    else:
                        breaker.record_failure()
            return [
                (state.value, reason) for state, reason in breaker.history
            ], breaker.state

        first_history, first_state = run()
        second_history, second_state = run()
        assert first_history == second_history
        assert first_state is second_state
        # Transition sequence is always legal: closed<->open via trip,
        # open -> half-open via cooldown, half-open -> closed/open.
        legal_after = {
            "open": {"half-open"},
            "half-open": {"open", "closed"},
            "closed": {"open"},
        }
        for (prev, _), (cur, _) in zip(first_history, first_history[1:]):
            assert cur in legal_after[prev], first_history


class TestResilientScorer:
    def test_is_a_scorer_and_transparent(self):
        scorer = ResilientScorer(StubScorer(weights=[2.0, 1.0]))
        assert is_scorer(scorer)
        assert scorer.backend == "stub"
        assert scorer.input_dim == 2
        assert "resilient(" in scorer.describe()

    def test_rejects_non_scorer(self):
        with pytest.raises(TypeError):
            ResilientScorer(object())

    def test_rejects_bad_deadline(self):
        with pytest.raises(ValueError):
            ResilientScorer(StubScorer(), deadline_us=0)

    def test_success_is_bit_identical(self):
        inner = StubScorer(weights=[1.0, -1.0])
        scorer = ResilientScorer(StubScorer(weights=[1.0, -1.0]))
        x = np.array([[0.1, 0.9], [3.0, 0.5], [0.0, 0.0]])
        np.testing.assert_array_equal(scorer.score(x), inner.score(x))

    def test_retry_recovers_transient_fault(self):
        clock, pair = manual_pair()
        faulty = with_faults(
            StubScorer(weights=[1.0]), FaultPolicy.first(1), sleep=clock.sleep
        )
        scorer = ResilientScorer(
            scorer=faulty,
            retry=RetryPolicy(max_attempts=2, backoff_seconds=0.01),
            **pair,
        )
        scores = scorer.score(np.ones((2, 1)))
        np.testing.assert_array_equal(scores, [1.0, 1.0])
        assert scorer.retries == 1
        assert scorer.failures == 1
        assert clock.now == pytest.approx(0.01)  # one backoff pause

    def test_retries_exhausted_reraises_last_error(self):
        clock, pair = manual_pair()
        faulty = with_faults(
            StubScorer(weights=[1.0]), FaultPolicy.always(), sleep=clock.sleep
        )
        scorer = ResilientScorer(
            faulty, retry=RetryPolicy(max_attempts=3), **pair
        )
        with pytest.raises(InjectedFaultError):
            scorer.score(np.ones((1, 1)))
        assert scorer.retries == 2  # attempts 2 and 3

    def test_nan_scores_are_a_failure(self):
        clock, pair = manual_pair()
        faulty = with_faults(
            StubScorer(weights=[1.0]),
            FaultPolicy.always("nan"),
            sleep=clock.sleep,
        )
        scorer = ResilientScorer(
            faulty, retry=RetryPolicy(max_attempts=1), **pair
        )
        with pytest.raises(ScorerFaultError, match="non-finite"):
            scorer.score(np.ones((2, 1)))
        assert scorer.breaker.failure_rate() > 0

    def test_post_hoc_deadline_breach_degrades(self):
        clock, pair = manual_pair()
        stalled = with_faults(
            StubScorer(weights=[1.0]),
            FaultPolicy.always("stall", stall_seconds=0.5),
            sleep=clock.sleep,
        )
        scorer = ResilientScorer(
            stalled,
            retry=RetryPolicy(max_attempts=1),
            deadline_us=100_000.0,  # 100 ms < the 500 ms stall
            **pair,
        )
        with pytest.raises(DeadlineExceededError, match="deadline"):
            scorer.score(np.ones((1, 1)))
        assert scorer.failures == 1

    def test_no_deadline_budget_left_to_retry(self):
        clock, pair = manual_pair()
        faulty = with_faults(
            StubScorer(weights=[1.0]), FaultPolicy.always(), sleep=clock.sleep
        )
        scorer = ResilientScorer(
            faulty,
            retry=RetryPolicy(max_attempts=2, backoff_seconds=0.2),
            deadline_us=100_000.0,  # the 0.2 s backoff overruns 100 ms
            **pair,
        )
        with pytest.raises(DeadlineExceededError, match="budget"):
            scorer.score(np.ones((1, 1)))

    def test_open_breaker_short_circuits(self):
        clock, pair = manual_pair()
        faulty = with_faults(
            StubScorer(weights=[1.0]), FaultPolicy.always(), sleep=clock.sleep
        )
        scorer = ResilientScorer(
            faulty,
            retry=RetryPolicy(max_attempts=1),
            breaker=CircuitBreakerConfig(window=4, min_samples=2),
            **pair,
        )
        for _ in range(2):
            with pytest.raises(InjectedFaultError):
                scorer.score(np.ones((1, 1)))
        calls_before = faulty.calls
        with pytest.raises(CircuitOpenError):
            scorer.score(np.ones((1, 1)))
        assert faulty.calls == calls_before  # inner never invoked

    def test_stats_record_successes_only(self):
        clock, pair = manual_pair()
        faulty = with_faults(
            StubScorer(weights=[1.0]), FaultPolicy.every(2), sleep=clock.sleep
        )
        scorer = ResilientScorer(
            faulty,
            retry=RetryPolicy(max_attempts=1),
            breaker=CircuitBreakerConfig(
                window=8, min_samples=8, failure_rate_threshold=1.0
            ),
            **pair,
        )
        x = np.ones((3, 1))
        scorer.score(x)
        with pytest.raises(InjectedFaultError):
            scorer.score(x)
        scorer.score(x)
        assert scorer.stats.requests == 2
        assert scorer.stats.documents == 6


class TestFallbackChain:
    def tiers(self, clock, policy=None):
        primary = StubScorer(weights=[3.0, 1.0])
        if policy is not None:
            primary = with_faults(primary, policy, sleep=clock.sleep)
        return [primary, StubScorer(weights=[1.0, 1.0]), StubScorer()]

    def test_requires_tiers(self):
        with pytest.raises(ValueError):
            FallbackChain([])

    def test_rejects_non_scorer_tier(self):
        with pytest.raises(TypeError):
            FallbackChain([StubScorer(), 42])

    def test_chain_is_a_scorer_priced_by_its_primary(self):
        clock, pair = manual_pair()
        chain = FallbackChain(self.tiers(clock), **pair)
        assert is_scorer(chain)
        assert chain.backend == "stub"
        assert chain.input_dim == 2
        assert chain.predicted_us_per_doc == pytest.approx(0.01)
        assert "fallback chain" in chain.describe()

    def test_primary_serves_when_healthy(self):
        clock, pair = manual_pair()
        chain = FallbackChain(self.tiers(clock), **pair)
        x = np.array([[1.0, 2.0], [0.5, 0.5]])
        np.testing.assert_array_equal(
            chain.score(x), StubScorer(weights=[3.0, 1.0]).score(x)
        )
        assert chain.served == [1, 0, 0]
        assert chain.fallbacks == 0
        assert chain.fallback_ratio == 0.0

    def test_fault_degrades_to_next_tier(self):
        clock, pair = manual_pair()
        chain = FallbackChain(
            self.tiers(clock, FaultPolicy.always()),
            retry=RetryPolicy(max_attempts=1),
            **pair,
        )
        x = np.array([[1.0, 2.0]])
        np.testing.assert_array_equal(
            chain.score(x), StubScorer(weights=[1.0, 1.0]).score(x)
        )
        assert chain.served == [0, 1, 0]
        assert chain.fallbacks == 1
        assert chain.fallback_ratio == 1.0

    def test_all_tiers_failing_raises_with_summary(self):
        clock, pair = manual_pair()
        tiers = [
            with_faults(StubScorer(weights=[1.0]), FaultPolicy.always(),
                        sleep=clock.sleep),
            with_faults(StubScorer(weights=[2.0]),
                        FaultPolicy.always("nan"), sleep=clock.sleep),
        ]
        chain = FallbackChain(
            tiers, retry=RetryPolicy(max_attempts=1), **pair
        )
        with pytest.raises(AllTiersFailedError) as err:
            chain.score(np.ones((1, 1)))
        assert "InjectedFaultError" in str(err.value)
        assert "ScorerFaultError" in str(err.value)

    def test_each_tier_gets_its_own_breaker(self):
        clock, pair = manual_pair()
        chain = FallbackChain(
            self.tiers(clock, FaultPolicy.always()),
            retry=RetryPolicy(max_attempts=1),
            breaker=CircuitBreakerConfig(window=4, min_samples=2),
            **pair,
        )
        x = np.ones((1, 2))
        for _ in range(4):
            chain.score(x)  # primary fails each time, tier 2 serves
        assert chain.tiers[0].breaker.state is BreakerState.OPEN
        assert chain.tiers[1].breaker.state is BreakerState.CLOSED

    def test_tier_summary_shape(self):
        clock, pair = manual_pair()
        chain = FallbackChain(self.tiers(clock), **pair)
        chain.score(np.ones((2, 2)))
        summary = chain.tier_summary()
        assert [row["backend"] for row in summary] == ["stub"] * 3
        assert summary[0]["served"] == 1
        assert {"retries", "failures", "breaker"} <= set(summary[0])

    @given(
        batches=st.lists(
            st.lists(
                st.tuples(
                    st.floats(
                        min_value=-1e6,
                        max_value=1e6,
                        allow_nan=False,
                        allow_infinity=False,
                    ),
                    st.floats(
                        min_value=-1e6,
                        max_value=1e6,
                        allow_nan=False,
                        allow_infinity=False,
                    ),
                ),
                min_size=1,
                max_size=8,
            ),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_no_fault_means_bit_identical_primary_scores(self, batches):
        """ISSUE property: a healthy chain never changes a single bit."""
        clock = ManualClock()
        primary = StubScorer(weights=[0.3, -1.7])
        chain = FallbackChain(
            [StubScorer(weights=[0.3, -1.7]), StubScorer()],
            clock=clock,
            sleep=clock.sleep,
        )
        for batch in batches:
            x = np.asarray(batch, dtype=np.float64)
            np.testing.assert_array_equal(chain.score(x), primary.score(x))
        assert chain.fallbacks == 0
        assert chain.served[0] == len(batches)


class TestMakeFallbackChain:
    def test_builds_from_models_and_scorers(self, small_forest):
        clock, pair = manual_pair()
        chain = make_fallback_chain([small_forest, StubScorer()], **pair)
        assert chain.backend == "quickscorer"
        assert [t.backend for t in chain.tiers] == ["quickscorer", "stub"]

    def test_backends_must_match_models(self, small_forest):
        with pytest.raises(ValueError, match="one-to-one"):
            make_fallback_chain([small_forest], backends=["quickscorer", "x"])

    def test_explicit_backend_pins(self, small_student):
        chain = make_fallback_chain(
            [small_student], backends=["compiled-network"]
        )
        assert chain.backend == "compiled-network"


class TestScoringServiceIntegration:
    def test_service_without_fallbacks_unchanged(self, small_forest):
        service = ScoringService(small_forest)
        assert service.chain is None
        assert service.resilience_summary() is None
        assert service.fallback_ratio == 0.0

    def test_service_degrades_and_reports(self, small_forest):
        clock = ManualClock()
        primary = with_faults(
            make_scorer(small_forest, backend="quickscorer"),
            FaultPolicy.every(2),
            sleep=clock.sleep,
        )
        service = ScoringService(
            primary,
            ServiceConfig(
                resilience=ResilienceConfig(
                    fallback_models=(StubScorer(),),
                    retry=RetryPolicy(max_attempts=1),
                    breaker=CircuitBreakerConfig(
                        window=8, min_samples=8, failure_rate_threshold=1.0
                    ),
                )
            ),
            clock=clock,
            sleep=clock.sleep,
        )
        x = np.random.default_rng(0).normal(
            size=(3, small_forest.n_features)
        )
        for _ in range(4):
            scores = service.score(x)
            assert scores.shape == (3,)
        assert service.chain.served == [2, 2]
        assert service.fallback_ratio == pytest.approx(0.5)
        summary = service.resilience_summary()
        assert summary[0]["backend"] == "quickscorer"
        assert summary[1]["backend"] == "stub"

    def test_healthy_service_matches_plain_service(self, small_forest):
        plain = ScoringService(small_forest)
        resilient = ScoringService(
            small_forest,
            ServiceConfig(
                resilience=ResilienceConfig(fallback_models=(StubScorer(),))
            ),
        )
        x = np.random.default_rng(1).normal(
            size=(5, small_forest.n_features)
        )
        np.testing.assert_array_equal(resilient.score(x), plain.score(x))
        assert resilient.fallback_ratio == 0.0


class _Hooked(BaseScorer):
    """Wraps a scorer and runs ``hook(features)`` before every call."""

    backend = "hooked"

    def __init__(self, inner, hook) -> None:
        super().__init__(
            price_fn=lambda: inner.predicted_us_per_doc,
            input_dim=inner.input_dim,
        )
        self.inner = inner
        self.hook = hook
        self.calls: list[int] = []

    def score(self, features) -> np.ndarray:
        self.calls.append(len(features))
        self.hook(features)
        return self.inner.score(features)

    def describe(self) -> str:
        return "hooked"


class TestOneTierPerRequest:
    """Under ``parallel`` the sharder splits a request below the chain,
    so the chain's tier choice and deadline cover the whole request."""

    ROWS = 600

    def request(self, small_forest):
        x = np.random.default_rng(18).normal(
            size=(self.ROWS, small_forest.n_features)
        )
        x[:, 0] = np.arange(self.ROWS)  # row index, for the hooks
        return x

    def service(
        self, primary, *, deadline_us=None, clock=None, fallback=None
    ):
        clock = clock or ManualClock()
        return ScoringService(
            primary,
            ServiceConfig(
                resilience=ResilienceConfig(
                    fallback_models=(fallback or StubScorer(),),
                    retry=RetryPolicy(max_attempts=1),
                    deadline_us=deadline_us,
                ),
                parallel=ParallelConfig(workers=1, cache_entries=4096),
            ),
            clock=clock,
            sleep=clock.sleep,
        )

    def test_a_failing_slice_fails_over_the_whole_request(
        self, small_forest
    ):
        def fail_past_256(features):
            if np.asarray(features)[:, 0].max() >= 256:
                raise InjectedFaultError("row past 256")

        primary = _Hooked(
            make_scorer(small_forest, backend="quickscorer"), fail_past_256
        )
        service = self.service(primary)
        x = self.request(small_forest)
        try:
            scores = service.score(x)
        finally:
            service.close()
        assert primary.calls == [256, 256]  # the second slice raised
        assert service.chain.served == [0, 1]
        np.testing.assert_array_equal(scores, StubScorer().score(x))

    def test_deadline_covers_the_whole_request(self, small_forest):
        """Each 256-row call takes 256 us on the manual clock: one call
        meets a 400 us deadline, the whole 600-row request does not."""
        clock = ManualClock()
        primary = _Hooked(
            make_scorer(small_forest, backend="quickscorer"),
            lambda features: clock.advance(len(features) * 1e-6),
        )
        service = self.service(primary, deadline_us=400.0, clock=clock)
        x = self.request(small_forest)
        try:
            scores = service.score(x)
        finally:
            service.close()
        assert primary.calls == [256, 256, 88]
        assert service.chain.served == [0, 1]
        assert service.chain.primary.failures == 1
        np.testing.assert_array_equal(scores, StubScorer().score(x))

    def test_deadline_covers_the_whole_coalesced_batch(self, small_forest):
        """Four coalesced 150-row requests share one 600 us kernel, so a
        400 us deadline sends all four to the fallback; 700 us does not."""
        x = self.request(small_forest)
        requests = np.split(x, 4)
        for deadline_us, served in ((400.0, [0, 1]), (700.0, [1, 0])):
            clock = ManualClock()
            primary = _Hooked(
                make_scorer(small_forest, backend="quickscorer"),
                lambda features, clock=clock: clock.advance(
                    len(features) * 1e-6
                ),
            )
            service = self.service(
                primary, deadline_us=deadline_us, clock=clock
            )
            try:
                out = service.engine.score_coalesced(requests)
            finally:
                service.close()
            assert primary.calls == [256, 256, 88]
            assert service.chain.served == served
            tier = primary.inner if served[0] else StubScorer()
            for request, scores in zip(requests, out):
                np.testing.assert_array_equal(scores, tier.score(request))

    def test_fallback_tiers_are_capped_at_max_batch_size(self, small_forest):
        def always_fail(features):
            raise InjectedFaultError("primary down")

        primary = _Hooked(
            make_scorer(small_forest, backend="quickscorer"), always_fail
        )
        stub = StubScorer()
        fallback = _Hooked(stub, lambda features: None)
        service = self.service(primary, fallback=fallback)
        x = self.request(small_forest)
        try:
            scores = service.score(x)
        finally:
            service.close()
        assert service.chain.served == [0, 1]
        assert fallback.calls == [256, 256, 88]
        np.testing.assert_array_equal(scores, stub.score(x))

    def test_one_version_serves_the_request_across_a_swap(
        self, small_forest
    ):
        plain = make_scorer(small_forest, backend="quickscorer")
        candidate = StubScorer(weights=np.ones(small_forest.n_features))
        swapped = []

        def swap_on_first_call(features):
            if not swapped:
                swapped.append(service.swap(candidate, force=True))

        service = self.service(_Hooked(plain, swap_on_first_call))
        x = self.request(small_forest)
        try:
            first = service.score(x)
            second = service.score(x[:10])
        finally:
            service.close()
        assert swapped and service.registry.active.version_id != "v1"
        np.testing.assert_array_equal(first, plain.score(x))
        np.testing.assert_array_equal(second, candidate.score(x[:10]))
        assert service.versioned.served_by_version["v1"] == 1


class TestObsIntegration:
    def test_resilience_report_reflects_traffic(self, obs_clean):
        from repro import obs

        clock, pair = manual_pair()
        chain = FallbackChain(
            [
                with_faults(
                    StubScorer(weights=[1.0]),
                    FaultPolicy.every(2),
                    sleep=clock.sleep,
                ),
                StubScorer(),
            ],
            retry=RetryPolicy(max_attempts=1),
            breaker=CircuitBreakerConfig(
                window=8, min_samples=8, failure_rate_threshold=1.0
            ),
            **pair,
        )
        x = np.ones((2, 1))
        for _ in range(4):
            chain.score(x)
        report = obs.resilience_report()
        row = report.tables["chains"].row("stub")
        assert row is not None
        assert row["requests"] == 4
        assert row["fallbacks"] == 2
        assert row["fallback_ratio"] == pytest.approx(0.5)
        rendered = report.render()
        assert "stub" in rendered


class TestCoalescedCascadeBlastRadius:
    """A coalesced batch reaches a cascade in one engine call, so one
    tier serves the whole batch: a query whose stage emits NaN fails
    every member over, while a request alone fails over alone."""

    MARKER = 1e3

    def service(self):
        from repro.design import CascadeStage, EarlyExitCascade

        def poisoned(x):
            return np.where(x[:, 0] == self.MARKER, np.nan, x[:, 1])

        cascade = EarlyExitCascade(
            [
                CascadeStage("poisoned", poisoned, 1.0, keep_fraction=0.5),
                CascadeStage("last", lambda x: x[:, 2], 1.0),
            ]
        )
        service = ScoringService(
            cascade,
            ServiceConfig(
                resilience=ResilienceConfig(
                    fallback_models=(StubScorer(),),
                    retry=RetryPolicy(max_attempts=1),
                ),
                parallel=ParallelConfig(workers=1),
                max_batch_size=None,
            ),
        )
        return cascade, service

    def requests(self):
        rng = np.random.default_rng(19)
        requests = [rng.normal(size=(8, 3)) for _ in range(4)]
        requests[2][3, 0] = self.MARKER
        return requests

    def test_one_poisoned_query_fails_the_whole_batch_over(self):
        _, service = self.service()
        requests = self.requests()
        try:
            out = service.engine.score_coalesced(requests)
        finally:
            service.close()
        assert service.chain.served == [0, 1]
        assert service.chain.primary.failures == 1
        for request, scores in zip(requests, out):
            np.testing.assert_array_equal(scores, StubScorer().score(request))

    def test_a_lone_poisoned_request_is_isolated(self):
        cascade, service = self.service()
        requests = self.requests()
        try:
            out = [service.engine.score_coalesced([x])[0] for x in requests]
        finally:
            service.close()
        assert service.chain.served == [3, 1]
        for index, (request, scores) in enumerate(zip(requests, out)):
            want = (
                StubScorer().score(request)
                if index == 2
                else cascade.score_query(request)
            )
            np.testing.assert_array_equal(scores, want)
