"""Predicted-vs-measured drift, bounded stats, and overhead guards.

ISSUE satellites: ``ServiceStats`` must stay bounded and validated, the
drift series must cover the deployment backends, scores must be
bit-identical with tracing on or off, and the disabled tracer must cost
(next to) nothing on the ``BatchEngine.score`` hot path.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.exceptions import ReproError
from repro.runtime import BatchEngine, ServiceStats, make_scorer
from repro.runtime.batching import LATENCY_RESERVOIR_CAPACITY
from repro.serving import ScoringService


class TestServiceStatsBounded:
    def test_memory_bounded_under_heavy_traffic(self):
        stats = ServiceStats()
        for _ in range(3 * LATENCY_RESERVOIR_CAPACITY):
            stats.record(10, 0.001)
        assert stats.requests == 3 * LATENCY_RESERVOIR_CAPACITY
        # The latency store is a fixed reservoir, not a per-request list.
        assert stats._latency_us._reservoir.shape == (
            LATENCY_RESERVOIR_CAPACITY,
        )
        assert stats.p50_us == pytest.approx(1000.0)

    def test_percentile_api_unchanged(self):
        stats = ServiceStats()
        for ms in (1, 2, 3, 4, 5):
            stats.record(1, ms / 1000.0)
        summary = stats.latency_summary()
        assert set(summary) == {"p50_us", "p95_us", "p99_us"}
        assert summary["p50_us"] == pytest.approx(3000.0)
        assert stats.latency_percentile_us(0) == pytest.approx(1000.0)
        assert stats.latency_percentile_us(100) == pytest.approx(5000.0)

    def test_empty_stats(self):
        stats = ServiceStats()
        assert np.isnan(stats.p50_us)
        assert np.isnan(stats.measured_us_per_doc)
        assert np.isnan(stats.drift_pct)


class TestServiceStatsValidation:
    def test_rejects_non_positive_docs(self):
        stats = ServiceStats()
        with pytest.raises(ReproError, match="at least one document"):
            stats.record(0, 0.1)
        with pytest.raises(ReproError, match="at least one document"):
            stats.record(-5, 0.1)

    def test_rejects_bad_seconds(self):
        stats = ServiceStats()
        with pytest.raises(ReproError, match="finite and >= 0"):
            stats.record(1, -0.1)
        with pytest.raises(ReproError, match="finite and >= 0"):
            stats.record(1, float("nan"))

    def test_rejects_out_of_range_percentile(self):
        stats = ServiceStats()
        stats.record(1, 0.001)
        with pytest.raises(ReproError, match=r"\[0, 100\]"):
            stats.latency_percentile_us(-0.1)
        with pytest.raises(ReproError, match=r"\[0, 100\]"):
            stats.latency_percentile_us(101)

    def test_failed_record_leaves_counters_untouched(self):
        stats = ServiceStats()
        with pytest.raises(ReproError):
            stats.record(0, 0.1)
        assert stats.requests == 0 and stats.documents == 0


class TestDriftSeries:
    def test_engine_populates_backend_series(
        self, obs_clean, small_forest, tiny_dataset
    ):
        engine = BatchEngine(make_scorer(small_forest), max_batch_size=64)
        for lo in range(0, 120, 40):
            engine.score(tiny_dataset.features[lo : lo + 40])
        report = obs.drift_report()
        row = report.row("quickscorer")
        assert row is not None
        assert row["requests"] == 3 and row["documents"] == 120
        assert row["predicted_us_per_doc"] == pytest.approx(
            engine.stats.predicted_us_per_doc
        )
        assert row["measured_us_per_doc"] > 0
        assert np.isfinite(row["drift_pct"])
        assert "quickscorer" in report.render()

    def test_stats_drift_summary_consistent(
        self, obs_clean, small_forest, tiny_dataset
    ):
        service = ScoringService(small_forest)
        service.score(tiny_dataset.features[:50])
        drift = service.drift_summary()
        expected = (
            (drift["measured_us_per_doc"] - drift["predicted_us_per_doc"])
            / drift["predicted_us_per_doc"]
            * 100.0
        )
        assert drift["drift_pct"] == pytest.approx(expected)

    def test_dense_and_sparse_backends_covered(
        self, obs_clean, small_student, predictor_cache, tiny_dataset
    ):
        from repro.pruning import LevelPruner

        pruned = small_student.clone()
        LevelPruner(0.95).apply(pruned.network.first_layer)
        x = tiny_dataset.features[:40]
        ScoringService(small_student, predictor=predictor_cache).score(x)
        ScoringService(pruned, predictor=predictor_cache).score(x)
        # Both students serve through their compiled plans.
        row = obs.drift_report().row("compiled-network")
        assert row is not None and row["requests"] == 2
        assert row["measured_us_per_doc"] > 0

    def test_empty_report_renders(self, obs_clean):
        report = obs.drift_report()
        assert report.rows == ()
        assert "no scoring traffic" in report.render()


class TestBitIdenticalScores:
    @settings(max_examples=15, deadline=None)
    @given(
        n_docs=st.integers(min_value=1, max_value=50),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_tracing_never_changes_scores(
        self, small_student, n_docs, seed
    ):
        """Hypothesis property: spans are observational only."""
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n_docs, small_student.input_dim))
        scorer = make_scorer(small_student)
        engine = BatchEngine(scorer, max_batch_size=16)
        previous = obs.set_tracer(obs.Tracer(enabled=False))
        try:
            silent = engine.score(x)
            obs.set_tracer(obs.Tracer(enabled=True))
            traced = engine.score(x)
        finally:
            obs.set_tracer(previous)
        np.testing.assert_array_equal(silent, traced)

    def test_quickscorer_bit_identical(
        self, obs_clean, small_forest, tiny_dataset
    ):
        x = tiny_dataset.features[:64]
        engine = BatchEngine(make_scorer(small_forest), max_batch_size=16)
        silent = engine.score(x)
        obs_clean.enable_tracing()
        traced = engine.score(x)
        np.testing.assert_array_equal(silent, traced)


class TestOverheadGuard:
    def test_noop_span_is_cheap(self, obs_clean):
        n = 20_000
        start = time.perf_counter()
        for _ in range(n):
            with obs.span("guard"):
                pass
        per_call = (time.perf_counter() - start) / n
        # A disabled span is two lookups and a no-op context manager;
        # 20 µs/call is two orders of magnitude above its real cost and
        # still far below any request's scoring time.
        assert per_call < 20e-6

    def test_engine_overhead_negligible_when_disabled(
        self, obs_clean, small_forest, tiny_dataset
    ):
        """ISSUE guard: disabled-tracer BatchEngine.score ~ raw scoring."""
        x = tiny_dataset.features[:128]
        scorer = make_scorer(small_forest)
        engine = BatchEngine(scorer, max_batch_size=None)

        def best_of(fn, repeats=5):
            times = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                fn()
                times.append(time.perf_counter() - t0)
            return min(times)

        scorer.score(x)  # warm both paths
        engine.score(x)
        direct = best_of(lambda: scorer.score(x))
        engined = best_of(lambda: engine.score(x))
        # The engine adds validation, stats and the (no-op) span around
        # one real forest traversal; allow generous CI noise.
        assert engined < direct * 3 + 2e-3


class TestStatsCli:
    def test_repro_stats_reports_drift(self, obs_clean, capsys):
        from repro.cli import main

        assert main(["stats", "--queries", "6", "--docs", "6"]) == 0
        out = capsys.readouterr().out
        assert "Predicted vs measured scoring cost" in out
        for backend in ("quickscorer", "compiled-network"):
            assert backend in out
        assert "engine.score" in out  # span tree printed


def _label_keyed_drift(registry, backend, n_docs, seconds, predicted):
    """The drift recorder as label-keyed registry lookups (reference)."""
    registry.counter("scoring.requests", backend=backend).inc()
    registry.counter("scoring.documents", backend=backend).inc(n_docs)
    wall = registry.counter("scoring.wall_seconds", backend=backend)
    wall.inc(seconds)
    docs = registry.counter("scoring.documents", backend=backend)
    registry.histogram("scoring.request_us_per_doc", backend=backend).add(
        seconds * 1e6 / n_docs
    )
    mean_us = wall.value * 1e6 / docs.value
    registry.gauge("scoring.measured_us_per_doc", backend=backend).set(mean_us)
    if np.isfinite(predicted) and predicted > 0:
        registry.gauge("scoring.predicted_us_per_doc", backend=backend).set(
            predicted
        )
        registry.gauge("scoring.drift_pct", backend=backend).set(
            (mean_us - predicted) / predicted * 100.0
        )


class TestBoundDriftSeries:
    CALLS = ((40, 0.002, 1.5), (7, 0.0004, float("nan")), (120, 0.01, 0.0))

    def test_matches_label_keyed_lookups(self):
        from repro.obs.drift import DriftSeries

        looked_up, bound = obs.MetricsRegistry(), obs.MetricsRegistry()
        series = DriftSeries("qs", bound)
        for n_docs, seconds, predicted in self.CALLS * 2:
            _label_keyed_drift(looked_up, "qs", n_docs, seconds, predicted)
            series.record(
                n_docs=n_docs, seconds=seconds, predicted_us_per_doc=predicted
            )
        assert bound.snapshot() == looked_up.snapshot()

    def test_engine_refetches_after_reset_and_replacement(
        self, obs_clean, small_forest, tiny_dataset
    ):
        engine = BatchEngine(make_scorer(small_forest))
        x = tiny_dataset.features[:20]
        engine.score(x)
        obs.get_registry().reset()
        engine.score(x)
        engine.score_coalesced([x[:5], x[5:]])
        assert obs.drift_report().row("quickscorer")["requests"] == 2
        fresh = obs.MetricsRegistry()
        previous = obs.set_registry(fresh)
        try:
            engine.score(x)
        finally:
            obs.set_registry(previous)
        assert obs.drift_report(fresh).row("quickscorer")["requests"] == 1
        assert obs.drift_report().row("quickscorer")["requests"] == 2
