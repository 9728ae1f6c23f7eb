"""Versioned model registry, hot swap, shadow gate and rollback."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigError
from repro.obs.probe import build_probe_models
from repro.runtime import (
    BudgetExceededError,
    LifecycleConfig,
    LifecycleError,
    LifecycleManager,
    ModelRegistry,
    ParallelConfig,
    ServiceConfig,
    StubScorer,
    VersionedScorer,
    ranking_agreement,
    score_drift_pct,
)
from repro.serving import LoadSpec, ScoringService, make_queries, run_load


@pytest.fixture(scope="module")
def probe():
    """Dataset + incumbent student + good / regressed candidates."""
    models = build_probe_models(n_queries=6, docs_per_query=10, seed=9)
    incumbent = models["student"]
    good = incumbent.clone()
    for p in (good.network.linears[-1].weight, good.network.linears[-1].bias):
        p.data *= 1.001
    regressed = incumbent.clone()
    for p in (
        regressed.network.linears[-1].weight,
        regressed.network.linears[-1].bias,
    ):
        p.data *= -1.0
    return models["dataset"], incumbent, good, regressed


def _queries(dataset):
    return [
        dataset.features[dataset.query_slice(q)]
        for q in range(dataset.n_queries)
    ]


@pytest.fixture(scope="module")
def ref_scorers(probe):
    """Raw single-threaded scorers of the incumbent and good candidate."""
    from repro.runtime import make_scorer

    _, incumbent, good, _ = probe
    return make_scorer(incumbent), make_scorer(good)


def _gated_service(incumbent, **lifecycle_kwargs):
    kwargs = dict(
        shadow_mode="sync", shadow_fraction=1.0, shadow_min_requests=4
    )
    kwargs.update(lifecycle_kwargs)
    return ScoringService(
        incumbent,
        ServiceConfig(
            max_batch_size=None,
            parallel=ParallelConfig(workers=2, cache_entries=2048),
            lifecycle=LifecycleConfig(**kwargs),
        ),
    )


# ----------------------------------------------------------------------
# Config
# ----------------------------------------------------------------------
class TestLifecycleConfig:
    def test_round_trip(self):
        config = LifecycleConfig(
            shadow_fraction=0.5,
            shadow_min_requests=8,
            max_drift_pct=5.0,
            shadow_mode="sync",
            replay_capacity=32,
        )
        rebuilt = LifecycleConfig.from_dict(
            json.loads(json.dumps(config.to_dict()))
        )
        assert rebuilt == config

    def test_unknown_keys_named(self):
        with pytest.raises(ConfigError, match="shadow_pct"):
            LifecycleConfig.from_dict({"shadow_pct": 0.5})

    def test_validation(self):
        with pytest.raises(ConfigError, match="shadow_fraction"):
            LifecycleConfig(shadow_fraction=1.5)
        with pytest.raises(ConfigError, match="shadow_min_requests"):
            LifecycleConfig(shadow_min_requests=0)
        with pytest.raises(ConfigError, match="max_drift_pct"):
            LifecycleConfig(max_drift_pct=0.0)
        with pytest.raises(ConfigError, match="min_agreement"):
            LifecycleConfig(min_agreement=2.0)
        with pytest.raises(ConfigError, match="shadow_mode"):
            LifecycleConfig(shadow_mode="async")
        with pytest.raises(ConfigError, match="replay_capacity"):
            LifecycleConfig(replay_capacity=-1)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestModelRegistry:
    def test_first_version_auto_activates(self, probe):
        _, incumbent, good, _ = probe
        registry = ModelRegistry(incumbent, version="v1")
        assert registry.active.version_id == "v1"
        entry = registry.register(good)
        assert entry.version_id == "v2"  # auto id from the sequence
        assert registry.active.version_id == "v1"  # later ones stay inactive
        assert len(registry) == 2 and "v2" in registry

    def test_activate_flips_atomically(self, probe):
        _, incumbent, good, _ = probe
        registry = ModelRegistry(incumbent, version="v1")
        registry.register(good, version="v2")
        previous, entry = registry.activate("v2")
        assert previous.version_id == "v1" and entry.version_id == "v2"
        assert registry.previous.version_id == "v1"

    def test_duplicate_and_unknown_rejected(self, probe):
        _, incumbent, good, _ = probe
        registry = ModelRegistry(incumbent, version="v1")
        with pytest.raises(LifecycleError, match="already registered"):
            registry.register(good, version="v1")
        with pytest.raises(LifecycleError, match="unknown version"):
            registry.activate("nope")
        with pytest.raises(LifecycleError, match="unknown version"):
            registry.get("nope")

    def test_cannot_discard_active(self, probe):
        _, incumbent, _, _ = probe
        registry = ModelRegistry(incumbent, version="v1")
        with pytest.raises(LifecycleError, match="active"):
            registry.discard("v1")

    def test_input_dim_mismatch_rejected(self, probe):
        _, incumbent, _, _ = probe
        registry = ModelRegistry(incumbent, version="v1")
        with pytest.raises(LifecycleError, match="features"):
            registry.register(StubScorer(input_dim=7), version="odd")

    def test_batchability_mismatch_rejected(self, probe):
        _, incumbent, _, _ = probe
        registry = ModelRegistry(incumbent, version="v1")

        class Unbatchable(StubScorer):
            batchable = False

        with pytest.raises(LifecycleError, match="batchab"):
            registry.register(Unbatchable(), version="whole")

    def test_summary_json_safe(self, probe):
        _, incumbent, good, _ = probe
        registry = ModelRegistry(incumbent, version="v1")
        registry.register(good, version="v2")
        summary = registry.summary()
        json.dumps(summary)
        assert summary["active"] == "v1"
        assert [v["version"] for v in summary["versions"]] == ["v1", "v2"]
        events = [h["event"] for h in summary["history"]]
        assert events[0] == "registered" and "activated" in events

    def test_empty_registry_has_no_active(self):
        registry = ModelRegistry()
        with pytest.raises(LifecycleError, match="no active"):
            registry.active


# ----------------------------------------------------------------------
# Versioned scorer
# ----------------------------------------------------------------------
class TestVersionedScorer:
    def test_delegates_scorer_protocol(self, probe):
        _, incumbent, _, _ = probe
        registry = ModelRegistry(incumbent, version="v1")
        versioned = VersionedScorer(registry)
        raw = registry.active.scorer
        assert versioned.backend == raw.backend
        assert versioned.input_dim == raw.input_dim
        assert versioned.batchable == raw.batchable
        assert versioned.fingerprint() == registry.active.fingerprint
        assert versioned.describe() == raw.describe()

    def test_counts_served_requests_per_version(self, probe, obs_clean):
        dataset, incumbent, good, _ = probe
        registry = ModelRegistry(incumbent, version="v1")
        versioned = VersionedScorer(registry)
        x = _queries(dataset)[0]
        versioned.score(x)
        versioned.score(x)
        registry.register(good, version="v2", activate=True)
        versioned.score(x)
        assert versioned.served_by_version == {"v1": 2, "v2": 1}
        assert versioned.requests == 3
        report = obs_clean.lifecycle_report()
        assert report.row("v1")["requests"] == 2
        assert report.row("v2")["documents"] == len(x)

    def test_requires_registry(self):
        with pytest.raises(TypeError, match="ModelRegistry"):
            VersionedScorer("not a registry")


# ----------------------------------------------------------------------
# Shadow comparison math
# ----------------------------------------------------------------------
class TestShadowMath:
    def test_identical_scores_no_drift_full_agreement(self, rng):
        scores = rng.standard_normal(40)
        assert score_drift_pct(scores, scores) == 0.0
        assert ranking_agreement(scores, scores) == pytest.approx(1.0)

    def test_reversed_ranking_disagrees(self, rng):
        scores = np.sort(rng.standard_normal(40))
        assert ranking_agreement(scores, -scores) < 0.5

    def test_scaled_candidate_drifts(self):
        scores = np.ones(10)
        assert score_drift_pct(scores, 1.2 * scores) == pytest.approx(20.0)

    def test_empty_and_mismatched_are_nan(self):
        assert np.isnan(score_drift_pct([], []))
        assert np.isnan(ranking_agreement([1.0, 2.0], [1.0]))


# ----------------------------------------------------------------------
# Swap / gate / rollback through the service
# ----------------------------------------------------------------------
class TestSwap:
    def test_forced_swap_is_bit_identical_pre_and_post(self, probe):
        dataset, incumbent, good, _ = probe
        x = _queries(dataset)[0]
        ref_incumbent = ScoringService(incumbent).score(x)
        ref_candidate = ScoringService(good).score(x)
        service = _gated_service(incumbent)
        np.testing.assert_array_equal(service.score(x), ref_incumbent)
        outcome = service.swap(good, version="v2", force=True)
        assert outcome["action"] == "forced"
        assert outcome["event"]["from_version"] == "v1"
        assert outcome["event"]["invalidated"] > 0  # x was cached under v1
        np.testing.assert_array_equal(service.score(x), ref_candidate)
        service.close()

    def test_gate_promotes_close_candidate(self, probe):
        dataset, incumbent, good, _ = probe
        service = _gated_service(incumbent)
        assert service.swap(good, version="v2")["action"] == "shadowing"
        for x in _queries(dataset)[:4]:
            service.score(x)
        assert service.registry.active.version_id == "v2"
        gate = service.lifecycle.last_gate
        assert gate.passed and gate.compared >= 4
        assert gate.mean_drift_pct < 1.0
        assert gate.mean_agreement > 0.99
        assert service.lifecycle.swap_events[-1].kind == "promoted"
        service.close()

    def test_gate_rolls_back_regressed_candidate(self, probe, obs_clean):
        dataset, incumbent, _, regressed = probe
        service = _gated_service(incumbent)
        assert service.swap(regressed, version="bad")["action"] == "shadowing"
        for x in _queries(dataset)[:4]:
            service.score(x)
        assert service.registry.active.version_id == "v1"
        assert service.lifecycle.state == "serving"
        gate = service.lifecycle.last_gate
        assert not gate.passed
        assert any("drift" in r for r in gate.reasons)
        event = service.lifecycle.swap_events[-1]
        assert event.kind == "rolled-back"
        assert event.invalidated > 0  # shadow-warmed rows under "bad"
        report = obs_clean.lifecycle_report()
        assert report.totals["rollbacks"] == 1
        assert report.row("bad")["shadow_requests"] >= 4
        service.close()

    def test_without_auto_rollback_shadow_waits_for_decide(self, probe):
        dataset, incumbent, _, regressed = probe
        service = _gated_service(incumbent, auto_rollback=False)
        service.swap(regressed, version="bad")
        for x in _queries(dataset):
            service.score(x)
        assert service.lifecycle.state == "shadowing"
        gate = service.lifecycle.decide()
        assert not gate.passed
        assert service.registry.active.version_id == "v1"
        with pytest.raises(LifecycleError, match="no shadow phase"):
            service.lifecycle.decide()
        service.close()

    def test_new_swap_supersedes_shadow_phase(self, probe):
        dataset, incumbent, good, regressed = probe
        service = _gated_service(incumbent)
        service.swap(regressed, version="bad")
        service.swap(good, version="good")
        assert service.lifecycle.candidate.version_id == "good"
        events = [h["event"] for h in service.registry.history]
        assert "shadow-superseded" in events
        for x in _queries(dataset)[:4]:
            service.score(x)
        assert service.registry.active.version_id == "good"
        service.close()

    def test_manual_rollback_restores_previous(self, probe):
        dataset, incumbent, good, _ = probe
        x = _queries(dataset)[0]
        ref_incumbent = ScoringService(incumbent).score(x)
        service = _gated_service(incumbent)
        service.score(x)
        service.swap(good, version="v2", force=True)
        event = service.rollback()
        assert event.kind == "rolled-back"
        assert service.registry.active.version_id == "v1"
        np.testing.assert_array_equal(service.score(x), ref_incumbent)
        service.close()
        fresh = _gated_service(incumbent)  # single version: nowhere to go
        with pytest.raises(LifecycleError, match="previous"):
            fresh.rollback()
        fresh.close()

    def test_budget_admission_discards_over_budget_candidate(self, probe):
        _, incumbent, good, _ = probe
        service = ScoringService(
            incumbent,
            ServiceConfig(
                budget_us_per_doc=1e6,
                lifecycle=LifecycleConfig(shadow_mode="sync"),
            ),
        )
        registry = service.registry
        manager = service.lifecycle
        manager.budget_us_per_doc = 1e-9  # nothing fits any more
        with pytest.raises(BudgetExceededError, match="exceeds"):
            service.swap(good, version="v2", force=True)
        assert "v2" not in registry  # failed admission leaves no corpse
        assert registry.active.version_id == "v1"
        service.close()

    def test_unpriced_candidate_needs_allow_unpriced(self, probe):
        _, incumbent, _, _ = probe

        class Unpriceable(StubScorer):
            @property
            def predicted_us_per_doc(self):
                raise RuntimeError("no calibration available")

        registry = ModelRegistry(incumbent, version="v1")
        manager = LifecycleManager(
            registry,
            LifecycleConfig(shadow_mode="sync"),
            budget_us_per_doc=10.0,
        )
        with pytest.raises(BudgetExceededError, match="no finite price"):
            manager.swap(Unpriceable(), version="stub", force=True)
        assert "stub" not in registry
        manager.allow_unpriced = True
        outcome = manager.swap(Unpriceable(), version="stub", force=True)
        assert outcome["action"] == "forced"

    def test_swap_refreshes_engine_price(self, probe):
        _, incumbent, good, _ = probe
        service = _gated_service(incumbent)
        service.swap(good, version="v2", force=True)
        assert service.stats.predicted_us_per_doc == pytest.approx(
            service.registry.get("v2").price
        )
        service.close()

    def test_cache_invalidation_is_fingerprint_scoped(self, probe):
        dataset, incumbent, good, _ = probe
        x, y = _queries(dataset)[:2]
        service = _gated_service(incumbent)
        cache = service.cache
        service.score(x)
        service.score(y)
        rows_before = len(cache)
        assert rows_before == len(x) + len(y)
        service.swap(good, version="v2", force=True)
        assert len(cache) == 0  # every cached row was the incumbent's
        service.score(x)  # rewarm under v2's fingerprint
        service.swap(incumbent, version="v1-again", force=True)
        # only v2's rows vanish; v1-again recomputes from scratch
        assert len(cache) == 0
        assert cache.invalidations >= 2
        service.close()


# ----------------------------------------------------------------------
# Property: swaps never blur version boundaries
# ----------------------------------------------------------------------
class TestSwapBitIdentity:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_pre_swap_matches_incumbent_post_swap_matches_candidate(
        self, probe, ref_scorers, seed
    ):
        _, incumbent, good, _ = probe
        ref_incumbent, ref_candidate = ref_scorers
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((int(rng.integers(1, 24)), 136))
        service = _gated_service(incumbent)
        np.testing.assert_array_equal(
            service.score(x), ref_incumbent.score(x)
        )
        service.swap(good, version="v2", force=True)
        np.testing.assert_array_equal(
            service.score(x), ref_candidate.score(x)
        )
        service.close()


# ----------------------------------------------------------------------
# Swap under concurrent load (the zero-downtime claim)
# ----------------------------------------------------------------------
class TestSwapUnderLoad:
    def test_mid_load_swap_loses_nothing(self, probe, ref_scorers, obs_clean):
        dataset, incumbent, good, _ = probe
        service = _gated_service(incumbent)
        spec = LoadSpec(
            mode="closed",
            workers=4,
            requests_per_worker=10,
            n_queries=6,
            docs_per_query=10,
            seed=5,
        )
        report = run_load(
            service,
            spec,
            make_queries(spec, 136),
            swap_at=0.5,
            swap_fn=lambda front: front.swap(good, version="v2", force=True),
        )
        assert report.errors == 0 and report.shed == 0
        assert report.served == report.offered == 40
        assert len(report.swap_events) == 1
        event = report.swap_events[0]
        assert event["action"] == "forced"
        assert event["event"]["invalidated"] > 0  # v1's load-warmed rows
        assert 1 <= event["at_request"] <= report.offered
        assert set(report.served_by_version) == {"v1", "v2"}
        assert sum(report.served_by_version.values()) == report.served
        assert service.registry.active.version_id == "v2"
        x = _queries(dataset)[0]
        np.testing.assert_array_equal(
            service.score(x), ref_scorers[1].score(x)
        )
        json.dumps(report.to_dict())
        assert "swap at" in report.render()
        service.close()

    def test_swap_at_validation(self, probe):
        from repro.exceptions import ReproError

        _, incumbent, _, _ = probe
        service = ScoringService(incumbent)
        spec = LoadSpec(mode="closed", workers=1, requests_per_worker=1)
        with pytest.raises(ReproError, match="swap_fn"):
            run_load(service, spec, n_features=136, swap_at=0.5)
        with pytest.raises(ReproError, match=r"\(0, 1\)"):
            run_load(
                service,
                spec,
                n_features=136,
                swap_at=1.5,
                swap_fn=lambda front: None,
            )


# ----------------------------------------------------------------------
# The fixed-model path: unchanged behaviour, wrapped silently
# ----------------------------------------------------------------------
class TestFixedModelPath:
    def test_plain_model_auto_wraps_without_warning(self, probe, recwarn):
        dataset, incumbent, _, _ = probe
        service = ScoringService(incumbent)
        assert not [
            w for w in recwarn if issubclass(w.category, DeprecationWarning)
        ]
        assert service.registry.active.version_id == "v1"
        assert service.registry.active.source == "seed"
        assert service.model is incumbent

    def test_wrapped_path_scores_identically_to_prebuilt_registry(
        self, probe
    ):
        dataset, incumbent, _, _ = probe
        x = _queries(dataset)[0]
        wrapped = ScoringService(incumbent)
        explicit = ScoringService(
            ModelRegistry(incumbent, version="v1"), ServiceConfig()
        )
        np.testing.assert_array_equal(wrapped.score(x), explicit.score(x))

    def test_empty_registry_rejected(self):
        with pytest.raises(ValueError, match="empty ModelRegistry"):
            ScoringService(ModelRegistry(), ServiceConfig())


# ----------------------------------------------------------------------
# Replay-fed redistillation through the manager
# ----------------------------------------------------------------------
class TestRedistill:
    def test_redistill_requires_replay(self, probe):
        _, incumbent, _, _ = probe
        service = _gated_service(incumbent)  # replay_capacity=0
        with pytest.raises(LifecycleError, match="replay"):
            service.redistill()
        service.close()

    def test_redistill_swaps_in_fine_tuned_student(self, probe):
        dataset, incumbent, _, _ = probe
        service = _gated_service(incumbent, replay_capacity=64)
        queries = _queries(dataset)
        for _ in range(2):
            for x in queries:
                service.score(x)
        replay = service.lifecycle.replay
        assert len(replay) > 0
        assert replay.total_rows > replay.distinct  # dedup observed
        outcome = service.redistill(
            epochs=1, version="v2", force=True, seed=0
        )
        assert outcome["action"] == "forced"
        active = service.registry.active
        assert active.version_id == "v2" and active.source == "redistilled"
        scores = service.score(queries[0])
        assert np.isfinite(scores).all()
        service.close()


class TestShadowSeesQueries:
    """A coalesced cascade batch is mirrored, scored and compared query
    by query, so the shadow's evidence equals sequential traffic's."""

    STAGES = (
        {"model": "pruned", "keep_fraction": 0.4},
        {"model": "student", "keep_fraction": 0.5},
        {"model": "forest"},
    )

    @pytest.fixture(scope="class")
    def pipelines(self):
        from repro.runtime import PipelineConfig, build_pipeline

        models = build_probe_models(n_queries=12, docs_per_query=16, seed=23)
        roles = {k: m for k, m in models.items() if k != "dataset"}
        incumbent = PipelineConfig(stages=list(self.STAGES))
        candidate = PipelineConfig(
            stages=[dict(stage, keep_fraction=0.7) for stage in self.STAGES]
        )
        return (
            models["dataset"],
            roles,
            incumbent,
            build_pipeline(roles, candidate),
        )

    def _shadow(self, pipelines, mode, coalesce):
        dataset, roles, incumbent, candidate = pipelines
        service = ScoringService(
            roles,
            ServiceConfig(
                pipeline=incumbent,
                max_batch_size=None,
                parallel=ParallelConfig(workers=1),
                lifecycle=LifecycleConfig(
                    shadow_mode=mode,
                    shadow_fraction=0.5,
                    shadow_min_requests=1000,
                    shadow_queue=1000,
                ),
            ),
        )
        try:
            assert service.swap(candidate)["action"] == "shadowing"
            queries = _queries(dataset)
            if coalesce:
                for lo in range(0, len(queries), 4):
                    service.engine.score_coalesced(queries[lo : lo + 4])
            else:
                for x in queries:
                    service.score(x)
            assert service.lifecycle.drain_shadow()
            return service.lifecycle.shadow.snapshot()
        finally:
            service.close()

    @pytest.mark.parametrize("mode", ["sync", "background"])
    def test_coalesced_equals_sequential(self, pipelines, mode):
        sequential = self._shadow(pipelines, mode, coalesce=False)
        coalesced = self._shadow(pipelines, mode, coalesce=True)
        assert sequential["mirrored"] == 6
        assert sequential["compared"] == 6
        assert sequential["errors"] == 0
        assert 0 < sequential["mean_drift_pct"]
        assert sequential["mean_agreement"] < 1.0
        assert coalesced == sequential
