"""Tests for the typed ServiceConfig surface and its keyword shorthands."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.exceptions import ConfigError
from repro.runtime import (
    AsyncConfig,
    CircuitBreakerConfig,
    LifecycleConfig,
    ParallelConfig,
    PipelineConfig,
    PipelineStageConfig,
    ResilienceConfig,
    RetryPolicy,
    ServiceConfig,
    StubScorer,
    TenantConfig,
)
from repro.serving import LoadSpec, ScoringService
from repro.utils import codec


@pytest.fixture(scope="module")
def features(tiny_splits):
    return tiny_splits[2].features[:120]


# ----------------------------------------------------------------------
# Config objects
# ----------------------------------------------------------------------
class TestConfigObjects:
    def test_service_config_round_trip(self):
        config = ServiceConfig(
            budget_us_per_doc=40.0,
            max_batch_size=None,
            backend="quickscorer",
            allow_unpriced=True,
            resilience=ResilienceConfig(
                retry=RetryPolicy(max_attempts=3),
                breaker=CircuitBreakerConfig(window=16),
                deadline_us=5e5,
            ),
            parallel=ParallelConfig(workers=4, cache_entries=512),
        )
        rebuilt = ServiceConfig.from_dict(config.to_dict())
        assert rebuilt == config

    def test_from_dict_accepts_nested_dicts(self):
        config = ServiceConfig.from_dict(
            {
                "budget_us_per_doc": 10.0,
                "resilience": {"deadline_us": 1e6},
                "parallel": {"workers": 2},
            }
        )
        assert config.resilience.deadline_us == 1e6
        assert config.parallel.workers == 2
        assert config.max_batch_size == 256  # default preserved

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown ServiceConfig"):
            ServiceConfig.from_dict({"latency_sla": 1.0})
        with pytest.raises(ConfigError, match="unknown ResilienceConfig"):
            ResilienceConfig.from_dict({"retries": 3})

    def test_fallback_models_not_serializable(self):
        config = ResilienceConfig(fallback_models=(StubScorer(),))
        with pytest.raises(ConfigError, match="live model"):
            config.to_dict()

    def test_fallback_models_coerced_to_tuple(self):
        config = ResilienceConfig(fallback_models=[StubScorer()])
        assert isinstance(config.fallback_models, tuple)

    def test_invalid_deadline_rejected(self):
        with pytest.raises(ConfigError, match="deadline_us"):
            ResilienceConfig(deadline_us=-1.0)

    def test_invalid_nested_dict_rejected(self):
        with pytest.raises(ConfigError, match="invalid retry"):
            ResilienceConfig.from_dict(
                {"retry": {"max_attempts": 2, "bogus": True}}
            )

    def test_frontend_config_round_trip(self):
        from repro.runtime import AsyncConfig, TenantConfig

        config = ServiceConfig(
            backend="compiled-network",
            frontend=AsyncConfig(
                max_wait_us=250.0,
                max_batch_requests=32,
                slo_us=10_000.0,
                tenants=(
                    TenantConfig(
                        name="web", rate_per_s=500.0, burst=64, priority=0
                    ),
                    TenantConfig(name="batch", priority=2, deadline_us=5e4),
                ),
            ),
        )
        rebuilt = ServiceConfig.from_dict(config.to_dict())
        assert rebuilt == config
        assert rebuilt.frontend.tenant("web").rate_per_s == 500.0
        assert rebuilt.frontend.tenant("missing") is None

    def test_frontend_from_nested_dicts(self):
        config = ServiceConfig.from_dict(
            {
                "frontend": {
                    "max_wait_us": 100.0,
                    "tenants": [{"name": "a", "rate_per_s": 10.0}],
                }
            }
        )
        assert config.frontend.max_wait_us == 100.0
        assert config.frontend.tenants[0].name == "a"
        # JSON-able end to end
        import json

        assert json.loads(json.dumps(config.to_dict())) == config.to_dict()

    def test_lifecycle_round_trip(self):
        from repro.runtime import LifecycleConfig

        config = ServiceConfig(
            backend="compiled-network",
            lifecycle=LifecycleConfig(
                shadow_fraction=0.5,
                shadow_min_requests=4,
                shadow_mode="sync",
                replay_capacity=128,
            ),
        )
        import json

        rebuilt = ServiceConfig.from_dict(
            json.loads(json.dumps(config.to_dict()))
        )
        assert rebuilt == config
        assert rebuilt.lifecycle.shadow_fraction == 0.5

    def test_lifecycle_from_nested_dict(self):
        config = ServiceConfig.from_dict(
            {"lifecycle": {"shadow_fraction": 0.1, "max_drift_pct": 5.0}}
        )
        assert config.lifecycle.shadow_fraction == 0.1
        assert config.lifecycle.shadow_min_requests == 16  # default kept

    def test_lifecycle_unknown_keys_named(self):
        from repro.runtime import LifecycleConfig

        with pytest.raises(ConfigError, match="mirror_fraction"):
            LifecycleConfig.from_dict({"mirror_fraction": 0.5})
        with pytest.raises(ConfigError, match="unknown LifecycleConfig"):
            ServiceConfig.from_dict(
                {"lifecycle": {"mirror_fraction": 0.5}}
            )

    def test_frontend_validation(self):
        from repro.runtime import AsyncConfig, TenantConfig

        with pytest.raises(ConfigError, match="rate_per_s"):
            TenantConfig(name="t", rate_per_s=0.0)
        with pytest.raises(ConfigError, match="priority"):
            TenantConfig(name="t", priority=-1)
        with pytest.raises(ConfigError, match="unknown TenantConfig"):
            TenantConfig.from_dict({"name": "t", "rate": 1.0})
        with pytest.raises(ConfigError, match="unique"):
            AsyncConfig(
                tenants=(TenantConfig(name="a"), TenantConfig(name="a"))
            )
        with pytest.raises(ConfigError, match="unknown AsyncConfig"):
            AsyncConfig.from_dict({"linger_us": 5.0})


# ----------------------------------------------------------------------
# Deprecated kwargs
# ----------------------------------------------------------------------
class TestDeprecatedKwargs:
    """The pre-1.1 resilience keywords are gone; the per-field
    shorthands (budget, batch size, backend) stay, exclusive of a
    config."""

    def test_config_path_does_not_warn(self, small_forest, recwarn):
        ScoringService(
            small_forest,
            ServiceConfig(resilience=ResilienceConfig(deadline_us=1e6)),
        )
        assert not [
            w for w in recwarn if issubclass(w.category, DeprecationWarning)
        ]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"budget_us_per_doc": 1e6},
            {"max_batch_size": 64},
            {"backend": "quickscorer"},
        ],
        ids=lambda kw: next(iter(kw)),
    )
    def test_config_plus_kwarg_conflicts(self, small_forest, kwargs):
        with pytest.raises(ValueError, match="not both"):
            ScoringService(small_forest, ServiceConfig(), **kwargs)

    @pytest.mark.parametrize(
        "name", ["fallback_models", "retry_policy", "deadline_us"]
    )
    def test_removed_aliases_are_rejected(self, small_forest, name):
        with pytest.raises(TypeError, match=name):
            ScoringService(small_forest, **{name: None})


# ----------------------------------------------------------------------
# Config-built services, end to end
# ----------------------------------------------------------------------
class TestServiceFromConfig:
    def test_plain_config_service_scores(self, small_forest, features):
        service = ScoringService(small_forest, ServiceConfig())
        assert service.score(features).shape == (len(features),)
        assert service.parallel_summary() is None
        assert service.resilience_summary() is None

    def test_parallel_config_service_bit_identical(
        self, small_forest, features
    ):
        plain = ScoringService(small_forest)
        reference = plain.score(features)
        service = ScoringService(
            small_forest,
            ServiceConfig(
                max_batch_size=None,
                parallel=ParallelConfig(workers=2, cache_entries=2048),
            ),
        )
        np.testing.assert_array_equal(service.score(features), reference)
        np.testing.assert_array_equal(service.score(features), reference)
        summary = service.parallel_summary()
        assert summary["requests"] == 2
        assert summary["cache"]["hits"] > 0

    def test_parallel_under_resilience(self, small_forest, features):
        """The chain wraps the versioned/sharded scorer unchanged."""
        from repro.runtime import ShardedScorer, VersionedScorer

        service = ScoringService(
            small_forest,
            ServiceConfig(
                max_batch_size=None,
                parallel=ParallelConfig(workers=2),
                resilience=ResilienceConfig(fallback_models=(StubScorer(),)),
            ),
        )
        assert isinstance(service.chain.tiers[0].inner, VersionedScorer)
        assert isinstance(service.sharded, ShardedScorer)
        reference = ScoringService(small_forest).score(features)
        np.testing.assert_array_equal(service.score(features), reference)
        assert service.fallback_ratio == 0.0


# ----------------------------------------------------------------------
# One codec: nested dicts coerce everywhere, every config round-trips
# ----------------------------------------------------------------------
NESTED_FIELDS = {
    "resilience": (ResilienceConfig, {"deadline_us": 1e6}),
    "parallel": (ParallelConfig, {"workers": 1}),
    "frontend": (AsyncConfig, {"max_wait_us": 10.0}),
    "pipeline": (PipelineConfig, {"stages": [{"model": "a"}]}),
    "lifecycle": (LifecycleConfig, {"shadow_fraction": 0.5}),
}

TENANTS = (
    TenantConfig(name="web", rate_per_s=100.0, burst=8, priority=0),
    TenantConfig(name="batch", priority=3, max_queue_depth=4),
)
STAGE = PipelineStageConfig(
    model="pruned",
    backend="compiled-network",
    keep_fraction=0.3,
    backend_options={"plan_dtype": "float32"},
    cost_us_per_doc=1.5,
    name="fast",
)
PIPELINE = PipelineConfig(
    stages=(STAGE, PipelineStageConfig(model="forest")),
    budget_us_per_query=400.0,
)
RESILIENCE = ResilienceConfig(
    retry=RetryPolicy(max_attempts=5, backoff_seconds=0.01),
    breaker=CircuitBreakerConfig(window=12, drift_pct_limit=50.0),
    deadline_us=2e5,
)
NON_DEFAULT = [
    RetryPolicy(max_attempts=5, backoff_multiplier=3.0),
    CircuitBreakerConfig(window=12, min_samples=3, drift_pct_limit=50.0),
    RESILIENCE,
    TENANTS[0],
    AsyncConfig(max_wait_us=300.0, slo_us=1e4, tenants=TENANTS),
    ParallelConfig(workers=3, strategy="size-capped", max_shard_rows=64),
    LifecycleConfig(shadow_fraction=0.5, shadow_mode="sync", replay_seed=3),
    STAGE,
    PIPELINE,
    ServiceConfig(
        budget_us_per_doc=40.0,
        max_batch_size=None,
        allow_unpriced=True,
        resilience=RESILIENCE,
        parallel=ParallelConfig(workers=4, cache_entries=512),
        frontend=AsyncConfig(tenants=TENANTS),
        pipeline=PIPELINE,
        lifecycle=LifecycleConfig(replay_capacity=64),
    ),
    LoadSpec(mode="closed", workers=3, tenants=(("a", 2.0), ("b", 1.0))),
]


class TestConfigCodec:
    @pytest.mark.parametrize("name", sorted(NESTED_FIELDS))
    def test_nested_dict_coerces_to_config(self, name):
        cls, data = NESTED_FIELDS[name]
        assert isinstance(getattr(ServiceConfig(**{name: data}), name), cls)
        rebuilt = ServiceConfig.from_dict({name: data})
        assert isinstance(getattr(rebuilt, name), cls)

    @pytest.mark.parametrize("name", sorted(NESTED_FIELDS))
    def test_nested_wrong_type_rejected(self, name):
        with pytest.raises(ConfigError, match=name):
            ServiceConfig(**{name: 3})
        with pytest.raises(ConfigError, match=name):
            ServiceConfig.from_dict({name: 3})

    def test_parallel_dict_service_scores(self):
        service = ScoringService(
            StubScorer(input_dim=3), ServiceConfig(parallel={"workers": 1})
        )
        try:
            assert service.score(np.ones((5, 3))).shape == (5,)
        finally:
            service.close()

    def test_bad_tenant_key_is_config_error(self):
        with pytest.raises(ConfigError, match="bogus"):
            AsyncConfig(tenants=({"name": "a", "bogus": 1},))

    def test_invalid_nested_value_is_config_error(self):
        with pytest.raises(ConfigError, match="invalid retry.*max_attempts"):
            ResilienceConfig.from_dict({"retry": {"max_attempts": 0}})

    @pytest.mark.parametrize(
        "config", NON_DEFAULT, ids=lambda config: type(config).__name__
    )
    def test_round_trips_through_json(self, config):
        cls = type(config)
        data = json.loads(json.dumps(config.to_dict()))
        assert cls.from_dict(data) == config
        with pytest.raises(ConfigError, match=f"{cls.__name__}.*nonesuch"):
            cls.from_dict({**data, "nonesuch": 1})

    def test_parametrised_hint_is_not_a_nested_config(self):
        # Python 3.10 reports ``tuple[str, float]`` as a type; the codec
        # must not hand a generic alias to ``issubclass``.
        assert codec._nested(tuple[str, float]) == (None, False)
        assert codec._nested(LoadSpec | None) == (LoadSpec, False)
