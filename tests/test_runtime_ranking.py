"""Declarative ranking pipelines: config round-trips, build, serving."""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.exceptions import ConfigError
from repro.obs.probe import build_probe_models
from repro.runtime import (
    PipelineConfig,
    PipelineStageConfig,
    RankingPipeline,
    ServiceConfig,
    build_pipeline,
    make_scorer,
)
from repro.serving import AsyncScoringService, ScoringService


@pytest.fixture(scope="module")
def probe_models():
    return build_probe_models(n_queries=8, docs_per_query=16, seed=21)


@pytest.fixture(scope="module")
def roles(probe_models):
    return {k: m for k, m in probe_models.items() if k != "dataset"}


THREE_STAGES = (
    {"model": "sparse-network", "keep_fraction": 0.4},
    {"model": "dense-network", "keep_fraction": 0.5},
    {"model": "quickscorer"},
)


class TestPipelineStageConfig:
    def test_roundtrip(self):
        stage = PipelineStageConfig(
            model="student",
            backend="compiled-network",
            keep_fraction=0.3,
            backend_options={"plan_dtype": "float32"},
            cost_us_per_doc=1.5,
            name="fast-student",
        )
        restored = PipelineStageConfig.from_dict(
            json.loads(json.dumps(stage.to_dict()))
        )
        assert restored == stage
        assert restored.label == "fast-student"

    def test_defaults(self):
        stage = PipelineStageConfig.from_dict({"model": "teacher"})
        assert stage.keep_fraction == 1.0
        assert stage.backend is None
        assert stage.label == "teacher"

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="keep_franction"):
            PipelineStageConfig.from_dict(
                {"model": "m", "keep_franction": 0.5}
            )

    def test_model_required(self):
        with pytest.raises(ConfigError, match="model"):
            PipelineStageConfig.from_dict({"keep_fraction": 0.5})

    def test_invalid_keep_fraction(self):
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ConfigError):
                PipelineStageConfig(model="m", keep_fraction=bad)

    def test_invalid_cost(self):
        with pytest.raises(ConfigError):
            PipelineStageConfig(model="m", cost_us_per_doc=-1.0)

    def test_backend_options_validated(self):
        with pytest.raises(ConfigError, match="mapping"):
            PipelineStageConfig(model="m", backend_options=[1, 2])


class TestPipelineConfig:
    def test_roundtrip_through_json(self):
        config = PipelineConfig(
            stages=list(THREE_STAGES), budget_us_per_query=40.0
        )
        restored = PipelineConfig.from_dict(
            json.loads(json.dumps(config.to_dict()))
        )
        assert restored == config
        assert restored.roles == (
            "sparse-network",
            "dense-network",
            "quickscorer",
        )

    def test_dict_stages_coerced(self):
        config = PipelineConfig(stages=[{"model": "a"}])
        assert isinstance(config.stages[0], PipelineStageConfig)

    def test_empty_rejected(self):
        with pytest.raises(ConfigError, match="at least one stage"):
            PipelineConfig(stages=[])

    def test_invalid_budget(self):
        for bad in (0.0, -5.0, float("inf"), float("nan")):
            with pytest.raises(ConfigError):
                PipelineConfig(stages=[{"model": "a"}], budget_us_per_query=bad)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="budget_us"):
            PipelineConfig.from_dict(
                {"stages": [{"model": "a"}], "budget_us": 5.0}
            )


class TestBuildPipeline:
    def test_builds_ranking_pipeline(self, roles):
        pipeline = build_pipeline(
            roles, PipelineConfig(stages=list(THREE_STAGES)), name="probe"
        )
        assert isinstance(pipeline, RankingPipeline)
        assert pipeline.name == "probe"
        assert [s.name for s in pipeline.stages] == [
            "sparse-network",
            "dense-network",
            "quickscorer",
        ]
        assert pipeline.describe().startswith("probe:")
        # Stage prices come from the calibrated backends.
        assert all(s.cost_us_per_doc > 0 for s in pipeline.stages)

    def test_mapping_config_coerced(self, roles):
        pipeline = build_pipeline(
            roles, {"stages": [{"model": "quickscorer"}]}
        )
        assert isinstance(pipeline.config, PipelineConfig)

    def test_missing_role_lists_available(self, roles):
        config = PipelineConfig(stages=[{"model": "nonesuch"}])
        with pytest.raises(ConfigError, match="nonesuch") as err:
            build_pipeline(roles, config)
        assert "quickscorer" in str(err.value)

    def test_prebuilt_scorer_used_as_is(self, roles):
        scorer = make_scorer(roles["quickscorer"])
        pipeline = build_pipeline(
            {"qs": scorer},
            PipelineConfig(stages=[{"model": "qs", "name": "forest"}]),
        )
        assert pipeline.stages[0].cost_us_per_doc == pytest.approx(
            scorer.predicted_us_per_doc
        )

    def test_prebuilt_scorer_rejects_backend(self, roles):
        scorer = make_scorer(roles["quickscorer"])
        config = PipelineConfig(
            stages=[{"model": "qs", "backend": "quickscorer"}]
        )
        with pytest.raises(ConfigError, match="already a built scorer"):
            build_pipeline({"qs": scorer}, config)

    def test_cost_override_wins(self, roles):
        config = PipelineConfig(
            stages=[{"model": "quickscorer", "cost_us_per_doc": 123.0}]
        )
        pipeline = build_pipeline(roles, config)
        assert pipeline.stages[0].cost_us_per_doc == 123.0

    def test_scores_are_refinement(self, probe_models, roles):
        dataset = probe_models["dataset"]
        pipeline = build_pipeline(
            roles, PipelineConfig(stages=list(THREE_STAGES))
        )
        x = dataset.features[dataset.query_slice(0)]
        result = pipeline.score_query_detailed(x)
        assert result.stages_run == 3
        for level in range(2):
            assert set(result.survivors[level + 1].tolist()) <= set(
                result.survivors[level].tolist()
            )


class TestServiceConfigPipeline:
    def test_nested_roundtrip(self):
        config = ServiceConfig(
            pipeline=PipelineConfig(
                stages=list(THREE_STAGES), budget_us_per_query=25.0
            ),
            max_batch_size=None,
        )
        restored = ServiceConfig.from_dict(
            json.loads(json.dumps(config.to_dict()))
        )
        assert restored.pipeline == config.pipeline

    def test_dict_pipeline_coerced(self):
        config = ServiceConfig(
            pipeline={"stages": [{"model": "a"}], "budget_us_per_query": None}
        )
        assert isinstance(config.pipeline, PipelineConfig)

    def test_pipeline_excludes_backend(self):
        with pytest.raises(ConfigError, match="mutually exclusive"):
            ServiceConfig(
                pipeline={"stages": [{"model": "a"}]}, backend="quickscorer"
            )

    def test_none_pipeline_serializes(self):
        assert ServiceConfig().to_dict()["pipeline"] is None


class TestScoringServiceIntegration:
    def _service(self, roles, **kwargs):
        return ScoringService(
            roles,
            ServiceConfig(
                pipeline=PipelineConfig(stages=list(THREE_STAGES), **kwargs),
                max_batch_size=None,
            ),
        )

    def test_builds_pipeline_from_role_mapping(self, probe_models, roles):
        service = self._service(roles)
        assert isinstance(service.pipeline, RankingPipeline)
        assert service.scorer.backend == "cascade"
        dataset = probe_models["dataset"]
        x = dataset.features[dataset.query_slice(1)]
        served = service.score(x)
        direct = service.pipeline.score_query(x)
        np.testing.assert_array_equal(served, direct)

    def test_pipeline_summary(self, roles):
        summary = self._service(roles).pipeline_summary()
        assert [row["stage"] for row in summary] == [
            "sparse-network",
            "dense-network",
            "quickscorer",
        ]
        assert all(row["cost_us_per_doc"] > 0 for row in summary)
        assert summary[0]["keep_fraction"] == 0.4

    def test_plain_service_has_no_pipeline(self, roles):
        service = ScoringService(roles["quickscorer"], ServiceConfig())
        assert service.pipeline is None
        assert service.pipeline_summary() is None

    def test_prebuilt_pipeline_model_accepted(self, roles):
        pipeline = build_pipeline(
            roles, PipelineConfig(stages=list(THREE_STAGES))
        )
        service = ScoringService(
            pipeline,
            ServiceConfig(pipeline=pipeline.config, max_batch_size=None),
        )
        assert service.pipeline is pipeline

    def test_non_mapping_model_rejected(self, roles):
        with pytest.raises(ValueError, match="mapping"):
            ScoringService(
                roles["quickscorer"],
                ServiceConfig(
                    pipeline=PipelineConfig(stages=list(THREE_STAGES)),
                    max_batch_size=None,
                ),
            )

    def test_budgeted_service_exits_early(self, probe_models, roles, obs_clean):
        service = self._service(roles, budget_us_per_query=2.0)
        dataset = probe_models["dataset"]
        for q in range(dataset.n_queries):
            service.score(dataset.features[dataset.query_slice(q)])
        report = obs_clean.cascade_report()
        assert report.queries.get("pipeline") == dataset.n_queries
        assert report.early_exits.get("pipeline", 0) > 0

    def test_async_frontend_serves_pipeline(self, probe_models, roles):
        service = self._service(roles)
        dataset = probe_models["dataset"]
        requests = [
            dataset.features[dataset.query_slice(q)]
            for q in range(dataset.n_queries)
        ]
        expected = [service.pipeline.score_query(x) for x in requests]

        async def _run():
            async with AsyncScoringService(service) as front:
                return await asyncio.gather(
                    *(front.score(x) for x in requests)
                )

        results = asyncio.run(_run())
        for got, want in zip(results, expected):
            np.testing.assert_array_equal(got, want)


class TestCascadeObsReport:
    def test_record_and_report(self, obs_clean):
        obs_clean.record_cascade_query(
            "p",
            stage_names=("a", "b"),
            stage_docs=(10, 4),
            stage_us=(5.0, 20.0),
            predicted_spend_us=12.5,
            exited_early=False,
        )
        obs_clean.record_cascade_query(
            "p",
            stage_names=("a",),
            stage_docs=(8,),
            stage_us=(4.0,),
            predicted_spend_us=8.0,
            exited_early=True,
        )
        report = obs_clean.cascade_report()
        assert report.queries == {"p": 2}
        assert report.early_exits == {"p": 1}
        assert report.mean_predicted_spend_us["p"] == pytest.approx(10.25)
        rows = report.pipeline("p")
        assert [(r.level, r.stage) for r in rows] == [(0, "a"), (1, "b")]
        assert rows[0].queries == 2
        assert rows[0].docs == 18
        assert rows[0].docs_per_query == pytest.approx(9.0)
        assert rows[1].us_per_doc == pytest.approx(5.0)
        rendered = report.render()
        assert "Cascade funnel" in rendered
        assert "1 budget early-exits" in rendered

    QUERIES = (
        dict(stage_names=("a", "b"), stage_docs=(10, 4),
             stage_us=(5.0, 20.0), predicted_spend_us=12.5,
             exited_early=False),
        dict(stage_names=("a",), stage_docs=(8,), stage_us=(4.0,),
             predicted_spend_us=8.0, exited_early=True),
        dict(stage_names=("a", "b"), stage_docs=(6, 0),
             stage_us=(3.0, float("nan")), predicted_spend_us=float("nan"),
             exited_early=False),
    )

    def test_bound_series_match_per_query_lookups(self, obs_clean):
        from repro.obs.cascade import CascadeSeries

        looked_up, bound = obs_clean.MetricsRegistry(), obs_clean.MetricsRegistry()
        series = CascadeSeries("p", bound)
        for query in self.QUERIES * 2:
            obs_clean.record_cascade_query("p", registry=looked_up, **query)
            series.record(**query)
        assert bound.snapshot() == looked_up.snapshot()
        assert obs_clean.cascade_report(bound) == obs_clean.cascade_report(
            looked_up
        )

    def test_bound_series_follow_registry_swaps_and_resets(self, obs_clean):
        from repro.obs.cascade import CascadeSeries

        series = CascadeSeries("p")
        series.record(**self.QUERIES[0])
        obs_clean.get_registry().reset()
        series.record(**self.QUERIES[1])
        assert obs_clean.cascade_report().queries == {"p": 1}
        fresh = obs_clean.MetricsRegistry()
        previous = obs_clean.set_registry(fresh)
        try:
            series.record(**self.QUERIES[0])
        finally:
            obs_clean.set_registry(previous)
        assert obs_clean.cascade_report(fresh).queries == {"p": 1}
        assert obs_clean.cascade_report().queries == {"p": 1}

    def test_empty_report_renders(self, obs_clean):
        assert "no cascade queries" in obs_clean.cascade_report().render()
