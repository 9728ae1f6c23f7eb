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
    {"model": "pruned", "keep_fraction": 0.4},
    {"model": "student", "keep_fraction": 0.5},
    {"model": "forest"},
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
            "pruned",
            "student",
            "forest",
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
            "pruned",
            "student",
            "forest",
        ]
        assert pipeline.describe().startswith("probe:")
        # Stage prices come from the calibrated backends.
        assert all(s.cost_us_per_doc > 0 for s in pipeline.stages)

    def test_mapping_config_coerced(self, roles):
        pipeline = build_pipeline(
            roles, {"stages": [{"model": "forest"}]}
        )
        assert isinstance(pipeline.config, PipelineConfig)

    def test_missing_role_lists_available(self, roles):
        config = PipelineConfig(stages=[{"model": "nonesuch"}])
        with pytest.raises(ConfigError, match="nonesuch") as err:
            build_pipeline(roles, config)
        assert "forest" in str(err.value)

    def test_prebuilt_scorer_used_as_is(self, roles):
        scorer = make_scorer(roles["forest"])
        pipeline = build_pipeline(
            {"qs": scorer},
            PipelineConfig(stages=[{"model": "qs", "name": "forest"}]),
        )
        assert pipeline.stages[0].cost_us_per_doc == pytest.approx(
            scorer.predicted_us_per_doc
        )

    def test_prebuilt_scorer_rejects_backend(self, roles):
        scorer = make_scorer(roles["forest"])
        config = PipelineConfig(
            stages=[{"model": "qs", "backend": "quickscorer"}]
        )
        with pytest.raises(ConfigError, match="already a built scorer"):
            build_pipeline({"qs": scorer}, config)

    def test_cost_override_wins(self, roles):
        config = PipelineConfig(
            stages=[{"model": "forest", "cost_us_per_doc": 123.0}]
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
            "pruned",
            "student",
            "forest",
        ]
        assert all(row["cost_us_per_doc"] > 0 for row in summary)
        assert summary[0]["keep_fraction"] == 0.4

    def test_plain_service_has_no_pipeline(self, roles):
        service = ScoringService(roles["forest"], ServiceConfig())
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
                roles["forest"],
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
        totals = obs_clean.cascade_report().tables["pipelines"].row("pipeline")
        assert totals["queries"] == dataset.n_queries
        assert totals["early_exits"] > 0

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


def _pipeline_queries(report) -> dict[str, int]:
    return {
        r["pipeline"]: r["queries"] for r in report.tables["pipelines"].rows
    }


class TestCascadeObsReport:
    def test_record_and_report(self, obs_clean):
        from repro.obs.cascade import CascadeSeries

        series = CascadeSeries("p")
        series.record(
            stage_names=("a", "b"),
            stage_docs=(10, 4),
            stage_us=(5.0, 20.0),
            predicted_spend_us=12.5,
            exited_early=False,
        )
        series.record(
            stage_names=("a",),
            stage_docs=(8,),
            stage_us=(4.0,),
            predicted_spend_us=8.0,
            exited_early=True,
        )
        report = obs_clean.cascade_report()
        pipelines = report.tables["pipelines"]
        assert [r["pipeline"] for r in pipelines.rows] == ["p"]
        assert pipelines.row("p")["queries"] == 2
        assert pipelines.row("p")["early_exits"] == 1
        assert pipelines.row("p")["mean_predicted_spend_us"] == pytest.approx(
            10.25
        )
        rows = [r for r in report.rows if r["pipeline"] == "p"]
        assert [(r["level"], r["stage"]) for r in rows] == [(0, "a"), (1, "b")]
        assert rows[0]["queries"] == 2
        assert rows[0]["docs"] == 18
        assert rows[0]["docs_per_query"] == pytest.approx(9.0)
        assert rows[1]["us_per_doc"] == pytest.approx(5.0)
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
            CascadeSeries("p", looked_up).record(**query)
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
        assert _pipeline_queries(obs_clean.cascade_report()) == {"p": 1}
        fresh = obs_clean.MetricsRegistry()
        previous = obs_clean.set_registry(fresh)
        try:
            series.record(**self.QUERIES[0])
        finally:
            obs_clean.set_registry(previous)
        assert _pipeline_queries(obs_clean.cascade_report(fresh)) == {"p": 1}
        assert _pipeline_queries(obs_clean.cascade_report()) == {"p": 1}

    def test_empty_report_renders(self, obs_clean):
        assert "no cascade queries" in obs_clean.cascade_report().render()


def _row_cascade(keeps=(0.5, 0.5), budget=None, calls=None):
    """A three-stage cascade of row-wise, call-size-invariant stages."""
    from repro.design import CascadeStage, EarlyExitCascade

    def stage_fn(column):
        def score(x):
            if calls is not None:
                calls.append(len(x))
            return np.round(x[:, column] * 3.0) + x[:, column + 1]

        return score

    return EarlyExitCascade(
        [
            CascadeStage(f"s{i}", stage_fn(i), cost, keep_fraction=keep)
            for i, (cost, keep) in enumerate(
                zip((1.0, 2.0, 4.0), tuple(keeps) + (1.0,))
            )
        ],
        budget_us_per_query=budget,
    )


def _cascade_counts(registry):
    """Every ``cascade.*`` series except measured time, by key."""
    counts = {}
    for (name, labels), metric in registry.items():
        if not name.startswith("cascade.") or name == "cascade.stage_us":
            continue
        snap = metric.snapshot()
        counts[(name, labels)] = (
            (snap["count"], snap["sum"]) if "count" in snap else snap["value"]
        )
    return counts


class TestCoalescedCascade:
    """A coalesced batch reaches the cascade in one call and is scored
    stage by stage, bit-identically to one call per request."""

    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(
        data=st.data(),
        rows=st.lists(
            st.one_of(
                st.just(0), st.just(1), st.integers(2, 40),
                st.integers(129, 260),
            ),
            min_size=1,
            max_size=6,
        ),
        keeps=st.tuples(
            st.sampled_from((0.3, 0.5, 1.0)), st.sampled_from((0.3, 0.5, 1.0))
        ),
        budget=st.one_of(st.none(), st.floats(5.0, 900.0)),
    )
    @settings(max_examples=40, deadline=None)
    def test_engine_batch_equals_per_request(self, data, rows, keeps, budget):
        from repro import obs
        from repro.runtime import BatchEngine

        rng = np.random.default_rng(
            data.draw(self.st.integers(0, 2**32 - 1), label="seed")
        )
        requests = [rng.normal(size=(n, 4)) for n in rows]
        engine = BatchEngine(make_scorer(_row_cascade(keeps, budget)))
        counts = []
        for mode in ("coalesced", "per-request"):
            previous = obs.set_registry(obs.MetricsRegistry())
            try:
                if mode == "coalesced":
                    got = engine.score_coalesced(requests)
                else:
                    want = [engine.score(x) for x in requests]
                counts.append(_cascade_counts(obs.get_registry()))
            finally:
                obs.set_registry(previous)
        for mine, theirs in zip(got, want):
            np.testing.assert_array_equal(mine, theirs)
        assert counts[0] == counts[1]

    def test_one_stack_call_per_batch(self, probe_models, roles):
        from repro.runtime import ParallelConfig, ResilienceConfig, StubScorer

        service = ScoringService(
            roles,
            ServiceConfig(
                pipeline=PipelineConfig(stages=list(THREE_STAGES)),
                max_batch_size=None,
                resilience=ResilienceConfig(fallback_models=(StubScorer(),)),
                parallel=ParallelConfig(workers=1),
            ),
        )
        assert service.engine.scorer.coalescable
        calls = []
        adapter = service.versioned.active_stack().inner
        inner = adapter.score
        adapter.score = lambda x: calls.append(len(x)) or inner(x)
        dataset = probe_models["dataset"]
        requests = [
            dataset.features[dataset.query_slice(q)]
            for q in range(dataset.n_queries)
        ]
        got = service.engine.score_coalesced(requests)
        assert calls == [sum(len(x) for x in requests)]
        for x, scores in zip(requests, got):
            np.testing.assert_array_equal(
                scores, service.pipeline.score_query(x)
            )
        service.close()

    def test_other_non_batchable_scorers_get_one_call_per_request(self):
        from repro.runtime import BatchEngine
        from repro.runtime.base import request_rows

        class WholeRequest:
            backend = "whole"
            batchable = False
            input_dim = None
            predicted_us_per_doc = 1.0

            def __init__(self):
                self.calls = []

            def score(self, x):
                self.calls.append((len(x), request_rows(len(x))))
                return x[:, 0] - x[:, 0].mean()

            def describe(self):
                return "whole-request ranker"

        scorer = WholeRequest()
        engine = BatchEngine(scorer)
        rng = np.random.default_rng(0)
        requests = [rng.normal(size=(n, 3)) for n in (4, 0, 7)]
        got = engine.score_coalesced(requests)
        assert [n for n, _ in scorer.calls] == [4, 7]
        assert all(rows is None for _, rows in scorer.calls)
        for x, scores in zip(requests, got):
            np.testing.assert_array_equal(
                scores, x[:, 0] - x[:, 0].mean() if len(x) else np.zeros(0)
            )

    def test_nested_cascade_never_reads_the_outer_boundaries(self):
        from repro.design import CascadeStage, EarlyExitCascade
        from repro.runtime import BatchEngine
        from repro.runtime.base import current_pin, request_rows

        seen = []

        def watch(x):
            pin = current_pin()
            seen.append((len(x), request_rows(len(x)), pin and pin[1]))
            return x[:, 2] * 2.0

        inner = make_scorer(
            EarlyExitCascade(
                [
                    CascadeStage("watch", watch, 1.0, keep_fraction=0.5),
                    CascadeStage("last", lambda x: x[:, 3], 1.0),
                ]
            )
        )
        outer = EarlyExitCascade(
            [
                CascadeStage("first", lambda x: x[:, 1], 1.0, keep_fraction=0.5),
                CascadeStage("nested", inner.score, 1.0),
            ]
        )
        engine = BatchEngine(make_scorer(outer))
        rng = np.random.default_rng(1)
        requests = [rng.normal(size=(n, 4)) for n in (6, 10, 3)]
        got = engine.score_coalesced(requests)
        # The nested cascade is called once per query, with that query's
        # survivors, and never sees the outer call's boundaries.
        assert [n for n, _, _ in seen] == [3, 5, 2]
        assert all(rows is None and pinned is None for _, rows, pinned in seen)
        for x, scores in zip(requests, got):
            np.testing.assert_array_equal(scores, outer.score_query(x))

    def test_coalesced_peak_memory_is_bounded(self, roles):
        import tracemalloc

        service = self._pipeline_service(roles)
        rng = np.random.default_rng(5)
        requests = [rng.normal(size=(100, 136)) for _ in range(16)]
        batch_bytes = sum(x.nbytes for x in requests)
        service.engine.score_coalesced(requests)  # warm the plans
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            service.engine.score_coalesced(requests)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # Measured 1.63x the batch's feature bytes (2779 KiB for 16
        # queries of 100 docs): the engine's concatenation (1x), one
        # gather of stage 2's 40% survivors (0.4x), and the plans' and
        # cascade's own buffers.  A per-query copy or a second
        # concatenation adds another 1x.
        assert peak <= 1.75 * batch_bytes, peak / batch_bytes

    @staticmethod
    def _pipeline_service(roles, **config):
        return ScoringService(
            roles,
            ServiceConfig(
                pipeline=PipelineConfig(stages=list(THREE_STAGES), **config),
                max_batch_size=None,
            ),
        )

    def test_each_request_gets_its_own_stage_timeline(
        self, probe_models, roles, obs_clean
    ):
        from repro.obs.requests import RequestContext

        service = self._pipeline_service(roles)
        dataset = probe_models["dataset"]
        requests = [
            dataset.features[dataset.query_slice(q)] for q in range(3)
        ]
        contexts = [
            RequestContext(
                "web", n_docs=len(requests[i]), created_s=0.0, trace_id=f"t{i}"
            )
            for i in (0, 2)
        ]
        service.engine.score_coalesced(
            requests, request_contexts=[contexts[0], None, contexts[1]]
        )
        total = sum(len(x) for x in requests)
        for ctx, x in zip(contexts, (requests[0], requests[2])):
            stages = [s for s in ctx.stages if s.name.startswith("cascade:")]
            assert [s.name for s in stages] == [
                "cascade:pruned",
                "cascade:student",
                "cascade:forest",
            ]
            first = stages[0]
            assert first.attrs["docs"] == len(x)
            assert first.attrs["batch_docs"] == total
            assert first.attrs["share_us"] == pytest.approx(
                first.duration_us * len(x) / total, abs=1e-3
            )
            assert ctx.attrs["cascade_stages"] == 3
