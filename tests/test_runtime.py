"""Tests for repro.runtime — registry, pricing, and batched execution."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.design.cascade import CascadeStage, EarlyExitCascade
from repro.runtime import (
    BatchEngine,
    BudgetExceededError,
    ForestShape,
    NetworkShape,
    PricingContext,
    ScorerBackend,
    UnknownBackendError,
    backend_names,
    get_backend,
    is_scorer,
    make_scorer,
    price,
    register_backend,
    student_shape,
    unregister_backend,
)
from repro.serving import ScoringService


@pytest.fixture(scope="module")
def context(predictor_cache, dense_timer):
    """One pricing context over the session-calibrated predictor, with
    ``dense-gemm`` winning every measured layer."""
    return PricingContext(predictor=predictor_cache, timer=dense_timer)


@pytest.fixture(scope="module")
def sparse_student(small_student):
    """``small_student`` with most of its first layer zeroed."""
    student = small_student.clone()
    w = student.network.first_layer.weight.data
    rng = np.random.default_rng(0)
    w[rng.random(w.shape) < 0.9] = 0.0
    assert student.first_layer_sparsity() > 0.5
    return student


@pytest.fixture(scope="module")
def features(tiny_splits):
    return tiny_splits[2].features[:300]


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_round_trip_every_backend(
        self, small_forest, small_student, sparse_student, context, features
    ):
        """Each built-in backend builds, scores, and prices via its name."""
        cascade = EarlyExitCascade(
            [CascadeStage("stub", lambda x: np.asarray(x)[:, 0], 0.5)]
        )
        models = {
            "quickscorer": (small_forest, {}),
            "quickscorer-gpu": (small_forest, {}),
            "cascade": (cascade, {}),
            "compiled-network": (sparse_student, {}),
        }
        assert set(models) == set(backend_names())
        for name, (model, opts) in models.items():
            assert get_backend(name).name == name
            scorer = make_scorer(model, backend=name, context=context, **opts)
            assert is_scorer(scorer)
            assert scorer.backend == name
            scores = scorer.score(features)
            assert scores.shape == (len(features),)
            assert scorer.predicted_us_per_doc > 0.0

    def test_auto_dispatch(
        self, small_forest, small_student, sparse_student, context
    ):
        assert (
            make_scorer(small_forest, context=context).backend == "quickscorer"
        )
        for student in (small_student, sparse_student):
            assert (
                make_scorer(student, context=context).backend
                == "compiled-network"
            )
        assert (
            make_scorer(small_forest, context=context, device="gpu").backend
            == "quickscorer-gpu"
        )
        int8 = make_scorer(small_student, context=context, quantize="int8")
        assert int8.backend == "compiled-network"

    def test_unknown_model_type_raises(self, context):
        with pytest.raises(TypeError, match="unsupported model"):
            make_scorer(object(), context=context)
        with pytest.raises(TypeError, match="unsupported model"):
            make_scorer(np.zeros(3), context=context)

    def test_unknown_backend_name_raises(self, small_forest, context):
        with pytest.raises(UnknownBackendError, match="no-such"):
            make_scorer(small_forest, backend="no-such", context=context)
        with pytest.raises(UnknownBackendError):
            get_backend("no-such")
        with pytest.raises(UnknownBackendError):
            unregister_backend("no-such")

    def test_plugin_backend_wins_dispatch_then_unregisters(
        self, small_forest, context
    ):
        """A later registration shadows built-ins without touching them."""

        class Sentinel:
            def __init__(self, value):
                self.value = value

        built = make_scorer(small_forest, context=context)

        def build(model, ctx, **opts):
            class _Stub:
                backend = "stub"
                batchable = True
                input_dim = None
                predicted_us_per_doc = 0.01

                def score(self, x):
                    return np.full(len(x), model.value, dtype=np.float64)

                def describe(self):
                    return "stub scorer"

            return _Stub()

        register_backend(
            ScorerBackend(
                name="stub",
                matches=lambda m, o: isinstance(m, Sentinel),
                build=build,
                description="test stub",
            )
        )
        try:
            scorer = make_scorer(Sentinel(4.0), context=context)
            assert scorer.backend == "stub"
            np.testing.assert_array_equal(
                scorer.score(np.zeros((3, 2))), np.full(3, 4.0)
            )
            # Built-ins keep working while the plug-in is installed.
            assert (
                make_scorer(small_forest, context=context).backend
                == built.backend
            )
            with pytest.raises(ValueError, match="already registered"):
                register_backend(get_backend("stub"))
        finally:
            unregister_backend("stub")
        assert "stub" not in backend_names()


# ----------------------------------------------------------------------
# Pricing
# ----------------------------------------------------------------------
class TestPrice:
    def test_forest_price_matches_cost_model(self, small_forest, context):
        expected = context.qs_cost.scoring_time_for(small_forest)
        assert price(small_forest, context=context) == expected

    def test_forest_shape_and_duck_typed_spec(self, context):
        shape_us = price(ForestShape(878, 64), context=context)
        assert shape_us == context.qs_cost.scoring_time_us(878, 64)

        class SpecLike:
            n_trees = 878
            n_leaves = 64

        assert price(SpecLike(), context=context) == shape_us

    def test_network_shapes(self, context):
        dense = price(NetworkShape(136, (100, 50)), context=context)
        hybrid = price(
            NetworkShape(136, (100, 50), first_layer_sparsity=0.98),
            context=context,
        )
        int8 = price(
            NetworkShape(136, (100, 50), bits=8), context=context
        )
        assert 0.0 < hybrid < dense
        assert 0.0 < int8 < dense

    def test_student_prices_match_legacy_blocks(
        self, small_student, sparse_student, context, predictor_cache
    ):
        """The unified prices equal the predictors' direct answers."""
        from repro.matmul import CsrMatrix

        dense_us = price(
            student_shape(small_student, sparse=False), context=context
        )
        report = predictor_cache.predict(
            small_student.input_dim, small_student.hidden
        )
        assert dense_us == float(report.dense_total_us_per_doc)

        sparse_us = price(
            student_shape(sparse_student, sparse=True), context=context
        )
        first = CsrMatrix.from_dense(
            sparse_student.network.first_layer.weight.data
        )
        report = predictor_cache.predict(
            sparse_student.input_dim,
            sparse_student.hidden,
            first_layer_matrix=first,
        )
        assert sparse_us == float(report.hybrid_total_us_per_doc)

    def test_gpu_price_differs_from_cpu(self, small_forest, context):
        cpu = price(small_forest, context=context)
        gpu = price(small_forest, context=context, device="gpu")
        assert gpu != cpu and gpu > 0.0


# ----------------------------------------------------------------------
# BatchEngine + ScoringService
# ----------------------------------------------------------------------
class TestBatchEngine:
    def test_budget_rejects_slow_sparse_student(self, sparse_student, context):
        """ISSUE satellite: budget rejection flows through shared pricing."""
        predicted = price(sparse_student, context=context)
        with pytest.raises(BudgetExceededError, match="exceeds"):
            ScoringService(
                sparse_student,
                budget_us_per_doc=predicted / 2,
                context=context,
            )
        service = ScoringService(
            sparse_student, budget_us_per_doc=predicted * 2, context=context
        )
        assert service.scorer.backend == "compiled-network"
        assert service.stats.predicted_us_per_doc == predicted

    def test_invalid_batch_size(self, small_forest, context):
        scorer = make_scorer(small_forest, context=context)
        with pytest.raises(ValueError, match="max_batch_size"):
            BatchEngine(scorer, max_batch_size=0)

    def test_stats_percentiles(self, small_forest, context, features):
        engine = BatchEngine(
            make_scorer(small_forest, context=context), max_batch_size=64
        )
        for lo in range(0, 280, 40):
            engine.score(features[lo : lo + 40])
        stats = engine.stats
        assert stats.requests == 7
        assert stats.documents == 280
        assert stats.mean_docs_per_request == pytest.approx(40.0)
        summary = stats.latency_summary()
        assert (
            0.0
            < summary["p50_us"]
            <= summary["p95_us"]
            <= summary["p99_us"]
        )
        assert stats.wall_seconds > 0.0

    def test_top_k_matches_full_argsort(self, small_forest, context, features):
        engine = BatchEngine(make_scorer(small_forest, context=context))
        scores = engine.scorer.score(features)
        full = np.argsort(-scores, kind="stable")
        for k in (1, 5, len(features) // 2, len(features), len(features) + 10):
            np.testing.assert_array_equal(
                engine.top_k(features, k), full[:k]
            )
        with pytest.raises(ValueError, match="k must be positive"):
            engine.top_k(features, 0)

    def test_cascade_served_whole(self, small_forest, context, features):
        """Non-batchable scorers receive each request in one piece."""
        cascade = EarlyExitCascade(
            [
                CascadeStage(
                    "forest",
                    make_scorer(small_forest, context=context).score,
                    1.0,
                    keep_fraction=0.3,
                ),
                CascadeStage("copy", lambda x: np.asarray(x)[:, 0], 0.1),
            ]
        )
        engine = BatchEngine(
            make_scorer(cascade, context=context), max_batch_size=7
        )
        np.testing.assert_array_equal(
            engine.score(features), cascade.score_query(features)
        )


class TestBatchInvariance:
    """ISSUE acceptance: batched == unbatched, bit for bit."""

    @settings(max_examples=25, deadline=None)
    @given(batch=st.integers(min_value=1, max_value=310))
    def test_network_scores_bit_identical(
        self, batch, small_student, context, features
    ):
        scorer = make_scorer(small_student, context=context)
        engine = BatchEngine(scorer, max_batch_size=batch)
        np.testing.assert_array_equal(
            engine.score(features), scorer.score(features)
        )

    @settings(max_examples=25, deadline=None)
    @given(batch=st.integers(min_value=1, max_value=310))
    def test_forest_scores_bit_identical(
        self, batch, small_forest, context, features
    ):
        scorer = make_scorer(small_forest, context=context)
        engine = BatchEngine(scorer, max_batch_size=batch)
        np.testing.assert_array_equal(
            engine.score(features), scorer.score(features)
        )

    @settings(max_examples=10, deadline=None)
    @given(batch=st.integers(min_value=1, max_value=310))
    def test_sparse_scores_bit_identical(
        self, batch, sparse_student, context, features
    ):
        scorer = make_scorer(sparse_student, context=context)
        engine = BatchEngine(scorer, max_batch_size=batch)
        np.testing.assert_array_equal(
            engine.score(features), scorer.score(features)
        )

    def test_none_batch_size_disables_splitting(
        self, small_student, context, features
    ):
        scorer = make_scorer(small_student, context=context)
        engine = BatchEngine(scorer, max_batch_size=None)
        np.testing.assert_array_equal(
            engine.score(features), scorer.score(features)
        )

    def test_runtime_scores_match_model_predict(
        self, small_student, context, features
    ):
        """The stable plan agrees with the network's own forward pass."""
        scorer = make_scorer(small_student, context=context)
        np.testing.assert_allclose(
            scorer.score(features),
            small_student.predict(features),
            rtol=1e-9,
            atol=1e-12,
        )
