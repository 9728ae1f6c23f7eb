"""Regression tests for the three admission/execution bugfixes.

* a NaN-priced scorer must not pass a finite budget check
  (``nan > budget`` is ``False``, so the old code admitted it);
* zero-document requests are legal no-ops instead of ``ValueError``;
* ``top_k(x, k)`` equals ``rank(x)[:k]`` bit for bit under tied scores.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import (
    BatchEngine,
    BudgetExceededError,
    PricingContext,
    ServiceStats,
    StubScorer,
    make_scorer,
)
from repro.serving import ScoringService, ServiceConfig


class PricedStub(StubScorer):
    """A stub whose predicted price is directly controllable."""

    def __init__(self, price, **kwargs):
        super().__init__(**kwargs)
        self._forced_price = price

    @property
    def predicted_us_per_doc(self):
        return self._forced_price


class TestNanPriceAdmission:
    def test_nan_price_rejected_under_finite_budget(self):
        with pytest.raises(BudgetExceededError, match="non-finite"):
            BatchEngine(PricedStub(float("nan")), budget_us_per_doc=10.0)

    def test_inf_price_rejected_under_finite_budget(self):
        with pytest.raises(BudgetExceededError, match="non-finite"):
            BatchEngine(PricedStub(float("inf")), budget_us_per_doc=10.0)

    def test_allow_unpriced_is_an_explicit_escape_hatch(self):
        engine = BatchEngine(
            PricedStub(float("nan")),
            budget_us_per_doc=10.0,
            allow_unpriced=True,
        )
        assert engine.allow_unpriced is True

    def test_nan_price_fine_without_budget(self):
        engine = BatchEngine(PricedStub(float("nan")))
        assert np.isnan(engine.stats.predicted_us_per_doc)

    def test_finite_price_still_checked(self):
        with pytest.raises(BudgetExceededError):
            BatchEngine(PricedStub(50.0), budget_us_per_doc=10.0)
        BatchEngine(PricedStub(5.0), budget_us_per_doc=10.0)

    @pytest.mark.parametrize("budget", [float("nan"), float("inf"), 0.0, -1.0])
    def test_budget_itself_must_be_finite_positive(self, budget):
        with pytest.raises(ValueError, match="budget_us_per_doc"):
            BatchEngine(PricedStub(5.0), budget_us_per_doc=budget)

    def test_service_forwards_allow_unpriced(self):
        with pytest.raises(BudgetExceededError):
            ScoringService(PricedStub(float("nan")), budget_us_per_doc=10.0)
        service = ScoringService(
            PricedStub(float("nan")),
            ServiceConfig(budget_us_per_doc=10.0, allow_unpriced=True),
        )
        assert service.budget_us_per_doc == 10.0


class TestZeroDocumentRequests:
    def test_engine_score_empty(self):
        engine = BatchEngine(StubScorer(weights=[1.0, 2.0]))
        scores = engine.score(np.empty((0, 2)))
        assert scores.shape == (0,)
        assert scores.dtype == np.float64

    def test_empty_request_does_not_touch_stats(self):
        engine = BatchEngine(StubScorer(weights=[1.0, 2.0]))
        engine.score(np.empty((0, 2)))
        assert engine.stats.requests == 0
        assert engine.stats.documents == 0
        assert engine.stats.wall_seconds == 0.0

    def test_rank_and_top_k_empty(self):
        engine = BatchEngine(StubScorer(weights=[1.0]))
        assert engine.rank(np.empty((0, 1))).shape == (0,)
        assert engine.top_k(np.empty((0, 1)), 3).shape == (0,)

    def test_service_empty_request(self, small_forest):
        service = ScoringService(small_forest)
        scores = service.score(np.empty((0, small_forest.n_features)))
        assert scores.shape == (0,)
        assert service.stats.requests == 0

    @pytest.mark.parametrize(
        "opts",
        [{}, {"quantize": "int8"}, {"plan_dtype": "float32"},
         {"stable": False}],
        ids=["dense-network", "quantized-network", "compiled-float32",
             "compiled-native"],
    )
    def test_network_adapters_score_zero_docs(
        self, small_student, predictor_cache, dense_timer, opts
    ):
        scorer = make_scorer(
            small_student,
            context=PricingContext(
                predictor=predictor_cache, timer=dense_timer
            ),
            **opts,
        )
        dim = small_student.input_dim
        scores = scorer.score(np.empty((0, dim)))
        assert scores.shape == (0,)
        assert scores.dtype == np.float64
        with pytest.raises(ValueError, match="features"):
            scorer.score(np.empty((0, dim + 1)))

    @pytest.mark.parametrize("backend", ["quickscorer", "quickscorer-gpu"])
    def test_forest_adapters_score_zero_docs(
        self, small_forest, predictor_cache, backend
    ):
        scorer = make_scorer(
            small_forest,
            backend=backend,
            context=PricingContext(predictor=predictor_cache),
        )
        dim = small_forest.n_features
        scores = scorer.score(np.empty((0, dim)))
        assert scores.shape == (0,)
        assert scores.dtype == np.float64
        with pytest.raises(ValueError, match="features"):
            scorer.score(np.empty((0, dim + 1)))

    def test_stats_still_reject_zero_docs_directly(self):
        stats = ServiceStats()
        with pytest.raises(Exception, match="at least one document"):
            stats.record(0, 0.001)

    def test_non_2d_still_rejected(self):
        engine = BatchEngine(StubScorer(weights=[1.0]))
        with pytest.raises(ValueError, match="2-dimensional"):
            engine.score(np.zeros(3))


class TestTopKTieOrder:
    def engine(self):
        return BatchEngine(StubScorer(weights=[1.0]))

    def test_boundary_ties_resolve_to_lowest_index(self):
        # scores [1, 0, 1, 1, 0]: a 2-of-3 tie straddles the k=2 cut.
        x = np.array([[1.0], [0.0], [1.0], [1.0], [0.0]])
        engine = self.engine()
        assert engine.top_k(x, 2).tolist() == [0, 2]
        assert engine.top_k(x, 1).tolist() == [0]
        assert engine.top_k(x, 4).tolist() == [0, 2, 3, 1]

    def test_all_tied(self):
        x = np.ones((6, 1))
        engine = self.engine()
        for k in range(1, 7):
            assert engine.top_k(x, k).tolist() == list(range(k))

    @given(
        scores=st.lists(
            st.integers(min_value=0, max_value=3), min_size=1, max_size=40
        ),
        k=st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_top_k_equals_rank_prefix(self, scores, k):
        """The satellite guarantee: top_k(x, k) == rank(x)[:k] always."""
        x = np.asarray(scores, dtype=np.float64).reshape(-1, 1)
        engine = self.engine()
        k = min(k, len(scores))
        np.testing.assert_array_equal(
            engine.top_k(x, k), engine.rank(x)[:k]
        )
