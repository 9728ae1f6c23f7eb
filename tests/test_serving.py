"""Tests for repro.serving (the scoring-service wrapper)."""

import numpy as np
import pytest

from repro.serving import BudgetExceededError, ScoringService


class TestForestService:
    def test_scores_match_ensemble(self, small_forest, tiny_dataset):
        service = ScoringService(small_forest)
        x = tiny_dataset.features[:50]
        np.testing.assert_allclose(
            service.score(x), small_forest.predict(x), atol=1e-10
        )

    def test_predicted_cost_from_quickscorer_model(self, small_forest):
        from repro.quickscorer import QuickScorerCostModel

        service = ScoringService(small_forest)
        expected = QuickScorerCostModel().scoring_time_for(small_forest)
        assert service.stats.predicted_us_per_doc == pytest.approx(expected)

    def test_budget_enforced(self, small_forest):
        with pytest.raises(BudgetExceededError):
            ScoringService(small_forest, budget_us_per_doc=0.0001)

    def test_budget_accepts_cheap_model(self, small_forest):
        service = ScoringService(small_forest, budget_us_per_doc=100.0)
        assert service.budget_us_per_doc == 100.0


class TestStudentService:
    def test_dense_student_priced_dense(self, small_student, predictor_cache):
        """A served student is priced by its compiled plan's kernels; the
        paper's dense price is the analytic shape's."""
        from repro.runtime import (
            PricingContext,
            make_scorer,
            price,
            student_shape,
        )

        service = ScoringService(small_student, predictor=predictor_cache)
        context = PricingContext(predictor=predictor_cache)
        plan = make_scorer(small_student, context=context).plan
        assert service.stats.predicted_us_per_doc == pytest.approx(
            plan.predicted_us_per_doc
        )
        report = predictor_cache.predict(
            small_student.input_dim, small_student.hidden
        )
        assert price(
            student_shape(small_student, sparse=False), context=context
        ) == pytest.approx(report.dense_total_us_per_doc)

    def test_scores_match_student(
        self, small_student, tiny_dataset, predictor_cache
    ):
        service = ScoringService(small_student, predictor=predictor_cache)
        x = tiny_dataset.features[:40]
        np.testing.assert_allclose(
            service.score(x), small_student.predict(x)
        )

    def test_pruned_student_priced_hybrid(
        self, small_student, predictor_cache
    ):
        from repro.pruning import LevelPruner
        from repro.runtime import PricingContext, price, student_shape

        pruned = small_student.clone()
        LevelPruner(0.95).apply(pruned.network.first_layer)
        context = PricingContext(predictor=predictor_cache)
        assert price(
            student_shape(pruned, sparse=True), context=context
        ) < price(student_shape(small_student, sparse=False), context=context)
        sparse_service = ScoringService(pruned, predictor=predictor_cache)
        assert sparse_service.stats.predicted_us_per_doc > 0.0


class TestServiceOperations:
    def test_stats_accumulate(self, small_forest, tiny_dataset):
        service = ScoringService(small_forest)
        service.score(tiny_dataset.features[:10])
        service.score(tiny_dataset.features[:20])
        assert service.stats.requests == 2
        assert service.stats.documents == 30
        assert service.stats.mean_docs_per_request == pytest.approx(15.0)
        assert service.stats.wall_seconds > 0

    def test_rank_descending(self, small_forest, tiny_dataset):
        service = ScoringService(small_forest)
        x = tiny_dataset.features[:15]
        order = service.rank(x)
        scores = small_forest.predict(x)
        assert list(scores[order]) == sorted(scores, reverse=True)

    def test_top_k(self, small_forest, tiny_dataset):
        service = ScoringService(small_forest)
        x = tiny_dataset.features[:15]
        top = service.top_k(x, 3)
        assert len(top) == 3
        scores = small_forest.predict(x)
        assert set(top) == set(np.argsort(-scores)[:3])

    def test_top_k_invalid(self, small_forest, tiny_dataset):
        service = ScoringService(small_forest)
        with pytest.raises(ValueError):
            service.top_k(tiny_dataset.features[:5], 0)

    def test_unsupported_model_type(self):
        with pytest.raises(TypeError, match="unsupported model"):
            ScoringService(object())

    def test_service_over_persisted_student(
        self, small_student, tiny_dataset, predictor_cache, tmp_path
    ):
        # Persistence + serving integration: a student loaded from disk
        # serves identical scores.
        from repro.distill import DistilledStudent

        path = tmp_path / "student.json"
        small_student.save(path)
        service = ScoringService(
            DistilledStudent.load(path), predictor=predictor_cache
        )
        x = tiny_dataset.features[:25]
        np.testing.assert_allclose(
            service.score(x), small_student.predict(x), atol=1e-12
        )
