"""Tests for repro.quickscorer.scorer — traversal correctness."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import make_msn30k_like
from repro.forest import (
    FeatureBinner,
    GradientBoostingConfig,
    LambdaMartRanker,
    TreeEnsemble,
)
from repro.quickscorer import QuickScorer
from repro.quickscorer.scorer import _lowest_set_bit_position
from tests.test_property_quickscorer import random_tree


class TestLowestSetBit:
    def test_single_word(self):
        words = np.asarray([[0b1000]], dtype=np.uint64)
        assert _lowest_set_bit_position(words).tolist() == [3]

    def test_second_word(self):
        words = np.asarray([[0, 0b10]], dtype=np.uint64)
        assert _lowest_set_bit_position(words).tolist() == [65]

    def test_high_bit(self):
        words = np.asarray([[1 << 63]], dtype=np.uint64)
        assert _lowest_set_bit_position(words).tolist() == [63]

    def test_empty_raises(self):
        words = np.asarray([[0]], dtype=np.uint64)
        with pytest.raises(RuntimeError):
            _lowest_set_bit_position(words)

    @given(st.integers(0, 127))
    @settings(max_examples=50, deadline=None)
    def test_matches_python_bit_length(self, position):
        words = np.zeros((1, 2), dtype=np.uint64)
        w, b = divmod(position, 64)
        words[0, w] = np.uint64(1) << np.uint64(b)
        # Add noise above the lowest bit.
        if position < 127:
            wn, bn = divmod(127, 64)
            words[0, wn] |= np.uint64(1) << np.uint64(bn)
        assert _lowest_set_bit_position(words)[0] == position


class TestScoringCorrectness:
    def test_matches_ensemble_exactly(self, small_forest, tiny_dataset):
        qs = QuickScorer(small_forest)
        x = tiny_dataset.features[:200]
        np.testing.assert_allclose(
            qs.score(x), small_forest.predict(x), atol=1e-10
        )

    def test_boundary_values_at_thresholds(self, small_forest):
        # Documents placed exactly on split thresholds exercise the <=
        # convention on both paths.
        points = small_forest.split_points()
        x = np.zeros((5, small_forest.n_features))
        for f, pts in enumerate(points):
            if len(pts):
                x[:, f] = pts[0]
        qs = QuickScorer(small_forest)
        np.testing.assert_allclose(qs.score(x), small_forest.predict(x))

    def test_batching_equivalent(self, small_forest, tiny_dataset):
        # ShardedScorer and ScoreCache rely on a row's score not
        # depending on the rows scored with it; 3000 rows also span
        # more than one internal block.
        rng = np.random.default_rng(7)
        x = tiny_dataset.features[rng.integers(0, len(tiny_dataset.features), 3000)]
        qs = QuickScorer(small_forest)
        alone = np.concatenate([qs.score(row[None]) for row in x])
        for batch in (7, 256, 3000):
            batched = np.concatenate(
                [qs.score(x[i : i + batch]) for i in range(0, len(x), batch)]
            )
            np.testing.assert_array_equal(batched, alone)

    def test_multi_word_forest(self):
        # Forest whose trees exceed 64 leaves: multi-word bitvectors.
        data = make_msn30k_like(n_queries=60, docs_per_query=25, seed=33)
        config = GradientBoostingConfig(
            n_trees=5, max_leaves=100, learning_rate=0.2, min_data_in_leaf=2
        )
        forest = LambdaMartRanker(config, seed=0).fit(data)
        assert forest.max_leaves > 64
        qs = QuickScorer(forest)
        x = data.features[:100]
        np.testing.assert_allclose(qs.score(x), forest.predict(x), atol=1e-10)

    def test_forest_of_single_leaf_trees(self):
        stump = random_tree(np.random.default_rng(0), 3, 0)
        forest = TreeEnsemble(
            trees=[stump, stump], weights=np.array([0.5, 0.25]),
            base_score=1.0, n_features=3,
        )
        qs = QuickScorer(forest)
        x = np.array([[0.0, np.nan, 1.0], [np.inf, -np.inf, 0.5]])
        np.testing.assert_array_equal(qs.score(x), forest.predict(x))
        assert qs.last_stats.false_nodes_total == 0
        assert qs.last_stats.thresholds_examined_total == 0

    def test_feature_count_validated(self, small_forest):
        with pytest.raises(ValueError, match="expected"):
            QuickScorer(small_forest).score(np.zeros((2, 3)))

    def test_memory_bounded_by_blocks(self):
        # 20,000 docs x 992 nodes would be ~150 MB per docs x nodes
        # array; blocking keeps the working set near 1 MB whatever the
        # number of documents.
        rng = np.random.default_rng(0)
        trees = [random_tree(rng, 20, 5, leaf_prob=0.0) for _ in range(32)]
        forest = TreeEnsemble(
            trees=trees, weights=np.full(32, 0.1), base_score=0.0, n_features=20
        )
        qs = QuickScorer(forest)
        assert qs.encoded.total_internal_nodes == 992
        x = rng.uniform(size=(20_000, 20))
        tracemalloc.start()
        try:
            scores = qs.score(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - scores.nbytes < 2 * 2**20


class TestTraversalStats:
    def test_stats_recorded(self, small_forest, tiny_dataset):
        qs = QuickScorer(small_forest)
        qs.score(tiny_dataset.features[:50])
        stats = qs.last_stats
        assert stats.n_docs == 50
        assert stats.n_trees == small_forest.n_trees
        assert stats.false_nodes_total > 0

    def test_false_fraction_below_classical(self, small_forest, tiny_dataset):
        # QuickScorer's headline: far fewer nodes touched than the ~80%
        # of classical traversal.
        qs = QuickScorer(small_forest)
        qs.score(tiny_dataset.features[:200])
        assert 0.0 < qs.last_stats.false_node_fraction < 0.8

    def test_fraction_bounded_by_touched(self, small_forest, tiny_dataset):
        qs = QuickScorer(small_forest)
        qs.score(tiny_dataset.features[:50])
        stats = qs.last_stats
        assert stats.false_node_fraction <= stats.nodes_touched_fraction <= 1.0

    def test_per_doc_average(self, small_forest, tiny_dataset):
        qs = QuickScorer(small_forest)
        qs.score(tiny_dataset.features[:10])
        stats = qs.last_stats
        assert stats.false_nodes_per_doc == pytest.approx(
            stats.false_nodes_total / 10
        )
