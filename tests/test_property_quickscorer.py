"""Property-based tests: QuickScorer equals direct traversal on random forests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.forest import TreeEnsemble
from repro.forest.tree import NO_CHILD, RegressionTree
from repro.quickscorer import QuickScorer


def random_tree(
    rng: np.random.Generator, n_features: int, max_depth: int, leaf_prob: float = 0.3
) -> RegressionTree:
    """Grow a random binary tree by recursive splitting.

    ``max_depth=0`` gives a single-leaf tree; ``leaf_prob=0`` a full one.
    """
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[float] = []

    def grow(depth: int) -> int:
        node = len(feature)
        feature.append(-1)
        threshold.append(np.nan)
        left.append(NO_CHILD)
        right.append(NO_CHILD)
        value.append(0.0)
        if depth >= max_depth or rng.random() < leaf_prob:
            value[node] = float(rng.normal())
            return node
        feature[node] = int(rng.integers(0, n_features))
        threshold[node] = float(rng.uniform(0.1, 0.9))
        left[node] = grow(depth + 1)
        right[node] = grow(depth + 1)
        return node

    grow(0)
    return RegressionTree(
        feature=np.asarray(feature),
        threshold=np.asarray(threshold),
        left=np.asarray(left),
        right=np.asarray(right),
        value=np.asarray(value),
    )


def random_forest(seed: int, n_trees: int, n_features: int, max_depth: int) -> TreeEnsemble:
    rng = np.random.default_rng(seed)
    trees = [random_tree(rng, n_features, max_depth) for _ in range(n_trees)]
    return TreeEnsemble(
        trees=trees,
        weights=rng.uniform(0.05, 0.3, size=n_trees),
        base_score=float(rng.normal()),
        n_features=n_features,
    )


def scan_stats(forest: TreeEnsemble, x: np.ndarray) -> tuple[int, int]:
    """(false, examined) node counts of the per-feature early-exit scan.

    Each feature's thresholds are scanned in ascending order while
    ``x[f] > threshold``: the false nodes are the thresholds sorting
    before ``x[f]`` (all of them for NaN), plus one stopping test unless
    the whole list was false.
    """
    lists: dict[int, list[float]] = {}
    for tree in forest.trees:
        for node in tree.internal_nodes():
            lists.setdefault(int(tree.feature[node]), []).append(tree.threshold[node])
    false = examined = 0
    for f, thresholds in lists.items():
        counts = np.searchsorted(np.sort(thresholds), x[:, f], side="left")
        false += int(counts.sum())
        examined += int(np.minimum(counts + 1, len(thresholds)).sum())
    return false, examined


def assert_scores_and_stats(forest: TreeEnsemble, x: np.ndarray) -> None:
    qs = QuickScorer(forest)
    np.testing.assert_allclose(qs.score(x), forest.predict(x), atol=1e-10)
    stats = qs.last_stats
    assert (stats.false_nodes_total, stats.thresholds_examined_total) == scan_stats(
        forest, x
    )


class TestQuickScorerProperty:
    @given(
        seed=st.integers(0, 10_000),
        n_trees=st.integers(1, 8),
        n_features=st.integers(1, 6),
        max_depth=st.integers(1, 6),
    )
    @settings(max_examples=40, deadline=None)
    def test_quickscorer_equals_traversal(self, seed, n_trees, n_features, max_depth):
        forest = random_forest(seed, n_trees, n_features, max_depth)
        rng = np.random.default_rng(seed + 1)
        x = rng.uniform(-0.2, 1.2, size=(30, n_features))
        assert_scores_and_stats(forest, x)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_values_exactly_on_thresholds(self, seed):
        # Boundary semantics: x == threshold goes left everywhere.
        forest = random_forest(seed, n_trees=4, n_features=3, max_depth=4)
        thresholds = [
            t for tree in forest.trees
            for t in tree.threshold[~np.isnan(tree.threshold)]
        ]
        if not thresholds:
            return
        x = np.full((len(thresholds), 3), thresholds[0])
        for i, t in enumerate(thresholds):
            x[i, :] = t
        assert_scores_and_stats(forest, x)

    @given(seed=st.integers(0, 5_000), deep=st.integers(7, 9))
    @settings(max_examples=10, deadline=None)
    def test_deep_trees_multiword(self, seed, deep):
        # Depth 7-9 trees can exceed 64 leaves -> multi-word bitvectors.
        forest = random_forest(seed, n_trees=2, n_features=4, max_depth=deep)
        rng = np.random.default_rng(seed)
        x = rng.uniform(size=(20, 4))
        assert_scores_and_stats(forest, x)

    @given(seed=st.integers(0, 10_000), n_features=st.integers(1, 5))
    @settings(max_examples=25, deadline=None)
    def test_edge_values_on_mixed_forest(self, seed, n_features):
        # Single-leaf trees (no internal node) between random and full
        # depth-7 trees (128 leaves: two bitvector words); inputs mix
        # NaN, +-inf and values exactly on a split threshold.
        rng = np.random.default_rng(seed)
        depths = rng.permutation([0, 0, 7, 3, 5])
        trees = [
            random_tree(rng, n_features, int(d), leaf_prob=0.0 if d == 7 else 0.3)
            for d in depths
        ]
        forest = TreeEnsemble(
            trees=trees,
            weights=rng.uniform(0.05, 0.3, size=len(trees)),
            base_score=float(rng.normal()),
            n_features=n_features,
        )
        thresholds = np.concatenate(
            [t.threshold[t.internal_nodes()] for t in forest.trees]
        )
        specials = np.concatenate([[np.nan, np.inf, -np.inf], thresholds])
        x = rng.uniform(-0.2, 1.2, size=(40, n_features))
        edge = rng.random(x.shape) < 0.5
        x[edge] = rng.choice(specials, size=int(edge.sum()))
        assert_scores_and_stats(forest, x)

    def test_stats_invariants_on_random_forest(self):
        forest = random_forest(3, n_trees=6, n_features=4, max_depth=5)
        x = np.random.default_rng(0).uniform(size=(64, 4))
        qs = QuickScorer(forest)
        qs.score(x)
        stats = qs.last_stats
        assert 0.0 <= stats.false_node_fraction <= 1.0
        assert stats.false_nodes_total <= 64 * stats.total_internal_nodes
        assert stats.nodes_touched_fraction <= 1.0 + 1e-9


class TestEnsembleProperty:
    @given(seed=st.integers(0, 5_000), cut=st.integers(1, 5))
    @settings(max_examples=20, deadline=None)
    def test_truncate_prefix_consistency(self, seed, cut):
        forest = random_forest(seed, n_trees=6, n_features=3, max_depth=4)
        rng = np.random.default_rng(seed)
        x = rng.uniform(size=(10, 3))
        sub = forest.truncate(cut)
        manual = np.full(10, forest.base_score)
        for tree, w in zip(forest.trees[:cut], forest.weights[:cut]):
            manual += w * tree.predict(x)
        np.testing.assert_allclose(sub.predict(x), manual, atol=1e-12)

    @given(seed=st.integers(0, 5_000))
    @settings(max_examples=20, deadline=None)
    def test_serialization_roundtrip(self, seed, tmp_path_factory):
        forest = random_forest(seed, n_trees=3, n_features=3, max_depth=4)
        path = tmp_path_factory.mktemp("forests") / f"f{seed}.json"
        forest.save(path)
        loaded = TreeEnsemble.load(path)
        rng = np.random.default_rng(seed)
        x = rng.uniform(size=(8, 3))
        np.testing.assert_allclose(loaded.predict(x), forest.predict(x))
