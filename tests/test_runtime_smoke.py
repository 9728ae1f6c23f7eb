"""Fast smoke test for the scoring runtime (`make smoke`).

Constructs and prices one scorer of every built-in backend from
hand-built models — no training, no dataset generation — so a broken
backend or pricing path is caught in seconds.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import ZNormalizer
from repro.design.cascade import CascadeStage, EarlyExitCascade
from repro.distill.student import DistilledStudent
from repro.forest.ensemble import TreeEnsemble
from repro.forest.tree import NO_CHILD, RegressionTree
from repro.nn import FeedForwardNetwork
from repro.runtime import backend_names, is_scorer, make_scorer, price

N_FEATURES = 6


def _hand_forest(n_trees: int = 3) -> TreeEnsemble:
    """A tiny ensemble of depth-1 stumps on feature 0."""
    trees = []
    for t in range(n_trees):
        trees.append(
            RegressionTree(
                feature=np.array([0, -1, -1]),
                threshold=np.array([0.1 * (t + 1), np.nan, np.nan]),
                left=np.array([1, NO_CHILD, NO_CHILD]),
                right=np.array([2, NO_CHILD, NO_CHILD]),
                value=np.array([np.nan, -1.0 - t, 1.0 + t]),
            )
        )
    return TreeEnsemble(
        trees=trees,
        weights=np.ones(n_trees),
        base_score=0.0,
        n_features=N_FEATURES,
        name="hand-forest",
    )


def _hand_student(*, sparse: bool = False) -> DistilledStudent:
    """An untrained student; optionally with a mostly-zero first layer."""
    rng = np.random.default_rng(7)
    network = FeedForwardNetwork(N_FEATURES, (8, 4), seed=7)
    normalizer = ZNormalizer().fit(rng.normal(size=(32, N_FEATURES)))
    if sparse:
        w = network.first_layer.weight.data
        w[:, 1:] = 0.0  # ~83% first-layer sparsity
    return DistilledStudent(network, normalizer, teacher_description="hand")


def _features(n: int = 16) -> np.ndarray:
    return np.random.default_rng(3).normal(size=(n, N_FEATURES))


def test_every_backend_constructs_and_prices():
    forest = _hand_forest()
    cascade = EarlyExitCascade(
        [CascadeStage("stub", lambda x: np.asarray(x)[:, 0], 0.25)]
    )
    builds = {
        "quickscorer": (forest, {}),
        "quickscorer-gpu": (forest, {}),
        "cascade": (cascade, {}),
        "compiled-network": (_hand_student(sparse=True), {}),
    }
    assert set(builds) == set(backend_names())

    x = _features()
    for name, (model, opts) in builds.items():
        scorer = make_scorer(model, backend=name, **opts)
        assert is_scorer(scorer)
        assert scorer.backend == name
        scores = scorer.score(x)
        assert scores.shape == (len(x),)
        assert np.all(np.isfinite(scores))
        us = scorer.predicted_us_per_doc
        assert np.isfinite(us) and us > 0.0
        assert us == pytest.approx(
            price(model, backend=name, **opts), rel=1e-12
        )
        assert isinstance(scorer.describe(), str) and scorer.describe()


def test_auto_dispatch_picks_the_expected_backend():
    assert make_scorer(_hand_forest()).backend == "quickscorer"
    assert make_scorer(_hand_student()).backend == "compiled-network"
    assert (
        make_scorer(_hand_student(sparse=True)).backend == "compiled-network"
    )
    with pytest.raises(TypeError, match="unsupported model"):
        make_scorer(object())
