"""Feature-selection analysis of pruned first layers.

The first layer of a pruned student is an ``l_1 x f`` matrix with ~1% of
its entries alive; each surviving weight connects one input feature to
one hidden unit.  Counting survivors per input column gives the
network's implicit feature selection, which Section 5.2 argues matches
"the essential combinations of input features" — i.e. the features the
teacher forest splits on most.
"""

from __future__ import annotations

import numpy as np

from repro.distill.student import DistilledStudent
from repro.forest.ensemble import TreeEnsemble
from repro.nn.network import FeedForwardNetwork


def first_layer_feature_usage(
    model: DistilledStudent | FeedForwardNetwork,
) -> np.ndarray:
    """Surviving first-layer weights per input feature.

    Returns an ``(n_features,)`` count vector; for an unpruned layer every
    feature is used by every hidden unit.
    """
    network = model.network if isinstance(model, DistilledStudent) else model
    weights = network.first_layer.weight.data
    return (weights != 0.0).sum(axis=0).astype(np.float64)


def feature_selection_agreement(
    student: DistilledStudent | FeedForwardNetwork,
    forest: TreeEnsemble,
) -> float:
    """Spearman correlation between student usage and forest importance.

    A strongly positive value confirms the paper's claim that the pruned
    first layer keeps exactly the features the tree ensemble relies on.
    Returns ``nan`` when either signal is constant (e.g. an unpruned
    layer uses all features equally).
    """
    usage = first_layer_feature_usage(student)
    importance = forest.feature_importance()
    if len(usage) != len(importance):
        raise ValueError(
            f"student has {len(usage)} input features, forest has "
            f"{len(importance)}"
        )
    if np.all(usage == usage[0]) or np.all(importance == importance[0]):
        return float("nan")
    # Imported here: scipy.stats adds ~50 MB to every process that
    # imports repro, serving processes included.
    from scipy.stats import spearmanr

    rho, _ = spearmanr(usage, importance)
    return float(rho)


def top_feature_overlap(
    student: DistilledStudent | FeedForwardNetwork,
    forest: TreeEnsemble,
    k: int = 20,
) -> float:
    """Fraction of the forest's top-k features kept by the pruned layer.

    "Kept" means at least one surviving first-layer weight touches the
    feature.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    usage = first_layer_feature_usage(student)
    importance = forest.feature_importance()
    top = np.argsort(-importance)[:k]
    return float(np.mean(usage[top] > 0))
