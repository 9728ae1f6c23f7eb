"""Bitvector encoding of a tree ensemble for QuickScorer.

For every tree, leaves are numbered left-to-right; every internal node
tests ``x[feature] <= threshold`` and, when that test is *false*, its
whole left subtree becomes unreachable.  The node's *mask* is therefore a
bitvector with ones everywhere except the positions of its left-subtree
leaves.  ANDing the masks of all false nodes of a tree yields ``leafidx``
whose lowest set bit is the exit leaf (Section 2.2 of the paper).

The encoder emits the nodes twice.  Flat, tree-ordered arrays (feature,
threshold and the *cleared* bits, i.e. the complement of the mask) feed
the scorer, which tests every node at once.  The same nodes re-organized
*feature by feature* with thresholds in ascending order form the lists
of the original QuickScorer scan, which walks each feature's list while
``x[f] > threshold`` and stops at the first test that holds, because
every later threshold would hold as well; the traversal statistics are
counted against that scan.

Bitvectors are stored LSB-first in little-endian ``uint64`` words; trees
with more than 64 leaves simply use multiple words per bitvector, which
the cost model charges for (the paper notes the > 64-leaf penalty that
RapidScorer later addresses).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import QuickScorerError
from repro.forest.ensemble import TreeEnsemble
from repro.forest.tree import RegressionTree


@dataclass(frozen=True)
class FeatureNodeList:
    """All (threshold ascending) false-node masks testing one feature."""

    feature: int
    thresholds: np.ndarray  # (n,) float64, ascending
    tree_ids: np.ndarray  # (n,) int32
    masks: np.ndarray  # (n, n_words) uint64


@dataclass(frozen=True)
class EncodedForest:
    """QuickScorer-ready representation of a :class:`TreeEnsemble`.

    The ``node_*`` arrays hold every internal node in tree order (tree
    ``t`` owns rows ``tree_offsets[t]:tree_offsets[t + 1]``, empty for a
    single-leaf tree); ``feature_lists`` regroups the same nodes feature
    by feature.
    """

    n_trees: int
    n_features: int
    n_words: int
    max_leaves: int
    init_leafidx: np.ndarray  # (n_trees, n_words) uint64, valid-leaf bits
    leaf_values: np.ndarray  # (n_trees, n_words * 64) float64, weighted
    base_score: float
    node_feature: np.ndarray  # (n_nodes,) intp
    node_threshold: np.ndarray  # (n_nodes,) float64
    node_cleared: np.ndarray  # (n_nodes, n_words) uint64, left-subtree leaves
    tree_offsets: np.ndarray  # (n_trees + 1,) intp
    feature_lists: tuple[FeatureNodeList, ...]

    @property
    def total_internal_nodes(self) -> int:
        """Internal nodes over all trees (rows of the ``node_*`` arrays)."""
        return len(self.node_feature)

    def structure_bytes(self) -> int:
        """Approximate memory footprint of the traversal structures.

        Per internal node: fp32 threshold, int32 tree id and the mask
        words; per tree: the leaf-value row and the running leafidx.
        Used by BWQS to size cache-resident blocks.
        """
        node_bytes = self.total_internal_nodes * (4 + 4 + 8 * self.n_words)
        leaf_bytes = self.leaf_values.size * 8
        leafidx_bytes = self.n_trees * self.n_words * 8
        return node_bytes + leaf_bytes + leafidx_bytes


def _leaf_spans(tree: RegressionTree) -> tuple[np.ndarray, np.ndarray]:
    """Per-node [lo, hi) range of left-to-right leaf positions it covers."""
    lo = np.zeros(tree.n_nodes, dtype=np.int64)
    hi = np.zeros(tree.n_nodes, dtype=np.int64)

    counter = 0

    def visit(node: int) -> None:
        nonlocal counter
        lo[node] = counter
        if tree.is_leaf(node):
            counter += 1
        else:
            visit(int(tree.left[node]))
            visit(int(tree.right[node]))
        hi[node] = counter

    visit(0)
    return lo, hi


_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


def _ones_mask(n_bits, n_words: int) -> np.ndarray:
    """uint64 words with the lowest ``n_bits`` bits set.

    Broadcasts over an array of ``n_bits``: the result has shape
    ``(*np.shape(n_bits), n_words)``.
    """
    in_word = np.clip(
        np.asarray(n_bits, dtype=np.int64)[..., None]
        - 64 * np.arange(n_words, dtype=np.int64),
        0,
        64,
    )
    # A shift by 64 is undefined, so empty words are zeroed separately.
    shift = np.minimum(64 - in_word, 63).astype(np.uint64)
    return np.where(in_word > 0, _ALL_ONES >> shift, np.uint64(0))


def _range_mask(lo, hi, n_words: int) -> np.ndarray:
    """uint64 words with bits [lo, hi) cleared and all others set.

    Broadcasts over arrays of ``lo`` / ``hi`` like :func:`_ones_mask`.
    """
    return ~_ones_mask(hi, n_words) | _ones_mask(lo, n_words)


def _feature_lists(
    node_feature: np.ndarray,
    node_threshold: np.ndarray,
    node_tree: np.ndarray,
    node_cleared: np.ndarray,
) -> tuple[FeatureNodeList, ...]:
    """Regroup tree-ordered nodes by feature, thresholds ascending.

    Ties keep tree order (``lexsort`` is stable).
    """
    order = np.lexsort((node_threshold, node_feature))
    features, starts = np.unique(node_feature[order], return_index=True)
    return tuple(
        FeatureNodeList(
            feature=int(feature),
            thresholds=node_threshold[rows],
            tree_ids=node_tree[rows],
            masks=~node_cleared[rows],
        )
        for feature, rows in zip(features, np.split(order, starts[1:]))
    )


def encode_forest(ensemble: TreeEnsemble) -> EncodedForest:
    """Build the QuickScorer structures for ``ensemble``.

    The per-tree shrinkage weight is folded into the stored leaf values,
    so scoring is ``base_score + sum_t leaf_values[t, exit_leaf_t]``.
    """
    if ensemble.n_trees == 0:
        raise QuickScorerError("cannot encode an empty ensemble")
    max_leaves = ensemble.max_leaves
    n_words = max(1, -(-max_leaves // 64))  # ceil division

    init = np.zeros((ensemble.n_trees, n_words), dtype=np.uint64)
    leaf_values = np.zeros((ensemble.n_trees, n_words * 64), dtype=np.float64)
    features, thresholds, cleared = [], [], []
    offsets = np.zeros(ensemble.n_trees + 1, dtype=np.intp)

    for t, (tree, weight) in enumerate(zip(ensemble.trees, ensemble.weights)):
        lo, hi = _leaf_spans(tree)
        init[t] = _ones_mask(tree.n_leaves, n_words)
        leaf_order = tree.leaf_indices()
        leaf_values[t, : len(leaf_order)] = weight * tree.value[leaf_order]

        internal = tree.internal_nodes()
        left = tree.left[internal]
        features.append(tree.feature[internal])
        thresholds.append(tree.threshold[internal])
        cleared.append(~_range_mask(lo[left], hi[left], n_words))
        offsets[t + 1] = offsets[t] + len(internal)

    node_feature = np.concatenate(features).astype(np.intp)
    node_threshold = np.concatenate(thresholds)
    node_cleared = np.concatenate(cleared).reshape(-1, n_words)
    node_tree = np.repeat(
        np.arange(ensemble.n_trees, dtype=np.int32), np.diff(offsets)
    )
    return EncodedForest(
        n_trees=ensemble.n_trees,
        n_features=ensemble.n_features,
        n_words=n_words,
        max_leaves=max_leaves,
        init_leafidx=init,
        leaf_values=leaf_values,
        base_score=ensemble.base_score,
        node_feature=node_feature,
        node_threshold=node_threshold,
        node_cleared=node_cleared,
        tree_offsets=offsets,
        feature_lists=_feature_lists(
            node_feature, node_threshold, node_tree, node_cleared
        ),
    )
