"""The QuickScorer traversal, in its vectorized (vQS) form.

Scores documents exactly as the C++ QuickScorer does, but branch-free:
instead of scanning each feature's ascending threshold list and stopping
at the first test that holds, every internal node is tested at once
over a block of documents.  A node is *false* when ``~(x[f] <= t)``
(so a NaN feature is false, as in :meth:`TreeEnsemble.predict`).  For
each tree the cleared-leaf bits of its false nodes are OR-reduced; the
complement of that union, ANDed with the tree's valid-leaf bits, is the
``leafidx`` whose lowest set bit is the exit leaf.  Blocks of documents
bound the ``docs x nodes`` intermediates to about 1 MB.

Besides scores, the traversal reports :class:`TraversalStats` — in
particular the fraction of false nodes, the quantity the QuickScorer
papers show drops from ~80% of nodes (classical root-to-leaf traversal)
to ~30%, and which drives the cost model.  The counts are those of the
early-exit scan (false nodes, plus the one stopping test per feature
list), not of the all-node evaluation that actually runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.forest.ensemble import TreeEnsemble
from repro.quickscorer.encoder import EncodedForest, encode_forest
from repro.utils.validation import check_array_2d

_ONE = np.uint64(1)


def _lowest_set_bit_position(words: np.ndarray) -> np.ndarray:
    """Position of the lowest set bit across the word axis.

    ``words`` has shape (..., n_words); every row must have at least one
    set bit (QuickScorer guarantees the exit leaf survives all masks).
    """
    out = np.full(words.shape[:-1], -1, dtype=np.int64)
    for w in range(words.shape[-1]):
        v = words[..., w]
        pending = (out == -1) & (v != 0)
        if not pending.any():
            continue
        vp = v[pending]
        isolated = vp & (np.uint64(0) - vp)  # v & -v in modular arithmetic
        positions = np.bitwise_count(isolated - _ONE).astype(np.int64)
        out[pending] = w * 64 + positions
    if (out == -1).any():
        raise RuntimeError("a leafidx bitvector had no set bit")
    return out


@dataclass(frozen=True)
class TraversalStats:
    """Operation counts measured during one scoring call."""

    n_docs: int
    n_trees: int
    total_internal_nodes: int
    false_nodes_total: int
    thresholds_examined_total: int

    @property
    def false_nodes_per_doc(self) -> float:
        """Average number of masks ANDed per document."""
        return self.false_nodes_total / max(self.n_docs, 1)

    @property
    def false_node_fraction(self) -> float:
        """Fraction of all internal nodes evaluated false per document."""
        if self.total_internal_nodes == 0:
            return 0.0
        return self.false_nodes_per_doc / self.total_internal_nodes

    @property
    def nodes_touched_fraction(self) -> float:
        """Fraction of nodes whose threshold was examined at all.

        Includes, per feature, the one extra comparison that stops the
        scan; QuickScorer's headline claim is that this stays far below
        the ~80% of classical traversal.
        """
        if self.total_internal_nodes == 0:
            return 0.0
        return self.thresholds_examined_total / (
            max(self.n_docs, 1) * self.total_internal_nodes
        )


#: Target size of the per-block ``docs x nodes`` intermediates.
_BLOCK_BYTES = 1 << 20


class QuickScorer:
    """Vectorized QuickScorer over an encoded forest.

    Parameters
    ----------
    forest:
        A :class:`TreeEnsemble` (encoded on construction) or an already
        :class:`EncodedForest`.
    """

    def __init__(self, forest: TreeEnsemble | EncodedForest) -> None:
        if isinstance(forest, TreeEnsemble):
            forest = encode_forest(forest)
        self.encoded = forest
        self.last_stats: TraversalStats | None = None
        # Per document: the gathered float64 feature, the two boolean
        # test results and the cleared words of every node.
        row_bytes = forest.total_internal_nodes * (8 + 2 + 8 * forest.n_words)
        self._block_rows = max(1, _BLOCK_BYTES // max(row_bytes, 1))
        # reduceat needs non-empty segments: single-leaf trees (no
        # internal node) are left out and keep their init_leafidx.
        self._split_trees = np.flatnonzero(np.diff(forest.tree_offsets))
        self._segment_starts = forest.tree_offsets[self._split_trees]
        lists = forest.feature_lists
        self._list_features = np.asarray(
            [fl.feature for fl in lists], dtype=np.intp
        )
        self._list_max = np.asarray(
            [fl.thresholds[-1] for fl in lists], dtype=np.float64
        )

    def score(self, features) -> np.ndarray:
        """Score a batch of documents; records :attr:`last_stats`."""
        x = check_array_2d(features, "features", allow_empty=True)
        if x.shape[1] != self.encoded.n_features:
            raise ValueError(
                f"expected {self.encoded.n_features} features, got {x.shape[1]}"
            )
        scores = np.empty(len(x), dtype=np.float64)
        false_total = 0
        examined_total = 0
        # Lightweight timing hook: a no-op unless the process-wide
        # tracer is enabled (this is the forest-serving hot path).
        with obs.span(
            "quickscorer.score", docs=len(x), trees=self.encoded.n_trees
        ):
            for start in range(0, len(x), self._block_rows):
                block = x[start : start + self._block_rows]
                block_scores, n_false, n_examined = self._score_block(block)
                scores[start : start + len(block)] = block_scores
                false_total += n_false
                examined_total += n_examined
        self.last_stats = TraversalStats(
            n_docs=len(x),
            n_trees=self.encoded.n_trees,
            total_internal_nodes=self.encoded.total_internal_nodes,
            false_nodes_total=false_total,
            thresholds_examined_total=examined_total,
        )
        return scores

    def _score_block(self, x: np.ndarray) -> tuple[np.ndarray, int, int]:
        """Scores of ``x`` and the false / examined node counts of the
        early-exit scan (see :class:`TraversalStats`)."""
        enc = self.encoded
        # ~(x <= t), not x > t: a NaN feature makes the node false, as in
        # TreeEnsemble.predict.
        false = ~(x[:, enc.node_feature] <= enc.node_threshold)
        cleared = np.bitwise_or.reduceat(
            false[:, :, None] * enc.node_cleared, self._segment_starts, axis=1
        )
        leafidx = np.repeat(enc.init_leafidx[None], len(x), axis=0)
        leafidx[:, self._split_trees] &= ~cleared
        positions = _lowest_set_bit_position(leafidx)
        tree_idx = np.arange(enc.n_trees)[None, :]
        values = enc.leaf_values[tree_idx, positions]
        scores = enc.base_score + values.sum(axis=1)

        # The scan of a feature list examines each false node plus the
        # one that stops it, unless every node of the list is false:
        # sum(min(count + 1, len)) over the lists.
        n_false = int(np.count_nonzero(false))
        all_false = ~(x[:, self._list_features] <= self._list_max)
        n_examined = (
            n_false
            + len(x) * len(self._list_features)
            - int(np.count_nonzero(all_false))
        )
        return scores, n_false, n_examined
