"""QuickScorer: interleaved feature-wise traversal of tree ensembles.

Reproduces the state-of-the-art tree-ensemble scorer the paper compares
against (Lucchese et al., SIGIR 2015; Dato et al., TOIS 2016):

* :mod:`repro.quickscorer.encoder` — per-tree bitvector encoding: each
  internal node carries a mask zeroing the leaves that become unreachable
  when its test evaluates *false*; ANDing the masks of all false nodes
  leaves the exit leaf as the first set bit.
* :mod:`repro.quickscorer.scorer` — the traversal itself in vectorized
  (vQS) form, numerically identical to walking every tree root-to-leaf
  (tested property), plus the feature-wise scan's visited-node
  statistics.
* :mod:`repro.quickscorer.blockwise` — BWQS tree blocking against the L3
  cache.
* :mod:`repro.quickscorer.cost` — the µs/doc cost model calibrated on the
  paper's published measurements (8.2 µs for 878 trees x 64 leaves, ...).
"""

from repro.quickscorer.encoder import EncodedForest, encode_forest
from repro.quickscorer.scorer import QuickScorer, TraversalStats
from repro.quickscorer.blockwise import partition_into_blocks, forest_bytes
from repro.quickscorer.cost import QuickScorerCostModel
from repro.quickscorer.rapidscorer import RapidScorerCostModel
from repro.quickscorer.gpu import GpuQuickScorerCostModel, GpuSpec

__all__ = [
    "GpuQuickScorerCostModel",
    "GpuSpec",
    "EncodedForest",
    "encode_forest",
    "QuickScorer",
    "TraversalStats",
    "partition_into_blocks",
    "forest_bytes",
    "QuickScorerCostModel",
    "RapidScorerCostModel",
]
