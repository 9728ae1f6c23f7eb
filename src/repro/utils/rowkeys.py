"""128-bit content keys of float64 feature rows, in one numpy pass.

Both the serving :class:`~repro.runtime.parallel.ScoreCache` and the
:class:`~repro.distill.replay.ReplayBuffer` dedup index key a row by its
exact float64 bytes.  :func:`row_keys` computes those keys for a whole
matrix at once:

1. view each C-contiguous float64 row as ``d`` uint64 words;
2. mix every word with a bijection: an odd multiply, then an xorshift;
3. fold the mixed words into two 64-bit lanes of position-weighted sums
   with fixed odd per-position multipliers (a uint64 ``@`` wraps
   mod 2**64).

Every step is a bijection of one word, and an odd multiplier is
invertible mod 2**64, so two rows of one width that differ in exactly
one word always get different keys: one-ulp neighbours, ``0.0`` vs
``-0.0`` and distinct NaN payloads never share a key.  Rows that differ
in several words collide only by chance, at about 2**-128 per pair for
non-adversarial data.  The keys are not a cryptographic hash: inputs
crafted to collide are out of scope.  Keys compare rows of one width
only; callers key one feature width per table.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["key_bytes", "row_keys"]

#: Odd multiplier of the per-word mix (2**64 / golden ratio, rounded odd).
_MIX = np.uint64(0x9E3779B97F4A7C15)
_SHIFT = np.uint64(32)
#: uint64 words per row block: 64 KB temporaries stay in malloc's reused
#: heap, while whole-matrix temporaries above its mmap threshold are
#: page-faulted afresh on every call (3x the cost at 1000 x 136 rows).
_BLOCK_WORDS = 8192
#: Seeds of the two lanes' per-position multipliers.
_LANE_SEEDS = (0x243F6A8885A308D3, 0x13198A2E03707344)


def _splitmix(values: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer over a uint64 array (wrapping arithmetic)."""
    z = values.copy()
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


@lru_cache(maxsize=None)
def _lane_weights(width: int) -> np.ndarray:
    """The fixed ``(width, 2)`` odd per-position multipliers."""
    positions = np.arange(width, dtype=np.uint64)
    lanes = [
        _splitmix(positions + np.uint64(seed)) | np.uint64(1)
        for seed in _LANE_SEEDS
    ]
    weights = np.ascontiguousarray(np.stack(lanes, axis=1))
    weights.flags.writeable = False
    return weights


def _fold(words: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Keys of one row block: mix every word, then sum it into the lanes."""
    mixed = words * _MIX
    mixed ^= mixed >> _SHIFT
    return mixed @ weights


def row_keys(x: np.ndarray) -> np.ndarray:
    """``(n, 2)`` uint64 key of each row of the 2-D float64 matrix ``x``."""
    words = np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)
    weights = _lane_weights(words.shape[1])
    step = max(1, _BLOCK_WORDS // max(words.shape[1], 1))
    blocks = [
        _fold(words[lo : lo + step], weights)
        for lo in range(0, max(len(words), 1), step)
    ]
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


def key_bytes(keys: np.ndarray) -> list[bytes]:
    """Each ``(n, 2)`` key row as one 16-byte ``bytes`` (a dict key)."""
    keys = np.ascontiguousarray(keys, dtype=np.uint64)
    return keys.view("V16").ravel().tolist()
