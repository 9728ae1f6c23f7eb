"""Zipf-aware replay reservoir over served traffic, and re-distillation.

Serving traffic for ranking is heavily skewed — a head of queries
repeats constantly while the tail is effectively unique.  A plain
reservoir sample over *rows* would be dominated by the head (the same
few documents sampled over and over); a plain dedup would forget the
skew entirely.  :class:`ReplayBuffer` does both:

* rows are deduplicated by their 128-bit content key
  (:func:`~repro.utils.rowkeys.row_keys`) — a repeated row costs no
  new slot, it increments that row's ``seen`` count and refreshes its
  stored target score;
* **distinct** rows flow through an Algorithm-R reservoir, so when the
  buffer is full each distinct row ever offered has equal probability
  of being retained;
* :meth:`sample` draws popularity-weighted (∝ ``seen``) batches, so
  re-distillation sees the traffic distribution, not the uniform one.

:func:`redistill_student` closes the paper's distillation loop at serve
time: fine-tune a clone of the deployed student on a replay sample
(teacher-scored when a teacher is supplied, self-scored otherwise) and
hand it back as a promotion candidate.
"""

from __future__ import annotations

import math
from threading import RLock
from typing import Any

import numpy as np

from repro.exceptions import ReproError
from repro.nn.training import Trainer, TrainingConfig
from repro.utils.rowkeys import key_bytes, row_keys
from repro.utils.validation import check_array_2d


class ReplayError(ReproError):
    """Raised on invalid replay-buffer operations."""


class ReplayBuffer:
    """Bounded, dedup-reservoir store of (features, score) rows.

    Thread-safe: the serve path calls :meth:`add` concurrently from
    engine worker threads.
    """

    def __init__(self, capacity: int, *, seed: int = 0) -> None:
        if capacity < 1:
            raise ReplayError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._rng = np.random.default_rng(seed)
        self._lock = RLock()
        self._rows: list[np.ndarray] = []
        self._scores: list[float] = []
        self._seen: list[int] = []
        self._digests: list[bytes] = []
        self._index: dict[bytes, int] = {}
        #: Distinct rows ever offered (drives the reservoir).
        self._distinct_offered = 0
        #: Total rows ever offered, repeats included.
        self.total_rows = 0

    # ------------------------------------------------------------------
    def add(self, features, scores) -> int:
        """Offer a scored request to the buffer; returns rows absorbed.

        Known rows refresh their stored score and gain popularity;
        novel rows enter the Algorithm-R reservoir over distinct rows.
        "Absorbed" counts novel rows actually retained.
        """
        x = check_array_2d(features, "features")
        y = np.asarray(scores, dtype=np.float64).ravel()
        if len(x) != len(y):
            raise ReplayError(
                f"features ({len(x)}) and scores ({len(y)}) disagree"
            )
        absorbed = 0
        digests = key_bytes(row_keys(x))
        with self._lock:
            for row, score, digest in zip(x, y, digests):
                self.total_rows += 1
                slot = self._index.get(digest)
                if slot is not None:
                    self._seen[slot] += 1
                    self._scores[slot] = float(score)
                    continue
                self._distinct_offered += 1
                if len(self._rows) < self.capacity:
                    self._index[digest] = len(self._rows)
                    self._rows.append(np.array(row, dtype=np.float64))
                    self._scores.append(float(score))
                    self._seen.append(1)
                    self._digests.append(digest)
                    absorbed += 1
                    continue
                j = int(self._rng.integers(0, self._distinct_offered))
                if j < self.capacity:
                    del self._index[self._digests[j]]
                    self._index[digest] = j
                    self._rows[j] = np.array(row, dtype=np.float64)
                    self._scores[j] = float(score)
                    self._seen[j] = 1
                    self._digests[j] = digest
                    absorbed += 1
        return absorbed

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._rows)

    @property
    def distinct(self) -> int:
        """Distinct rows ever offered (retained or not)."""
        with self._lock:
            return self._distinct_offered

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Snapshot ``(X, y, seen_counts)`` of the retained rows."""
        with self._lock:
            if not self._rows:
                raise ReplayError("replay buffer is empty")
            return (
                np.stack(self._rows),
                np.asarray(self._scores, dtype=np.float64),
                np.asarray(self._seen, dtype=np.float64),
            )

    def sample(
        self, n: int, *, seed: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw ``n`` rows popularity-weighted (with replacement)."""
        x, y, seen = self.as_arrays()
        rng = self._rng if seed is None else np.random.default_rng(seed)
        p = seen / seen.sum()
        idx = rng.choice(len(x), size=int(n), replace=True, p=p)
        return x[idx], y[idx]

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            return {
                "rows": len(self._rows),
                "capacity": self.capacity,
                "distinct_offered": self._distinct_offered,
                "total_rows": self.total_rows,
                "max_seen": max(self._seen) if self._seen else 0,
            }

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"<ReplayBuffer {len(self._rows)}/{self.capacity} rows, "
                f"{self.total_rows} offered>"
            )


# ----------------------------------------------------------------------
# Re-distillation
# ----------------------------------------------------------------------
def redistill_student(
    student,
    buffer: ReplayBuffer,
    *,
    teacher: Any | None = None,
    epochs: int = 3,
    batch_size: int = 64,
    learning_rate: float = 1e-3,
    seed: int = 0,
):
    """Fine-tune a clone of ``student`` on the replay buffer.

    Targets are the teacher's scores on the buffered raw rows when a
    ``teacher`` is given (true re-distillation), otherwise the scores
    stored at serve time (self-distillation on drifted traffic).
    Batches are drawn popularity-weighted so the head of the traffic
    distribution dominates the fine-tune the way it dominates serving.
    Returns the trained clone; the caller decides whether to promote it.
    """
    x_raw, y, seen = buffer.as_arrays()
    if teacher is not None:
        score = getattr(teacher, "score", None) or getattr(
            teacher, "predict"
        )
        y = np.asarray(score(x_raw), dtype=np.float64).ravel()
        if len(y) != len(x_raw):
            raise ReplayError(
                "teacher returned a score per-row mismatch: "
                f"{len(y)} scores for {len(x_raw)} rows"
            )
    clone = student.clone()
    xn = clone.normalizer.transform(x_raw)
    p = seen / seen.sum()

    def provider(rng, bs):
        idx = rng.choice(len(xn), size=bs, replace=True, p=p)
        return xn[idx], y[idx]

    trainer = Trainer(
        clone.network,
        TrainingConfig(
            epochs=int(epochs),
            batch_size=int(batch_size),
            learning_rate=float(learning_rate),
        ),
        seed=seed,
    )
    steps = max(1, math.ceil(len(xn) / int(batch_size)))
    trainer.fit(batch_provider=provider, steps_per_epoch=steps)
    return clone
