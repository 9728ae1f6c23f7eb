"""Replay reservoir: dedup, Algorithm-R retention, redistillation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.distill import ReplayBuffer, ReplayError, redistill_student


def _rows(rng, n, d=6):
    return rng.standard_normal((n, d))


class TestReplayBuffer:
    def test_validation(self):
        with pytest.raises(ReplayError, match="capacity"):
            ReplayBuffer(0)
        buffer = ReplayBuffer(4)
        with pytest.raises(ReplayError, match="disagree"):
            buffer.add(np.zeros((3, 2)), np.zeros(2))
        with pytest.raises(ReplayError, match="empty"):
            buffer.as_arrays()

    def test_repeats_gain_popularity_not_slots(self, rng):
        buffer = ReplayBuffer(16, seed=0)
        x = _rows(rng, 4)
        buffer.add(x, np.arange(4.0))
        assert len(buffer) == 4 and buffer.total_rows == 4
        buffer.add(x, np.arange(4.0) + 10.0)  # same rows, fresher scores
        assert len(buffer) == 4  # no new slots
        assert buffer.distinct == 4
        assert buffer.total_rows == 8
        _, y, seen = buffer.as_arrays()
        np.testing.assert_array_equal(seen, [2, 2, 2, 2])
        np.testing.assert_array_equal(y, np.arange(4.0) + 10.0)  # refreshed

    def test_reservoir_bounds_memory_and_stays_consistent(self, rng):
        buffer = ReplayBuffer(8, seed=1)
        for lo in range(0, 200, 10):
            buffer.add(_rows(rng, 10), np.full(10, float(lo)))
        assert len(buffer) == 8
        assert buffer.distinct == 200
        snap = buffer.snapshot()
        assert snap["rows"] == 8 and snap["total_rows"] == 200
        # the digest index must track the retained rows exactly
        x, _, _ = buffer.as_arrays()
        assert len(buffer._index) == 8
        from repro.utils.rowkeys import key_bytes, row_keys

        assert sorted(buffer._index.values()) == list(range(8))
        for digest in key_bytes(row_keys(x)):
            assert digest in buffer._index

    def test_reservoir_is_roughly_uniform_over_distinct_rows(self):
        # Offer rows 0..99, capacity 10; over many seeds every row must
        # be retained sometimes — Algorithm-R has no recency bias.
        hits = np.zeros(100)
        for seed in range(60):
            buffer = ReplayBuffer(10, seed=seed)
            rows = np.arange(100, dtype=np.float64).reshape(-1, 1) @ np.ones(
                (1, 3)
            )
            buffer.add(rows, np.zeros(100))
            x, _, _ = buffer.as_arrays()
            hits[x[:, 0].astype(int)] += 1
        assert (hits > 0).sum() > 80  # wide coverage, not just the tail
        assert hits[:20].sum() > 0 and hits[-20:].sum() > 0

    def test_sample_is_popularity_weighted(self, rng):
        buffer = ReplayBuffer(4, seed=2)
        x = _rows(rng, 2)
        buffer.add(x, np.zeros(2))
        for _ in range(20):  # row 0 becomes 21x more popular
            buffer.add(x[:1], np.zeros(1))
        xs, _ = buffer.sample(500, seed=3)
        head = np.isclose(xs, x[0]).all(axis=1).mean()
        assert head > 0.8  # ~21/22 expected

    def test_thread_safe_add(self, rng):
        from concurrent.futures import ThreadPoolExecutor

        # capacity >= distinct rows: no eviction, so the dedup index
        # must absorb every repeat regardless of interleaving
        buffer = ReplayBuffer(128, seed=4)
        blocks = [_rows(rng, 8) for _ in range(8)]
        with ThreadPoolExecutor(max_workers=4) as pool:
            list(
                pool.map(
                    lambda b: buffer.add(b, np.zeros(len(b))), blocks * 4
                )
            )
        assert buffer.total_rows == 8 * 8 * 4
        assert buffer.distinct == 64
        assert len(buffer) == 64
        _, _, seen = buffer.as_arrays()
        np.testing.assert_array_equal(seen, np.full(64, 4))


class TestRedistill:
    @pytest.fixture(scope="class")
    def student(self):
        from repro.obs.probe import build_probe_models

        return build_probe_models(
            n_queries=4, docs_per_query=8, seed=5
        )["student"]

    def test_self_distillation_returns_trained_clone(self, student, rng):
        buffer = ReplayBuffer(64, seed=0)
        x = _rows(rng, 40, d=136)
        buffer.add(x, student.predict(x))
        clone = redistill_student(
            student, buffer, epochs=1, batch_size=16, seed=0
        )
        assert clone is not student
        assert clone.normalizer is student.normalizer  # shared, by design
        before = student.network.linears[-1].weight.data
        after = clone.network.linears[-1].weight.data
        assert not np.array_equal(before, after)  # training moved weights
        assert np.isfinite(clone.predict(x)).all()

    def test_teacher_scores_override_buffered_targets(self, student, rng):
        class CountingTeacher:
            calls = 0

            def score(self, features):
                type(self).calls += 1
                return np.zeros(len(features))

        buffer = ReplayBuffer(16, seed=1)
        x = _rows(rng, 8, d=136)
        buffer.add(x, np.full(8, 1e6))  # absurd stored targets
        redistill_student(
            student,
            buffer,
            teacher=CountingTeacher(),
            epochs=1,
            batch_size=8,
            seed=0,
        )
        assert CountingTeacher.calls == 1

    def test_bad_teacher_rejected(self, student, rng):
        class ShortTeacher:
            def score(self, features):
                return np.zeros(1)

        buffer = ReplayBuffer(16, seed=2)
        x = _rows(rng, 8, d=136)
        buffer.add(x, np.zeros(8))
        with pytest.raises(ReplayError, match="mismatch"):
            redistill_student(student, buffer, teacher=ShortTeacher())
