"""Tests for repro.runtime.parallel — shard plans, cache, sharded scorer."""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.design.cascade import CascadeStage, EarlyExitCascade
from repro.exceptions import ConfigError
from repro.runtime import (
    BatchEngine,
    BaseScorer,
    ParallelConfig,
    ParallelError,
    PoolClosedError,
    ScoreCache,
    ShardPlan,
    ShardedScorer,
    StubScorer,
    make_scorer,
    plan_shards,
    scorer_fingerprint,
)
from repro.serving import ScoringService, ServiceConfig
from repro.utils.rowkeys import row_keys


@pytest.fixture(scope="module")
def features(tiny_splits):
    return tiny_splits[2].features[:300]


@pytest.fixture(scope="module")
def forest_scorer(small_forest):
    return make_scorer(small_forest, backend="quickscorer")


# ----------------------------------------------------------------------
# Shard planning
# ----------------------------------------------------------------------
class TestShardPlan:
    @settings(max_examples=50, deadline=None)
    @given(
        n_rows=st.integers(min_value=0, max_value=2000),
        n_shards=st.integers(min_value=1, max_value=16),
    )
    def test_even_covers_and_balances(self, n_rows, n_shards):
        plan = ShardPlan.even(n_rows, n_shards)
        assert plan.n_rows == n_rows
        assert sum(plan.sizes) == n_rows
        if n_rows:
            assert plan.n_shards == min(n_shards, n_rows)
            assert max(plan.sizes) - min(plan.sizes) <= 1
        else:
            assert plan.spans == ()

    @settings(max_examples=50, deadline=None)
    @given(
        n_rows=st.integers(min_value=0, max_value=2000),
        max_rows=st.integers(min_value=1, max_value=300),
    )
    def test_size_capped_respects_cap(self, n_rows, max_rows):
        plan = ShardPlan.size_capped(n_rows, max_rows)
        assert sum(plan.sizes) == n_rows
        assert all(size <= max_rows for size in plan.sizes)

    @settings(max_examples=50, deadline=None)
    @given(
        n_rows=st.integers(min_value=0, max_value=2000),
        n_shards=st.integers(min_value=1, max_value=16),
    )
    def test_planning_is_deterministic(self, n_rows, n_shards):
        """Same inputs, same plan — the reassembly contract depends on it."""
        assert ShardPlan.even(n_rows, n_shards) == ShardPlan.even(
            n_rows, n_shards
        )

    def test_cost_weighted_targets_budget(self):
        # 4 us/doc against a 100 us shard budget -> 25-row shards.
        plan = ShardPlan.cost_weighted(100, 4.0, 100.0)
        assert plan.strategy == "cost-weighted"
        assert max(plan.sizes) <= 25
        assert sum(plan.sizes) == 100

    @settings(max_examples=50, deadline=None)
    @given(
        n_rows=st.integers(min_value=0, max_value=2000),
        workers=st.integers(min_value=1, max_value=4),
        max_rows=st.integers(min_value=1, max_value=300),
    )
    def test_even_capped_cuts_full_pieces_plus_remainder(
        self, n_rows, workers, max_rows
    ):
        even = ShardPlan.even(n_rows, workers)
        plan = even.capped(max_rows)
        assert plan.strategy == "even"
        assert sum(plan.sizes) == n_rows
        assert all(size <= max_rows for size in plan.sizes)
        # Each even shard becomes full pieces and one shorter tail, so
        # every cut lies on a max_rows boundary of its shard.
        for lo, hi in even.spans:
            pieces = [s for s in plan.spans if lo <= s[0] < hi]
            assert [a for a, _ in pieces] == list(range(lo, hi, max_rows))

    def test_cost_weighted_rejects_unpriced(self):
        with pytest.raises(ParallelError, match="finite positive"):
            ShardPlan.cost_weighted(100, float("nan"), 100.0)

    def test_invalid_spans_rejected(self):
        with pytest.raises(ParallelError, match="contiguous"):
            ShardPlan(10, ((0, 5), (6, 10)))  # gap at row 5
        with pytest.raises(ParallelError, match="cover"):
            ShardPlan(10, ((0, 5),))  # short coverage

    def test_balance_of_even_plan_is_near_one(self):
        plan = ShardPlan.even(100, 3)
        assert 1.0 <= plan.balance <= 1.02

    def test_plan_shards_dispatches_by_strategy(self):
        even = plan_shards(90, ParallelConfig(workers=3))
        assert even.strategy == "even" and even.n_shards == 3
        capped = plan_shards(
            90,
            ParallelConfig(
                workers=3, strategy="size-capped", max_shard_rows=20
            ),
        )
        assert capped.strategy == "size-capped"
        assert all(size <= 20 for size in capped.sizes)
        weighted = plan_shards(
            90,
            ParallelConfig(
                workers=3, strategy="cost-weighted", target_shard_us=50.0
            ),
            us_per_doc=5.0,
        )
        assert weighted.strategy == "cost-weighted"
        assert all(size <= 10 for size in weighted.sizes)


class TestParallelConfig:
    def test_round_trip(self):
        config = ParallelConfig(
            workers=4,
            strategy="size-capped",
            max_shard_rows=64,
            cache_entries=1024,
        )
        assert ParallelConfig.from_dict(config.to_dict()) == config

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown ParallelConfig"):
            ParallelConfig.from_dict({"workers": 2, "warp_factor": 9})

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workers": 0},
            {"strategy": "round-robin"},
            {"strategy": "size-capped"},  # missing max_shard_rows
            {"strategy": "cost-weighted"},  # missing target_shard_us
            {"cache_entries": -1},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            ParallelConfig(**kwargs)


# ----------------------------------------------------------------------
# Score cache
# ----------------------------------------------------------------------
def _keys(*names: str) -> np.ndarray:
    """Row keys of one-feature rows standing in for the named rows."""
    return row_keys(
        [[float(int.from_bytes(n.encode(), "little"))] for n in names]
    )


class TestScoreCache:
    def test_lru_eviction_order(self):
        cache = ScoreCache(capacity=2)
        cache.put_many("m", _keys("a", "b"), np.array([1.0, 2.0]))
        cache.get_many("m", _keys("a"))  # touch "a" -> "b" becomes LRU
        cache.put_many("m", _keys("c"), np.array([3.0]))
        _, mask = cache.get_many("m", _keys("a", "b", "c"))
        assert mask.tolist() == [True, False, True]
        assert cache.evictions == 1

    def test_models_do_not_share_entries(self):
        cache = ScoreCache(capacity=8)
        cache.put_many("model-a", _keys("row"), np.array([1.0]))
        _, mask = cache.get_many("model-b", _keys("row"))
        assert not mask.any()

    def test_hit_ratio_and_snapshot(self):
        cache = ScoreCache(capacity=8)
        assert np.isnan(cache.hit_ratio)
        cache.put_many("m", _keys("x"), np.array([0.5]))
        cache.get_many("m", _keys("x", "y"))
        assert cache.hit_ratio == 0.5
        snapshot = cache.snapshot()
        assert snapshot["entries"] == 1.0 and snapshot["hits"] == 1.0

    def test_clear_keeps_counters(self):
        cache = ScoreCache(capacity=8)
        cache.put_many("m", _keys("x"), np.array([0.5]))
        cache.get_many("m", _keys("x"))
        cache.clear()
        assert len(cache) == 0 and cache.hits == 1

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ParallelError, match="digests"):
            ScoreCache(8).put_many("m", _keys("x"), np.array([1.0, 2.0]))

    def test_capacity_must_be_positive(self):
        with pytest.raises(ParallelError):
            ScoreCache(0)

    def test_fingerprints_sharing_one_cache_keep_their_own_scores(self):
        cache = ScoreCache(capacity=8)
        keys = _keys("x", "y")
        cache.put_many("model-a", keys, np.array([1.0, 2.0]))
        cache.put_many("model-b", keys, np.array([3.0, 4.0]))
        values, mask = cache.get_many("model-a", keys)
        assert mask.all() and values.tolist() == [1.0, 2.0]
        values, mask = cache.get_many("model-b", keys)
        assert mask.all() and values.tolist() == [3.0, 4.0]
        assert len(cache) == 4

    def test_invalidate_frees_capacity_for_other_fingerprints(self):
        cache = ScoreCache(capacity=4)
        cache.put_many("old", _keys("a", "b", "c", "d"), np.arange(4.0))
        assert cache.invalidate("old") == 4
        assert len(cache) == 0 and cache.invalidations == 4
        keys = _keys("e", "f", "g", "h")
        cache.put_many("new", keys, np.arange(4.0))
        _, mask = cache.get_many("new", keys)
        assert mask.all()
        assert cache.evictions == 0
        _, mask = cache.get_many("old", _keys("a", "b", "c", "d"))
        assert not mask.any()

    def test_rows_hit_in_the_latest_call_survive_eviction_pressure(self):
        cache = ScoreCache(capacity=64)
        rows = np.arange(2000.0)[:, None]
        hot = row_keys(rows[:8])
        cache.put_many("m", row_keys(rows[:64]), rows[:64, 0])
        for lo in range(64, 2000, 16):
            fresh = row_keys(rows[lo : lo + 16])
            values, mask = cache.get_many("m", np.concatenate([hot, fresh]))
            assert mask[:8].all(), f"hot rows evicted before row {lo}"
            np.testing.assert_array_equal(values[:8], rows[:8, 0])
            cache.put_many("m", fresh, rows[lo : lo + 16, 0])
            assert len(cache) <= cache.capacity
        assert cache.evictions == 2000 - len(cache)

    def test_duplicate_keys_in_one_put_take_one_slot(self):
        cache = ScoreCache(capacity=4)
        keys = _keys("a", "a", "b")
        cache.put_many("m", keys, np.array([1.0, 1.0, 2.0]))
        assert len(cache) == 2
        values, mask = cache.get_many("m", keys)
        assert mask.all() and values.tolist() == [1.0, 1.0, 2.0]

    def test_more_new_rows_than_capacity_keep_the_last(self):
        cache = ScoreCache(capacity=4)
        rows = np.arange(10.0)[:, None]
        cache.put_many("m", row_keys(rows), rows[:, 0])
        assert len(cache) == 4 and cache.evictions == 6
        _, mask = cache.get_many("m", row_keys(rows))
        assert mask.tolist() == [False] * 6 + [True] * 4

    def test_concurrent_callers_keep_the_table_consistent(self):
        import sys
        import threading

        cache = ScoreCache(capacity=64)
        rows = np.arange(400.0)[:, None]
        keys = row_keys(rows)
        errors = []

        def worker(seed):
            rng = np.random.default_rng(seed)
            try:
                for _ in range(200):
                    pick = rng.integers(0, 400, 24)
                    model = f"m{seed % 2}"
                    values, mask = cache.get_many(model, keys[pick])
                    if not np.array_equal(values[mask], rows[pick, 0][mask]):
                        errors.append("a hit returned another row's score")
                    cache.put_many(model, keys[pick], rows[pick, 0])
                    if seed == 0 and rng.random() < 0.05:
                        cache.invalidate("m1")
            except Exception as exc:  # reported below, not lost
                errors.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(seed,))
                for seed in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors[:3]
        assert len(cache) <= cache.capacity
        # No slot leaked: a fresh fingerprint can still use all of them.
        fresh = row_keys(np.arange(1000.0, 1064.0)[:, None])
        cache.put_many("z", fresh, np.arange(64.0))
        values, mask = cache.get_many("z", fresh)
        assert mask.all() and values.tolist() == list(range(64))

# ----------------------------------------------------------------------
# Row keys
# ----------------------------------------------------------------------
def _differ(a, b) -> bool:
    """Whether every lane of the 1-row matrices' keys differs (each lane
    alone separates rows that differ in one word)."""
    return bool((row_keys(a) != row_keys(b)).all())


class TestRowKeys:
    @settings(max_examples=200, deadline=None)
    @given(
        width=st.integers(min_value=1, max_value=160),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        data=st.data(),
    )
    def test_flipping_any_single_bit_changes_the_key(self, width, seed, data):
        row = np.random.default_rng(seed).standard_normal((1, width))
        word = data.draw(st.integers(min_value=0, max_value=width - 1))
        bit = data.draw(st.integers(min_value=0, max_value=63))
        flipped = row.copy()
        flipped.view(np.uint64)[0, word] ^= np.uint64(1) << np.uint64(bit)
        assert _differ(row, flipped)

    def test_mixed_words_differing_in_the_top_bit_differ(self):
        # The hardest one-word change: mixed words 2**63 apart, which an
        # even lane multiplier would wrap to the same sum.  Built by
        # inverting the mix (odd multiply, then xorshift by 32).
        from repro.utils.rowkeys import _MIX

        mask = 2**64 - 1
        inverse = pow(int(_MIX), -1, 2**64)
        row = np.random.default_rng(5).standard_normal((1, 40))
        for j, word in enumerate(row.view(np.uint64)[0].tolist()):
            mixed = (word * int(_MIX)) & mask
            mixed ^= mixed >> 32
            target = mixed ^ (1 << 63)
            other = row.copy()
            other.view(np.uint64)[0, j] = (
                (target ^ (target >> 32)) * inverse
            ) & mask
            assert _differ(row, other), f"word {j}"

    def test_signed_zeros_differ(self):
        assert _differ(np.array([[0.0, 1.0]]), np.array([[-0.0, 1.0]]))

    def test_nan_payloads_differ(self):
        quiet = np.array([[np.nan]])
        payload = np.array([[0x7FF8000000000001]], dtype=np.uint64)
        other = payload.view(np.float64)
        assert np.isnan(other).all()
        assert _differ(quiet, other)

    def test_one_ulp_neighbours_differ(self):
        rng = np.random.default_rng(3)
        rows = rng.standard_normal((50, 136))
        at = (np.arange(50), rng.integers(0, 136, 50))
        for direction in (np.inf, -np.inf):
            moved = rows.copy()
            moved[at] = np.nextafter(rows[at], direction)
            assert (row_keys(rows) != row_keys(moved)).all()

    def test_keys_depend_on_bytes_not_layout(self):
        x = np.random.default_rng(0).standard_normal((300, 40))
        keys = row_keys(x)
        assert keys.shape == (300, 2) and keys.dtype == np.uint64
        np.testing.assert_array_equal(row_keys(np.asfortranarray(x)), keys)
        np.testing.assert_array_equal(row_keys(x[::3]), keys[::3])
        assert len(np.unique(keys, axis=0)) == 300


# ----------------------------------------------------------------------
# Sharded scorer: bit-identity
# ----------------------------------------------------------------------
class TestShardedScorerIdentity:
    @settings(max_examples=20, deadline=None)
    @given(
        workers=st.integers(min_value=1, max_value=4),
        rows=st.integers(min_value=1, max_value=120),
        cached=st.booleans(),
    )
    def test_bit_identical_to_plain(
        self, forest_scorer, features, workers, rows, cached
    ):
        """Any worker count, any request size, cache on or off: same bits."""
        x = features[:rows]
        reference = forest_scorer.score(x)
        config = ParallelConfig(
            workers=workers, cache_entries=4096 if cached else 0
        )
        with ShardedScorer(forest_scorer, config) as sharded:
            np.testing.assert_array_equal(sharded.score(x), reference)
            np.testing.assert_array_equal(sharded.score(x), reference)

    @pytest.mark.parametrize(
        "config",
        [
            ParallelConfig(workers=3, strategy="size-capped", max_shard_rows=7),
            ParallelConfig(
                workers=2, strategy="cost-weighted", target_shard_us=100.0
            ),
            ParallelConfig(workers=2, cache_entries=64),  # forces evictions
        ],
        ids=["size-capped", "cost-weighted", "tiny-cache"],
    )
    def test_strategies_bit_identical(self, forest_scorer, features, config):
        reference = forest_scorer.score(features)
        with ShardedScorer(forest_scorer, config) as sharded:
            for _ in range(2):
                np.testing.assert_array_equal(
                    sharded.score(features), reference
                )

    def test_network_backends_bit_identical(
        self, small_student, features
    ):
        for opts in ({}, {"quantize": "int8"}):
            plain = make_scorer(small_student, **opts)
            reference = plain.score(features)
            config = ParallelConfig(workers=3, cache_entries=2048)
            with ShardedScorer(plain, config) as sharded:
                np.testing.assert_array_equal(
                    sharded.score(features), reference
                )
                np.testing.assert_array_equal(
                    sharded.score(features), reference
                )

    def test_cascade_served_whole_without_cache(self, features):
        """Non-batchable scorers bypass sharding and caching entirely."""
        cascade = EarlyExitCascade(
            [CascadeStage("stub", lambda x: np.asarray(x)[:, 0], 0.5)]
        )
        plain = make_scorer(cascade, backend="cascade")
        reference = plain.score(features)
        with ShardedScorer(
            plain, ParallelConfig(workers=4, cache_entries=1024)
        ) as sharded:
            assert sharded.cache is None
            assert not sharded.batchable
            np.testing.assert_array_equal(sharded.score(features), reference)


# ----------------------------------------------------------------------
# Sharded scorer: lifecycle, protocol, cache behaviour
# ----------------------------------------------------------------------
class TestShardedScorerBehaviour:
    def test_satisfies_scorer_protocol(self, forest_scorer):
        from repro.runtime import is_scorer

        with ShardedScorer(forest_scorer, ParallelConfig(workers=2)) as s:
            assert is_scorer(s)
            assert s.backend == forest_scorer.backend
            assert s.input_dim == forest_scorer.input_dim
            assert s.predicted_us_per_doc == forest_scorer.predicted_us_per_doc
            assert "sharded" in s.describe()

    def test_rejects_non_scorer(self):
        with pytest.raises(TypeError, match="expected a Scorer"):
            ShardedScorer(object())

    def test_closed_pool_raises(self, forest_scorer, features):
        sharded = ShardedScorer(forest_scorer, ParallelConfig(workers=2))
        sharded.close()
        with pytest.raises(PoolClosedError):
            sharded.score(features[:8])

    def test_zero_document_request(self, forest_scorer):
        with ShardedScorer(forest_scorer, ParallelConfig(workers=2)) as s:
            out = s.score(np.empty((0, forest_scorer.input_dim)))
            assert out.shape == (0,)
            assert s.requests == 0

    def test_wrong_width_rejected_before_keying(self, forest_scorer):
        config = ParallelConfig(workers=1, cache_entries=64)
        dim = forest_scorer.input_dim
        with ShardedScorer(forest_scorer, config) as s:
            for rows in (1, 0):
                with pytest.raises(ValueError, match="features"):
                    s.score(np.zeros((rows, dim - 1)))
            assert s.cache.misses == 0 and s.requests == 0

    def test_duplicate_missing_rows_in_one_request(
        self, forest_scorer, features
    ):
        x = np.concatenate([features[:20], features[:20], features[5:10]])
        config = ParallelConfig(workers=2, cache_entries=64)
        with ShardedScorer(forest_scorer, config) as sharded:
            cold = sharded.score(x)
            assert sharded.cache.misses == len(x)
            assert len(sharded.cache) == len(np.unique(features[:20], axis=0))
            warm = sharded.score(x)
            assert sharded.cache.hits == len(x)
        np.testing.assert_array_equal(cold, forest_scorer.score(x))
        np.testing.assert_array_equal(warm, cold)

    def test_warm_request_hits_cache(self, forest_scorer, features):
        x = features[:64]
        config = ParallelConfig(workers=1, cache_entries=4096)
        with ShardedScorer(forest_scorer, config) as sharded:
            sharded.score(x)
            misses_after_cold = sharded.cache.misses
            sharded.score(x)
            assert sharded.cache.misses == misses_after_cold
            assert sharded.cache.hits >= len(np.unique(x, axis=0))

    def test_instances_do_not_share_cache_entries(
        self, small_forest, features
    ):
        """Fingerprints are per-instance: a new scorer starts cold."""
        x = features[:32]
        config = ParallelConfig(workers=1, cache_entries=4096)
        cache = ScoreCache(4096)
        first_scorer = make_scorer(small_forest, backend="quickscorer")
        with ShardedScorer(first_scorer, config, cache=cache) as first:
            first.score(x)
        hits_after_first = cache.hits
        clone = make_scorer(small_forest, backend="quickscorer")
        with ShardedScorer(clone, config, cache=cache) as second:
            second.score(x)
        assert cache.hits == hits_after_first  # all misses: new fingerprint

    def test_fingerprint_prefers_scorer_hook(self):
        class Fingerprinted(StubScorer):
            def fingerprint(self):
                return "weights-v7"

        assert scorer_fingerprint(Fingerprinted()) == "weights-v7"
        stub = StubScorer()
        assert hex(id(stub)) in scorer_fingerprint(stub)

    def test_summary_shape(self, forest_scorer, features):
        config = ParallelConfig(workers=2, cache_entries=256)
        with ShardedScorer(forest_scorer, config) as sharded:
            sharded.score(features[:50])
            summary = sharded.summary()
        assert summary["workers"] == 2
        assert summary["requests"] == 1
        assert summary["cache"]["capacity"] == 256.0


# ----------------------------------------------------------------------
# Observability + engine integration
# ----------------------------------------------------------------------
class TestParallelIntegration:
    def test_obs_series_recorded(self, forest_scorer, features, obs_clean):
        config = ParallelConfig(workers=2, cache_entries=4096)
        with ShardedScorer(forest_scorer, config) as sharded:
            sharded.score(features[:40])
            sharded.score(features[:40])
        report = obs_clean.parallel_report()
        row = report.row("quickscorer")
        assert row is not None
        assert row["requests"] == 2
        assert row["cache_hits"] > 0
        assert "quickscorer" in report.render()

    def test_batch_engine_parallel_wrapping(self, forest_scorer, features):
        reference = forest_scorer.score(features)
        config = ParallelConfig(workers=2, cache_entries=1024)
        with ShardedScorer(forest_scorer, config) as sharded:
            engine = BatchEngine(sharded, max_batch_size=None)
            assert engine.scorer is sharded
            np.testing.assert_array_equal(engine.score(features), reference)

    def test_batch_engine_leaves_presharded_scorer(self, forest_scorer):
        with ShardedScorer(
            forest_scorer, ParallelConfig(workers=2), max_batch_size=32
        ) as s:
            engine = BatchEngine(s, max_batch_size=64)
            assert engine.scorer is s
            assert engine.max_batch_size is None
            assert s.max_batch_size == 32


# ----------------------------------------------------------------------
# Under a service, the sharder splits: after the cache, misses only
# ----------------------------------------------------------------------
class _Recording(BaseScorer):
    """Wraps a scorer and keeps a copy of every batch it is handed."""

    backend = "recording"

    def __init__(self, inner) -> None:
        super().__init__(
            price_fn=lambda: inner.predicted_us_per_doc,
            input_dim=inner.input_dim,
        )
        self.inner = inner
        self.calls: list[np.ndarray] = []
        self._lock = threading.Lock()

    def score(self, features) -> np.ndarray:
        x = np.array(features, dtype=np.float64)
        with self._lock:
            self.calls.append(x)
        return self.inner.score(x)

    def describe(self) -> str:
        return "recording"


class TestSplitBelowTheCache:
    """A coalesced batch is keyed and looked up once; only its misses
    reach the model, cut into calls of at most ``max_batch_size``."""

    @pytest.mark.parametrize(
        "parallel, cap, sizes",
        [
            (ParallelConfig(workers=1, cache_entries=4096), 256, [150]),
            (ParallelConfig(workers=1, cache_entries=4096), 64, [64, 64, 22]),
            (
                ParallelConfig(workers=2, cache_entries=4096),
                64,
                [64, 11, 64, 11],
            ),
            (
                ParallelConfig(
                    workers=2,
                    strategy="size-capped",
                    max_shard_rows=100,
                    cache_entries=4096,
                ),
                64,
                [64, 11, 64, 11],
            ),
            (
                ParallelConfig(
                    workers=2,
                    strategy="size-capped",
                    max_shard_rows=40,
                    cache_entries=4096,
                ),
                256,
                [38, 38, 37, 37],
            ),
        ],
        ids=["one-worker", "one-worker-cap64", "even-2w", "size-capped",
             "size-capped-own-cap"],
    )
    def test_one_lookup_and_only_misses_reach_the_model(
        self, forest_scorer, parallel, cap, sizes
    ):
        rng = np.random.default_rng(18)
        x = rng.standard_normal((1000, forest_scorer.input_dim))
        cached = np.zeros(len(x), dtype=bool)
        cached[rng.permutation(len(x))[:850]] = True
        bounds = np.concatenate(
            [[0], np.sort(rng.choice(np.arange(1, len(x)), 31, replace=False)),
             [len(x)]]
        )
        requests = [x[a:b] for a, b in zip(bounds[:-1], bounds[1:])]

        recording = _Recording(forest_scorer)
        service = ScoringService(
            recording, ServiceConfig(max_batch_size=cap, parallel=parallel)
        )
        try:
            service.score(x[cached])
            recording.calls.clear()
            lookups = {"get_many": 0, "put_many": 0}
            cache = service.cache
            for name in lookups:
                method = getattr(cache, name)

                def counted(*args, _method=method, _name=name):
                    lookups[_name] += 1
                    return _method(*args)

                setattr(cache, name, counted)
            out = service.engine.score_coalesced(requests)
        finally:
            service.close()

        assert lookups == {"get_many": 1, "put_many": 1}
        # Reorder pool calls by where their first row sits in x.
        position = {row.tobytes(): i for i, row in enumerate(x)}
        calls = sorted(
            recording.calls, key=lambda c: position[c[0].tobytes()]
        )
        assert [len(c) for c in calls] == sizes
        np.testing.assert_array_equal(np.concatenate(calls), x[~cached])
        for request, scores in zip(requests, out):
            np.testing.assert_array_equal(
                scores, forest_scorer.score(request)
            )

    def test_standalone_engine_splits_after_the_cache(
        self, forest_scorer, features
    ):
        recording = _Recording(forest_scorer)
        engine = BatchEngine(
            ShardedScorer(
                recording,
                ParallelConfig(workers=1, cache_entries=1024),
                max_batch_size=128,
            )
        )
        assert engine.max_batch_size is None
        assert engine.scorer.max_batch_size == 128
        try:
            for _ in range(2):
                np.testing.assert_array_equal(
                    engine.score(features), forest_scorer.score(features)
                )
        finally:
            engine.scorer.close()
        # One sharder call per request; the warm one reaches no model.
        assert [len(c) for c in recording.calls] == [128, 128, 44]
        assert engine.scorer.requests == 2

    def test_pieces_are_not_counted_as_shards(
        self, obs_clean, forest_scorer
    ):
        """A one-worker stack scores 600 misses in three capped calls on
        one lane: one shard, balance 1.0."""
        x = np.random.default_rng(5).standard_normal(
            (600, forest_scorer.input_dim)
        )
        recording = _Recording(forest_scorer)
        with ShardedScorer(
            recording, ParallelConfig(workers=1), max_batch_size=256
        ) as sharded:
            sharded.score(x)
            summary = sharded.summary()
        assert [len(c) for c in recording.calls] == [256, 256, 88]
        assert summary["last_shards"] == summary["shards_executed"] == 1
        assert summary["last_balance"] == 1.0
        row = obs_clean.parallel_report().row(recording.backend)
        assert row["mean_shards_per_request"] == 1.0
        assert row["shard_balance"] == 1.0

    def test_max_batch_size_must_be_positive(self, forest_scorer):
        with pytest.raises(ParallelError, match="max_batch_size"):
            ShardedScorer(forest_scorer, max_batch_size=0)
        with pytest.raises(ParallelError, match="max_rows"):
            ShardPlan.even(10, 1).capped(0)


# ----------------------------------------------------------------------
# The cache pays for itself
# ----------------------------------------------------------------------
class TestCacheCost:
    def test_warm_forest_request_costs_a_third_of_cold(self, forest_scorer):
        """On the cheapest kernel (a 20-tree forest), serving ~1000 rows
        from the cache must cost at most a third of scoring them cold.
        Interleaved best-of-N ratio: host speed cancels out."""
        import time

        x = np.random.default_rng(0).standard_normal(
            (1000, forest_scorer.input_dim)
        )
        config = ParallelConfig(workers=1, cache_entries=2048)
        cold = warm = float("inf")
        with ShardedScorer(forest_scorer, config) as sharded:
            for _ in range(7):
                sharded.cache.clear()
                start = time.perf_counter()
                sharded.score(x)
                cold = min(cold, time.perf_counter() - start)
                start = time.perf_counter()
                sharded.score(x)
                warm = min(warm, time.perf_counter() - start)
        assert cold >= 3.0 * warm, (
            f"warm {warm * 1e3:.2f} ms vs cold {cold * 1e3:.2f} ms: "
            f"only {cold / warm:.1f}x"
        )


def _label_keyed_parallel(registry, backend, n_shards, balance, utilization,
                          cache_hits, cache_misses):
    """The parallel recorder as label-keyed registry lookups (reference)."""
    registry.counter("parallel.requests", backend=backend).inc()
    if n_shards:
        registry.counter("parallel.shards", backend=backend).inc(n_shards)
    if np.isfinite(balance):
        registry.gauge("parallel.shard_balance", backend=backend).set(balance)
    if np.isfinite(utilization):
        registry.gauge("parallel.pool_utilization", backend=backend).set(
            utilization
        )
    if cache_hits:
        registry.counter("parallel.cache_hits", backend=backend).inc(
            cache_hits
        )
    if cache_misses:
        registry.counter("parallel.cache_misses", backend=backend).inc(
            cache_misses
        )


class TestBoundParallelSeries:
    CALLS = (
        (2, 1.25, 0.8, 30, 6),
        (0, float("nan"), float("nan"), 12, 0),
        (1, 1.0, 1.0, 0, 40),
    )

    def test_matches_label_keyed_lookups(self):
        from repro import obs
        from repro.obs.parallel import ParallelSeries

        looked_up, bound = obs.MetricsRegistry(), obs.MetricsRegistry()
        series = ParallelSeries("qs", bound)
        for call in self.CALLS * 2:
            _label_keyed_parallel(looked_up, "qs", *call)
            n_shards, balance, utilization, hits, misses = call
            series.record(
                n_shards=n_shards,
                balance=balance,
                utilization=utilization,
                cache_hits=hits,
                cache_misses=misses,
            )
        assert bound.snapshot() == looked_up.snapshot()

    def test_sharded_scorer_refetches_after_reset_and_replacement(
        self, obs_clean, forest_scorer, features
    ):
        sharded = ShardedScorer(forest_scorer, ParallelConfig(workers=1))
        x = features[:20]
        sharded.score(x)
        obs_clean.get_registry().reset()
        sharded.score(x)
        assert obs_clean.parallel_report().row("quickscorer")["requests"] == 1
        fresh = obs_clean.MetricsRegistry()
        previous = obs_clean.set_registry(fresh)
        try:
            sharded.score(x)
            sharded.score(x)
        finally:
            obs_clean.set_registry(previous)
            sharded.close()
        assert obs_clean.parallel_report(fresh).row("quickscorer")["requests"] == 2
        assert obs_clean.parallel_report().row("quickscorer")["requests"] == 1
