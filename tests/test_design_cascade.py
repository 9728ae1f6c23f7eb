"""Tests for repro.design.cascade (early-exit extension)."""

import math

import numpy as np
import pytest

from repro.design import CascadeStage, EarlyExitCascade
from repro.exceptions import CascadeError, ReproError
from repro.metrics import mean_ndcg


def linear_scorer(weights):
    weights = np.asarray(weights, dtype=np.float64)

    def score(features):
        return features @ weights

    return score


class TestCascadeStage:
    def test_invalid_keep(self):
        with pytest.raises(ValueError):
            CascadeStage("s", lambda x: x[:, 0], 1.0, keep_fraction=0.0)

    def test_invalid_cost(self):
        with pytest.raises(ValueError):
            CascadeStage("s", lambda x: x[:, 0], -1.0)


class TestExpectedCost:
    def test_single_stage(self):
        cascade = EarlyExitCascade(
            [CascadeStage("a", lambda x: x[:, 0], 2.0)]
        )
        assert cascade.expected_cost_us_per_doc() == pytest.approx(2.0)

    def test_two_stage_amortization(self):
        cascade = EarlyExitCascade(
            [
                CascadeStage("cheap", lambda x: x[:, 0], 0.2, keep_fraction=0.25),
                CascadeStage("expensive", lambda x: x[:, 0], 4.0),
            ]
        )
        assert cascade.expected_cost_us_per_doc() == pytest.approx(0.2 + 0.25 * 4.0)

    def test_three_stage_geometric(self):
        cascade = EarlyExitCascade(
            [
                CascadeStage("a", lambda x: x[:, 0], 1.0, keep_fraction=0.5),
                CascadeStage("b", lambda x: x[:, 0], 2.0, keep_fraction=0.5),
                CascadeStage("c", lambda x: x[:, 0], 4.0),
            ]
        )
        assert cascade.expected_cost_us_per_doc() == pytest.approx(
            1.0 + 0.5 * 2.0 + 0.25 * 4.0
        )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            EarlyExitCascade([])


class TestScoring:
    def test_single_stage_order_matches_scorer(self, rng):
        x = rng.normal(size=(12, 3))
        w = np.asarray([1.0, -0.5, 0.2])
        cascade = EarlyExitCascade([CascadeStage("a", linear_scorer(w), 1.0)])
        scores = cascade.score_query(x)
        np.testing.assert_array_equal(np.argsort(-scores), np.argsort(-(x @ w)))

    def test_survivors_outrank_dropouts(self, rng):
        x = rng.normal(size=(20, 3))
        stage1 = linear_scorer([1.0, 0.0, 0.0])
        stage2 = linear_scorer([0.0, 1.0, 0.0])
        cascade = EarlyExitCascade(
            [
                CascadeStage("a", stage1, 0.1, keep_fraction=0.3),
                CascadeStage("b", stage2, 1.0),
            ]
        )
        scores = cascade.score_query(x)
        survivors = np.argsort(-stage1(x))[:6]
        dropout_max = np.delete(scores, survivors).max()
        assert scores[survivors].min() > dropout_max

    def test_perfect_final_stage_preserves_top(self, rng):
        # With a perfect second stage and generous keep fraction, the
        # cascade's NDCG@k matches the oracle's on the survivors.
        from repro.datasets import make_msn30k_like

        data = make_msn30k_like(n_queries=30, docs_per_query=15, seed=5)
        oracle = lambda feats: feats[:, :40].sum(axis=1)  # noqa: E731
        cascade = EarlyExitCascade(
            [
                CascadeStage("oracle-cheap", oracle, 0.1, keep_fraction=0.8),
                CascadeStage("oracle", oracle, 1.0),
            ]
        )
        cascade_ndcg = mean_ndcg(data, cascade.score_dataset(data), 5)
        direct = np.concatenate(
            [oracle(f) for f, _ in data.iter_queries()]
        )
        direct_ndcg = mean_ndcg(data, direct, 5)
        assert cascade_ndcg == pytest.approx(direct_ndcg, abs=0.02)

    def test_stage_output_validated(self, rng):
        bad = CascadeStage("bad", lambda x: np.zeros((2, 2)), 1.0)
        cascade = EarlyExitCascade([bad])
        with pytest.raises(ValueError, match="returned shape"):
            cascade.score_query(rng.normal(size=(5, 3)))

    def test_zero_doc_query_is_noop(self):
        # Regression: score_query crashed on empty queries (min() of an
        # empty score array); the contract now matches BatchEngine's
        # zero-doc no-op.
        cascade = EarlyExitCascade(
            [
                CascadeStage("a", lambda x: x[:, 0], 0.1, keep_fraction=0.5),
                CascadeStage("b", lambda x: x[:, 0], 1.0),
            ]
        )
        scores = cascade.score_query(np.zeros((0, 3)))
        assert scores.shape == (0,)
        assert scores.dtype == np.float64
        detailed = cascade.score_query_detailed(np.zeros((0, 3)))
        assert detailed.stages_run == 0
        assert detailed.predicted_spend_us == 0.0
        assert not detailed.exited_early

    def test_score_dataset_with_empty_query_slice(self):
        # LtrDataset cannot represent a zero-doc query, so the empty
        # slice arrives through a duck-typed stand-in — exactly what a
        # pre-filtered serving dataset looks like.
        class Stub:
            features = np.arange(24.0).reshape(8, 3)
            n_docs = 8
            n_queries = 3
            _slices = [slice(0, 4), slice(4, 4), slice(4, 8)]

            def query_slice(self, qi):
                return self._slices[qi]

        cascade = EarlyExitCascade(
            [
                CascadeStage("a", lambda x: x[:, 0], 0.1, keep_fraction=0.5),
                CascadeStage("b", lambda x: -x[:, 1], 1.0),
            ]
        )
        scores = cascade.score_dataset(Stub())
        assert scores.shape == (8,)
        assert np.isfinite(scores).all()

    def test_nan_stage_raises_naming_the_stage(self, rng):
        # Regression: NaN/inf stage scores silently corrupted the band
        # offsets (NaN min/max poisons the normalization) instead of
        # failing loudly.
        def poisoned(x):
            scores = x[:, 0].copy()
            scores[0] = np.nan
            return scores

        cascade = EarlyExitCascade(
            [
                CascadeStage("cheap", lambda x: x[:, 0], 0.1, keep_fraction=0.5),
                CascadeStage("poisoned-net", poisoned, 1.0),
            ]
        )
        with pytest.raises(CascadeError, match="poisoned-net"):
            cascade.score_query(rng.normal(size=(10, 3)))

    def test_inf_stage_raises(self, rng):
        bad = CascadeStage("diverged", lambda x: x[:, 0] * np.inf, 1.0)
        with pytest.raises(CascadeError, match="diverged"):
            EarlyExitCascade([bad]).score_query(rng.normal(size=(4, 3)))

    def test_cascade_error_is_repro_error(self):
        assert issubclass(CascadeError, ReproError)

    def test_describe(self):
        cascade = EarlyExitCascade(
            [
                CascadeStage("net", lambda x: x[:, 0], 0.3, keep_fraction=0.2),
                CascadeStage("forest", lambda x: x[:, 0], 3.0),
            ]
        )
        text = cascade.describe()
        assert "net" in text and "keep 20%" in text


class TestSurvivorCutPolicy:
    """The ceil cut policy, pinned (regression for banker's rounding)."""

    def _stage(self, keep):
        return CascadeStage("s", lambda x: x[:, 0], 1.0, keep_fraction=keep)

    def test_half_of_five_promotes_three(self):
        # int(round(0.5 * 5)) == 2 under banker's rounding; the pinned
        # ceil policy promotes 3 — at least the configured share.
        assert self._stage(0.5).survivor_count(5) == 3

    def test_half_of_six_promotes_three(self):
        assert self._stage(0.5).survivor_count(6) == 3

    def test_pinned_table(self):
        # (keep, n_alive) -> survivors; the documented contract.
        table = {
            (0.3, 10): 3,
            (0.25, 10): 3,  # ceil(2.5), round() would give 2
            (0.1, 4): 1,
            (0.01, 3): 1,  # floor of one survivor
            (1.0, 7): 7,
            (0.999, 1): 1,
        }
        for (keep, n), expected in table.items():
            assert self._stage(keep).survivor_count(n) == expected, (keep, n)

    def test_zero_alive(self):
        assert self._stage(0.5).survivor_count(0) == 0

    def test_monotone_in_query_length(self):
        stage = self._stage(0.37)
        counts = [stage.survivor_count(n) for n in range(1, 50)]
        assert counts == sorted(counts)


class TestBudget:
    def _cascade(self, budget):
        return EarlyExitCascade(
            [
                CascadeStage("a", lambda x: x[:, 0], 1.0, keep_fraction=0.5),
                CascadeStage("b", lambda x: x[:, 1], 4.0, keep_fraction=0.5),
                CascadeStage("c", lambda x: x[:, 2], 16.0),
            ],
            budget_us_per_query=budget,
        )

    def test_invalid_budget_rejected(self):
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                self._cascade(bad)

    def test_unbudgeted_runs_every_stage(self, rng):
        result = self._cascade(None).score_query_detailed(
            rng.normal(size=(8, 3))
        )
        assert result.stages_run == 3
        assert not result.exited_early
        # 8 docs -> 4 -> 2: spend = 8*1 + 4*4 + 2*16.
        assert result.predicted_spend_us == pytest.approx(56.0)

    def test_tight_budget_stops_after_first_stage(self, rng):
        # 8 docs: stage 1 spends 8; promoting 4 to stage 2 would add 16.
        result = self._cascade(20.0).score_query_detailed(
            rng.normal(size=(8, 3))
        )
        assert result.stages_run == 1
        assert result.exited_early
        assert result.predicted_spend_us == pytest.approx(8.0)

    def test_budget_allows_partial_promotion(self, rng):
        # Budget 30: 8 + 16 = 24 fits, promoting 2 to stage c adds 32.
        result = self._cascade(30.0).score_query_detailed(
            rng.normal(size=(8, 3))
        )
        assert result.stages_run == 2
        assert result.exited_early
        assert result.predicted_spend_us == pytest.approx(24.0)

    def test_first_stage_exempt(self, rng):
        # Even a budget below the first stage's cost still ranks.
        result = self._cascade(0.5).score_query_detailed(
            rng.normal(size=(8, 3))
        )
        assert result.stages_run == 1
        assert result.predicted_spend_us == pytest.approx(8.0)

    def test_predicted_spend_bound(self, rng):
        for budget in (0.5, 8.0, 20.0, 30.0, 100.0):
            cascade = self._cascade(budget)
            result = cascade.score_query_detailed(rng.normal(size=(8, 3)))
            assert result.predicted_spend_us <= max(budget, 8 * 1.0) + 1e-9

    def test_closed_form_matches_detailed(self, rng):
        for budget in (None, 0.5, 20.0, 30.0, 1000.0):
            cascade = self._cascade(budget)
            for n in (1, 2, 5, 8, 31):
                result = cascade.score_query_detailed(
                    rng.normal(size=(n, 3))
                )
                assert result.predicted_spend_us == pytest.approx(
                    cascade.predicted_query_spend_us(n)
                ), (budget, n)

    def test_budget_in_describe(self):
        assert "budget 30 us/query" in self._cascade(30.0).describe()


class TestRefinementProperty:
    """Cascade output is always a refinement, never a shuffle."""

    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(
        data=st.data(),
        n_docs=st.integers(1, 40),
        n_stages=st.integers(1, 4),
        budgeted=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_dropouts_rank_below_survivors(
        self, data, n_docs, n_stages, budgeted
    ):
        st = self.st
        rng = np.random.default_rng(
            data.draw(st.integers(0, 2**32 - 1), label="seed")
        )
        # Integer-valued features force plenty of tied stage scores.
        x = rng.integers(-2, 3, size=(n_docs, max(n_stages, 1))).astype(
            np.float64
        )
        stages = []
        for i in range(n_stages):
            keep = data.draw(
                st.floats(0.05, 1.0, allow_nan=False), label=f"keep{i}"
            )
            cost = data.draw(
                st.floats(0.01, 5.0, allow_nan=False), label=f"cost{i}"
            )
            stages.append(
                CascadeStage(
                    f"s{i}",
                    (lambda col: lambda f: f[:, col])(i),
                    cost,
                    keep_fraction=keep,
                )
            )
        budget = (
            data.draw(st.floats(0.5, 50.0, allow_nan=False), label="budget")
            if budgeted
            else None
        )
        cascade = EarlyExitCascade(stages, budget_us_per_query=budget)
        result = cascade.score_query_detailed(x)

        assert result.scores.shape == (n_docs,)
        assert np.isfinite(result.scores).all()
        assert 1 <= result.stages_run <= n_stages
        # Survivor sets nest, and every stage-i dropout's final score is
        # strictly below every doc the next stage evaluated.
        np.testing.assert_array_equal(result.survivors[0], np.arange(n_docs))
        for level in range(result.stages_run - 1):
            prev = set(result.survivors[level].tolist())
            nxt = set(result.survivors[level + 1].tolist())
            assert nxt <= prev
            assert len(nxt) == stages[level].survivor_count(len(prev))
            dropped = sorted(prev - nxt)
            if dropped:
                assert (
                    result.scores[dropped].max()
                    < result.scores[sorted(nxt)].min()
                )
        # Budget accounting matches the closed form and its bound.
        assert result.predicted_spend_us == pytest.approx(
            cascade.predicted_query_spend_us(n_docs)
        )
        if budget is not None:
            bound = max(budget, n_docs * stages[0].cost_us_per_doc)
            assert result.predicted_spend_us <= bound + 1e-9

    @given(
        costs=st.lists(st.floats(0.01, 10.0), min_size=1, max_size=4),
        keeps=st.lists(st.floats(0.05, 1.0), min_size=4, max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_expected_cost_closed_form(self, costs, keeps):
        # expected_cost == c1 + k1*c2 + k1*k2*c3 + k1*k2*k3*c4 for every
        # stage count from 1 to 4.
        stages = [
            CascadeStage(f"s{i}", lambda x: x[:, 0], c, keep_fraction=k)
            for i, (c, k) in enumerate(zip(costs, keeps))
        ]
        cascade = EarlyExitCascade(stages)
        expected = 0.0
        alive = 1.0
        for i, (c, k) in enumerate(zip(costs, keeps)):
            expected += alive * c
            if i < len(costs) - 1:
                alive *= k
        assert cascade.expected_cost_us_per_doc() == pytest.approx(expected)


class TestCascadeCostProperties:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(
        costs=st.lists(st.floats(0.01, 10.0), min_size=1, max_size=5),
        keeps=st.lists(st.floats(0.05, 1.0), min_size=5, max_size=5),
    )
    @settings(max_examples=50, deadline=None)
    def test_expected_cost_bounds(self, costs, keeps):
        stages = [
            CascadeStage(f"s{i}", lambda x: x[:, 0], c, keep_fraction=k)
            for i, (c, k) in enumerate(zip(costs, keeps))
        ]
        cascade = EarlyExitCascade(stages)
        cost = cascade.expected_cost_us_per_doc()
        # Bounded by running every stage on every document, and at least
        # the first stage's full cost.
        assert costs[0] <= cost <= sum(costs) + 1e-9

    @given(
        cost2=st.floats(0.5, 10.0),
        keep_small=st.floats(0.05, 0.4),
        keep_large=st.floats(0.6, 1.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_tighter_cut_is_cheaper(self, cost2, keep_small, keep_large):
        def cascade_with(keep):
            return EarlyExitCascade(
                [
                    CascadeStage("a", lambda x: x[:, 0], 0.1, keep_fraction=keep),
                    CascadeStage("b", lambda x: x[:, 0], cost2),
                ]
            ).expected_cost_us_per_doc()

        assert cascade_with(keep_small) < cascade_with(keep_large)


class TestCascadeOnPipeline:
    def test_cascade_cheaper_than_forest_alone(self, mini_pipeline):
        forest_eval = mini_pipeline.evaluate_forest(mini_pipeline.zoo.mid_forest)
        net_eval = mini_pipeline.evaluate_network(
            mini_pipeline.zoo.low_latency[2], pruned=True
        )
        student = mini_pipeline.pruned_student(mini_pipeline.zoo.low_latency[2])
        forest = mini_pipeline.forest(mini_pipeline.zoo.mid_forest)
        cascade = EarlyExitCascade(
            [
                CascadeStage(
                    "pruned-net",
                    student.predict,
                    net_eval.time_us,
                    keep_fraction=0.3,
                ),
                CascadeStage("forest", forest.predict, forest_eval.time_us),
            ]
        )
        assert cascade.expected_cost_us_per_doc() < forest_eval.time_us
        scores = cascade.score_dataset(mini_pipeline.test)
        ndcg = mean_ndcg(mini_pipeline.test, scores, 10)
        assert ndcg > 0.3  # sane ranking quality end to end


class TestScoreQueriesTogether:
    """Queries scored together, stage by stage, equal each query alone."""

    from hypothesis import given, settings
    from hypothesis import strategies as st

    @staticmethod
    def _cascade(keeps, budget, calls):
        def stage_fn(column):
            def score(x):
                calls.append(len(x))
                # Row-wise and integer-valued: bit-exact whatever the
                # call size, with plenty of ties.
                return np.round(x[:, column] * 3.0) + x[:, column + 1]

            return score

        stages = [
            CascadeStage(f"s{i}", stage_fn(i), cost, keep_fraction=keep)
            for i, (cost, keep) in enumerate(zip((1.0, 2.0, 4.0), keeps))
        ]
        return EarlyExitCascade(stages, budget_us_per_query=budget)

    # 0-doc, 1-doc, small, and larger than the stage-call cap.
    SIZES = st.one_of(
        st.just(0), st.just(1), st.integers(2, 40), st.integers(129, 300)
    )

    @given(
        data=st.data(),
        rows=st.lists(SIZES, min_size=1, max_size=6),
        keeps=st.tuples(
            st.sampled_from((0.3, 0.5, 1.0)), st.sampled_from((0.3, 0.5, 1.0))
        ),
        budget=st.one_of(st.none(), st.floats(5.0, 900.0)),
    )
    @settings(max_examples=60, deadline=None)
    def test_each_query_equals_its_lone_run(self, data, rows, keeps, budget):
        from repro.design.cascade import STAGE_CALL_DOCS

        rng = np.random.default_rng(
            data.draw(self.st.integers(0, 2**32 - 1), label="seed")
        )
        x = rng.normal(size=(sum(rows), 4))
        calls: list[int] = []
        cascade = self._cascade(keeps + (1.0,), budget, calls)
        scores, together = cascade.score_queries_detailed(x, rows)
        assert max(calls, default=0) <= STAGE_CALL_DOCS
        assert len(together) == len(rows)
        lo = 0
        for n, result in zip(rows, together):
            alone = cascade.score_query_detailed(x[lo : lo + n])
            np.testing.assert_array_equal(result.scores, alone.scores)
            np.testing.assert_array_equal(scores[lo : lo + n], alone.scores)
            assert len(result.survivors) == len(alone.survivors)
            for mine, theirs in zip(result.survivors, alone.survivors):
                np.testing.assert_array_equal(mine, theirs)
            assert result.predicted_spend_us == alone.predicted_spend_us
            assert result.exited_early == alone.exited_early
            assert result.stage_docs == alone.stage_docs
            lo += n

    def test_budget_exits_differ_per_query(self):
        calls: list[int] = []
        cascade = self._cascade((0.5, 0.5, 1.0), 60.0, calls)
        rows = (4, 30, 50)
        x = np.random.default_rng(0).normal(size=(sum(rows), 4))
        _, results = cascade.score_queries_detailed(x, rows)
        assert [r.stages_run for r in results] == [3, 2, 1]
        assert [r.exited_early for r in results] == [False, True, True]

    @staticmethod
    def _per_query_loop(cascade, x, rows):
        """The per-query loop the segment reductions replaced: scores,
        survivors, spend and exits of each query run on its own."""
        out, results = np.zeros(len(x)), []
        lo = 0
        for n in rows:
            idx, survivors, spend, exited = np.arange(lo, lo + n), [], 0.0, False
            for level, stage in enumerate(cascade.stages):
                if not len(idx):
                    break
                scores = np.asarray(stage.score_fn(x[idx]), dtype=np.float64)
                survivors.append(idx - lo)
                spend += len(idx) * stage.cost_us_per_doc
                low, high = scores.min(), scores.max()
                width = (high - low) or 1.0
                out[idx] = level + (scores - low) / width * 0.999
                if level == len(cascade.stages) - 1:
                    break
                n_keep = min(len(idx), max(1, math.ceil(stage.keep_fraction * len(idx))))
                budget = cascade.budget_us_per_query
                nxt = n_keep * cascade.stages[level + 1].cost_us_per_doc
                if budget is not None and spend + nxt > budget:
                    exited = True
                    break
                idx = idx[np.argsort(-scores, kind="stable")[:n_keep]]
            results.append((survivors, spend, exited))
            lo += n
        return out, results

    @given(
        data=st.data(),
        rows=st.lists(SIZES, min_size=1, max_size=6),
        keeps=st.tuples(
            st.sampled_from((0.3, 0.5, 1.0)), st.sampled_from((0.3, 0.5, 1.0))
        ),
        budget=st.one_of(st.none(), st.floats(5.0, 900.0)),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_the_per_query_loop(self, data, rows, keeps, budget):
        rng = np.random.default_rng(
            data.draw(self.st.integers(0, 2**32 - 1), label="seed")
        )
        x = rng.normal(size=(sum(rows), 4))
        cascade = self._cascade(keeps + (1.0,), budget, [])
        scores, together = cascade.score_queries_detailed(x, rows)
        expected, loop = self._per_query_loop(cascade, x, rows)
        np.testing.assert_array_equal(scores, expected)
        for result, (survivors, spend, exited) in zip(together, loop):
            assert len(result.survivors) == len(survivors)
            for mine, theirs in zip(result.survivors, survivors):
                np.testing.assert_array_equal(mine, theirs)
            assert result.predicted_spend_us == spend
            assert result.exited_early == exited

    def test_stages_share_calls(self):
        calls: list[int] = []
        cascade = self._cascade((0.5, 0.5, 1.0), None, calls)
        rows = (20,) * 16
        x = np.random.default_rng(1).normal(size=(sum(rows), 4))
        _, results = cascade.score_queries_detailed(x, rows)
        # 320 docs in 128-doc calls, then 160 in 128 + 32, then 80.
        assert calls == [128, 128, 64, 128, 32, 80]
        first = results[0]
        assert first.stage_batch_docs == (320, 160, 80)
        assert first.stage_docs == (20, 10, 5)
        (start, end) = first.stage_spans[0]
        assert first.stage_us[0] == pytest.approx((end - start) * 1e6 / 16)

    def test_lone_query_gets_whole_spans(self):
        cascade = self._cascade((0.5, 0.5, 1.0), None, [])
        result = cascade.score_query_detailed(
            np.random.default_rng(2).normal(size=(12, 4))
        )
        assert result.stage_batch_docs == result.stage_docs
        assert result.stage_us == tuple(
            (end - start) * 1e6 for start, end in result.stage_spans
        )

    def test_non_batchable_stage_is_called_per_query(self):
        class Ranker:
            batchable = False

            def __init__(self):
                self.calls = []

            def score(self, x):
                self.calls.append(len(x))
                return x[:, 0].copy()

        ranker = Ranker()
        cascade = EarlyExitCascade(
            [
                CascadeStage("cheap", lambda x: x[:, 1], 1.0, keep_fraction=0.5),
                CascadeStage("ranker", ranker.score, 1.0),
            ]
        )
        assert not cascade.stages[1].batchable
        rows = (6, 0, 10)
        x = np.random.default_rng(3).normal(size=(16, 2))
        scores, _ = cascade.score_queries_detailed(x, rows)
        assert ranker.calls == [3, 5]
        np.testing.assert_array_equal(
            scores,
            np.concatenate(
                [cascade.score_query(x[:6]), cascade.score_query(x[6:])]
            ),
        )

    def test_rows_must_tile_the_features(self):
        cascade = self._cascade((0.5, 0.5, 1.0), None, [])
        with pytest.raises(ValueError, match="tile"):
            cascade.score_queries_detailed(np.zeros((5, 4)), (2, 2))

    def test_nan_in_one_query_fails_the_whole_call(self):
        cascade = self._cascade((0.5, 0.5, 1.0), None, [])
        x = np.random.default_rng(4).normal(size=(8, 4))
        x[5, 0] = np.nan
        with pytest.raises(CascadeError, match="1 NaN"):
            cascade.score_queries_detailed(x, (4, 4))
