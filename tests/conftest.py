"""Shared fixtures.

Expensive artefacts (synthetic datasets, trained forests, distilled
students) are session-scoped so the whole suite trains each of them only
once; tests must not mutate them (clone first).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import make_msn30k_like, train_validation_test_split
from repro.distill import DistillationConfig, Distiller
from repro.forest import GradientBoostingConfig, LambdaMartRanker


@pytest.fixture(scope="session")
def tiny_dataset():
    """~120 queries / ~20 docs each, 136 features."""
    return make_msn30k_like(n_queries=120, docs_per_query=20, seed=11)


@pytest.fixture(scope="session")
def tiny_splits(tiny_dataset):
    return train_validation_test_split(tiny_dataset, seed=11)


@pytest.fixture(scope="session")
def small_forest(tiny_splits):
    """A 20-tree, 16-leaf LambdaMART ensemble (fast to train)."""
    train, vali, _ = tiny_splits
    config = GradientBoostingConfig(
        n_trees=20, max_leaves=16, learning_rate=0.15, min_data_in_leaf=5
    )
    return LambdaMartRanker(config, seed=3).fit(train, vali, name="test-forest")


@pytest.fixture(scope="session")
def small_student(tiny_splits, small_forest):
    """A small student distilled from ``small_forest``."""
    train, _, _ = tiny_splits
    config = DistillationConfig(
        epochs=20,
        batch_size=128,
        learning_rate=0.005,
        lr_milestones=(15,),
        steps_per_epoch=20,
    )
    return Distiller(config, seed=5).distill(
        small_forest, train, hidden=(64, 32)
    )


class FakeTimer:
    """Kernel timer for :class:`~repro.runtime.PricingContext` that runs
    nothing: ``cost(kernel, docs, shape)`` returns the seconds a call
    "took"; ``calls`` counts the timings asked for."""

    def __init__(self, cost) -> None:
        self.cost = cost
        self.calls = 0

    def __call__(self, run, *, kernel, docs, shape) -> float:
        self.calls += 1
        return self.cost(kernel, docs, shape)


def _favouring(winner: str):
    """Fake cost: ``winner`` 2x faster than every other kernel at every
    batch size."""

    def cost(kernel, docs, shape):
        return docs * 1e-6 * (0.5 if kernel == winner else 1.0)

    return cost


@pytest.fixture()
def fake_timer():
    """``fake_timer(cost)`` -> a :class:`FakeTimer`; ``cost`` may also
    be a kernel name, which that timer then makes 2x faster than every
    other kernel at every batch size."""

    def build(cost) -> FakeTimer:
        return FakeTimer(_favouring(cost) if isinstance(cost, str) else cost)

    return build


@pytest.fixture(scope="session")
def dense_timer():
    """A :class:`FakeTimer` under which ``dense-gemm`` wins every layer:
    the shared pricing contexts of the runtime tests use it, so their
    plans' kernels do not depend on how fast this host runs them."""
    return FakeTimer(_favouring("dense-gemm"))


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture()
def obs_clean():
    """Pristine process-wide observability state, restored after.

    Swaps in a disabled tracer, an empty registry, a disabled request
    recorder and a fresh SLO monitor; tests that enable tracing or
    assert on metric/trace/burn series use this fixture so they neither
    see nor leave behind another test's spans, counters or records.
    """
    from repro import obs

    previous_tracer = obs.set_tracer(obs.Tracer(enabled=False))
    previous_registry = obs.set_registry(obs.MetricsRegistry())
    previous_recorder = obs.set_request_recorder(obs.RequestRecorder())
    previous_monitor = obs.set_slo_monitor(obs.SloMonitor())
    try:
        yield obs
    finally:
        obs.set_tracer(previous_tracer)
        obs.set_registry(previous_registry)
        obs.set_request_recorder(previous_recorder)
        obs.set_slo_monitor(previous_monitor)


@pytest.fixture(scope="session")
def predictor_cache():
    """One calibrated NetworkTimePredictor for the whole session."""
    from repro.timing import NetworkTimePredictor

    return NetworkTimePredictor()


@pytest.fixture(scope="session")
def mini_pipeline():
    """A miniature MSN30K pipeline (tiny scale, fully end-to-end)."""
    from repro.core import EfficientRankingPipeline, ExperimentScale

    scale = ExperimentScale(
        n_queries=120,
        docs_per_query=20,
        tree_scale=0.05,
        distill_epochs=8,
        distill_milestones=(6,),
        prune_epochs=4,
        finetune_epochs=2,
        prune_milestones=(),
        seed=13,
    )
    return EfficientRankingPipeline.for_msn30k(scale)
