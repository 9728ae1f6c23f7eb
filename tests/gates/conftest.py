"""Shared fixtures of the gate tests: the self-checking end-to-end runs
that guard each serving subsystem's contracts."""

from __future__ import annotations

import ctypes
import json

import numpy as np
import pytest

from repro.obs.probe import build_probe_models
from repro.runtime import PipelineConfig, ServiceConfig
from repro.serving import ScoringService


@pytest.fixture(scope="session")
def probe_models():
    """Probe dataset (10 queries of 24 docs) and its stage models."""
    return build_probe_models(n_queries=10, docs_per_query=24, seed=3)


@pytest.fixture(scope="session")
def probe_queries(probe_models):
    dataset = probe_models["dataset"]
    return [
        dataset.features[dataset.query_slice(q)]
        for q in range(dataset.n_queries)
    ]


@pytest.fixture(scope="session")
def cascade_service(probe_models):
    """Build a three-stage budgeted pipeline behind a ScoringService.

    ``cascade_service(budget_us)`` returns a fresh service whose
    pipeline config went through JSON, as a deployed config would.
    """
    roles = {k: m for k, m in probe_models.items() if k != "dataset"}

    def build(budget_us: float | None = None) -> ScoringService:
        config = PipelineConfig(
            stages=[
                {"model": "pruned", "keep_fraction": 0.4},
                {"model": "student", "keep_fraction": 0.5},
                {"model": "forest"},
            ],
            budget_us_per_query=budget_us,
        )
        config = PipelineConfig.from_dict(
            json.loads(json.dumps(config.to_dict()))
        )
        return ScoringService(
            roles, ServiceConfig(pipeline=config, max_batch_size=None)
        )

    return build


#: The compile gates' network: the paper's 136-feature setting with a
#: 90%-pruned first layer.
GATE_INPUT_DIM = 136
GATE_HIDDEN = (400, 200, 200, 100)
GATE_PRUNE_LEVEL = 0.90


@pytest.fixture(scope="session")
def pruned_network():
    """136 -> 400 -> 200 -> 200 -> 100 -> 1, first layer 90% pruned."""
    from repro.nn.network import FeedForwardNetwork
    from repro.pruning import LevelPruner

    network = FeedForwardNetwork(GATE_INPUT_DIM, GATE_HIDDEN, seed=3)
    LevelPruner(GATE_PRUNE_LEVEL).apply(network.first_layer)
    return network


@pytest.fixture(scope="session")
def gate_features():
    """512 standard-normal rows for the compile gates."""
    return np.random.default_rng(11).standard_normal((512, GATE_INPUT_DIM))


@pytest.fixture()
def one_blas_thread():
    """numpy's OpenBLAS pinned to one thread for the test, then restored.

    Unpinned, OpenBLAS already threads a lone worker's GEMMs over every
    core, so a pool-scaling measurement would compare two threaded runs.
    Skips when numpy's bundled OpenBLAS exports no thread-count symbols.
    """
    try:
        from numpy._core import _multiarray_umath

        blas = ctypes.CDLL(_multiarray_umath.__file__)
        get_threads = blas.scipy_openblas_get_num_threads64_
        set_threads = blas.scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):
        pytest.skip("numpy's OpenBLAS exports no thread-count setter")
    previous = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(previous)
        assert get_threads() == previous, "BLAS thread count not restored"
