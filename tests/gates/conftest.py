"""Shared fixtures of the gate tests: the self-checking end-to-end runs
that guard each serving subsystem's contracts."""

from __future__ import annotations

import json

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
                {"model": "sparse-network", "keep_fraction": 0.4},
                {"model": "dense-network", "keep_fraction": 0.5},
                {"model": "quickscorer"},
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
