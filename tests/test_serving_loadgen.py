"""Load generator: deterministic schedules, Zipf skew, report aggregation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigError, ReproError
from repro.obs.probe import build_probe_models
from repro.runtime import AsyncConfig, ServiceConfig, TenantConfig
from repro.serving import (
    LoadReport,
    LoadSpec,
    ScoringService,
    build_schedule,
    make_queries,
    run_load,
)


class TestLoadSpec:
    def test_round_trip(self):
        spec = LoadSpec(
            mode="closed",
            workers=4,
            requests_per_worker=10,
            tenants=(("web", 3.0), ("batch", 1.0)),
            zipf_s=0.9,
            seed=5,
        )
        import json

        rebuilt = LoadSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt == spec

    def test_validation(self):
        with pytest.raises(ConfigError, match="mode"):
            LoadSpec(mode="sideways")
        with pytest.raises(ConfigError, match="rate_per_s"):
            LoadSpec(rate_per_s=0.0)
        with pytest.raises(ConfigError, match="weight"):
            LoadSpec(tenants=(("a", 0.0),))
        with pytest.raises(ConfigError, match="at least one"):
            LoadSpec(tenants=())
        with pytest.raises(ConfigError, match="unknown LoadSpec"):
            LoadSpec.from_dict({"velocity": 9000})


class TestSchedule:
    def test_deterministic_in_seed(self):
        spec = LoadSpec(duration_s=0.5, rate_per_s=500.0, seed=3)
        assert build_schedule(spec) == build_schedule(spec)
        other = LoadSpec(duration_s=0.5, rate_per_s=500.0, seed=4)
        assert build_schedule(other) != build_schedule(spec)

    def test_open_arrivals_ordered_within_duration(self):
        spec = LoadSpec(duration_s=0.25, rate_per_s=800.0, seed=1)
        schedule = build_schedule(spec)
        times = [a.at_s for a in schedule]
        assert times == sorted(times)
        assert all(0.0 <= t < spec.duration_s for t in times)
        # Poisson expectation: rate x duration, within wide bounds.
        assert 100 <= len(schedule) <= 320

    def test_burst_modulation_raises_volume(self):
        calm = LoadSpec(
            duration_s=1.0, rate_per_s=300.0, burst_factor=1.0, seed=2
        )
        bursty = LoadSpec(
            duration_s=1.0, rate_per_s=300.0, burst_factor=4.0, seed=2
        )
        # Half the time runs at 4x: expect ~2.5x the arrivals.
        assert len(build_schedule(bursty)) > 1.5 * len(build_schedule(calm))

    def test_closed_mode_counts(self):
        spec = LoadSpec(mode="closed", workers=6, requests_per_worker=9)
        assert len(build_schedule(spec)) == 54

    def test_zipf_skews_queries(self):
        spec = LoadSpec(
            mode="closed",
            workers=10,
            requests_per_worker=100,
            n_users=10_000,
            n_queries=50,
            zipf_s=1.4,
            seed=6,
        )
        schedule = build_schedule(spec)
        counts = np.bincount(
            [a.query for a in schedule], minlength=spec.n_queries
        )
        # Rank-1 users all map to query (1 % 50): the head must dominate
        # a uniform share and dwarf the tail.
        assert counts.max() > 3 * (len(schedule) / spec.n_queries)
        assert counts.min() < counts.max() / 10

    def test_tenant_mix_respects_weights(self):
        spec = LoadSpec(
            mode="closed",
            workers=10,
            requests_per_worker=100,
            tenants=(("heavy", 9.0), ("light", 1.0)),
            seed=8,
        )
        schedule = build_schedule(spec)
        heavy = sum(a.tenant == "heavy" for a in schedule)
        assert 0.8 < heavy / len(schedule) < 0.98

    def test_make_queries_shapes(self):
        spec = LoadSpec(n_queries=7, docs_per_query=5)
        queries = make_queries(spec, 11)
        assert len(queries) == 7
        assert all(q.shape == (5, 11) for q in queries)


class TestRunLoad:
    @pytest.fixture(scope="class")
    def service(self):
        models = build_probe_models(n_queries=4, docs_per_query=8, seed=0)
        return ScoringService(
            models["student"], ServiceConfig(backend="compiled-network")
        )

    def test_closed_run_accounts_every_request(self, service, obs_clean):
        spec = LoadSpec(
            mode="closed",
            workers=4,
            requests_per_worker=10,
            n_queries=8,
            docs_per_query=4,
            tenants=(("a", 1.0), ("b", 1.0)),
            seed=3,
        )
        report = run_load(
            service, spec, make_queries(spec, service.scorer.input_dim)
        )
        assert report.offered == 40
        assert report.errors == 0
        assert report.served + report.shed == report.offered
        assert sum(report.served_by_tenant.values()) == report.served
        serving = obs_clean.serving_report()
        assert sum(row["served"] for row in serving.rows) == report.served

    def test_rate_limited_tenant_sheds(self, service, obs_clean):
        spec = LoadSpec(
            mode="closed",
            workers=4,
            requests_per_worker=10,
            n_queries=8,
            docs_per_query=4,
            tenants=(("limited", 1.0),),
            seed=3,
        )
        frontend = AsyncConfig(
            tenants=(TenantConfig(name="limited", rate_per_s=1.0, burst=3),)
        )
        report = run_load(
            service,
            spec,
            make_queries(spec, service.scorer.input_dim),
            frontend=frontend,
        )
        assert report.shed >= 30  # 40 offered, bucket of 3 at 1/s
        assert set(report.shed_by_tenant["limited"]) == {"rate-limit"}
        assert 0.0 < report.shed_ratio < 1.0

    def test_generates_queries_from_n_features(self, service, obs_clean):
        spec = LoadSpec(
            mode="closed", workers=2, requests_per_worker=3, n_queries=4
        )
        report = run_load(
            service, spec, n_features=service.scorer.input_dim
        )
        assert report.offered == 6 and report.errors == 0

    def test_missing_queries_rejected(self, service):
        spec = LoadSpec(n_queries=4)
        with pytest.raises(ReproError, match="n_features"):
            run_load(service, spec)

    def test_report_serialises(self):
        report = LoadReport(spec=LoadSpec(), offered=10, served=8)
        report.shed_by_tenant["t"] = {"rate-limit": 2}
        data = report.to_dict()
        assert data["shed"] == 2 and data["served"] == 8
        assert data["swap_events"] == [] and data["served_by_version"] == {}
        assert "rate-limit" in report.render() or "shed" in report.render()

    def test_report_renders_swap_events(self):
        report = LoadReport(spec=LoadSpec(), offered=10, served=10)
        report.swap_events.append(
            {"at_s": 0.25, "at_request": 5, "action": "forced"}
        )
        report.served_by_version.update({"v1": 4, "v2": 6})
        rendered = report.render()
        assert "swap at 0.250s" in rendered and "forced" in rendered
        assert "v1: 4" in rendered and "v2: 6" in rendered
        assert report.to_dict()["served_by_version"] == {"v1": 4, "v2": 6}
