"""Tests for obs.serving_report(): the per-tenant traffic table."""

import math

import pytest

from repro import obs
from repro.obs.metrics import MetricsRegistry
from repro.obs.serving import (
    record_admitted,
    record_batch,
    record_response,
    record_shed,
    serving_report,
)


@pytest.fixture
def reg():
    return MetricsRegistry()


class TestServingReport:
    def test_empty_registry(self, reg):
        report = serving_report(reg)
        assert report.rows == ()
        assert report.totals["batches"] == 0
        assert math.isnan(report.totals["mean_batch_requests"])
        assert report.render() == "(no serving traffic recorded)"

    def test_mixed_shed_reasons_per_tenant(self, reg):
        for _ in range(3):
            record_shed("web", "rate-limit", registry=reg)
        record_shed("web", "queue-depth", registry=reg)
        record_shed("web", "tenant-queue-depth", registry=reg)
        record_admitted("web", registry=reg)
        row = serving_report(reg).row("web")
        assert row["shed"] == 5
        assert row["shed_reasons"] == (
            ("queue-depth", 1),
            ("rate-limit", 3),
            ("tenant-queue-depth", 1),
        )
        assert row["offered"] == 6
        assert row["shed_ratio"] == pytest.approx(5 / 6)

    def test_multi_tenant_rows_sorted_and_separate(self, reg):
        record_admitted("web", registry=reg)
        record_admitted("web", registry=reg)
        record_response("web", 100.0, registry=reg)
        record_admitted("batch", registry=reg)
        record_shed("batch", "rate-limit", registry=reg)
        report = serving_report(reg)
        assert [r["tenant"] for r in report.rows] == ["batch", "web"]
        assert report.row("web")["admitted"] == 2
        assert report.row("web")["served"] == 1
        assert report.row("batch")["shed"] == 1
        assert report.row("missing") is None

    def test_slo_miss_column_and_ratio(self, reg):
        # Three served under a 500us SLO: two hit, one miss.
        record_admitted("web", registry=reg)
        record_response("web", 100.0, slo_us=500.0, registry=reg)
        record_response("web", 200.0, slo_us=500.0, registry=reg)
        record_response("web", 900.0, slo_us=500.0, registry=reg)
        row = serving_report(reg).row("web")
        assert row["served"] == 3
        assert row["slo_miss"] == 1
        assert row["slo_miss_ratio"] == pytest.approx(1 / 3)
        assert row["p50_us"] == pytest.approx(200.0)
        # The rendered table carries the column.
        text = serving_report(reg).render()
        assert "slo miss" in text and "web" in text

    def test_shed_only_tenant_has_nan_latency(self, reg):
        record_shed("limited", "rate-limit", registry=reg)
        row = serving_report(reg).row("limited")
        assert row["served"] == 0 and row["admitted"] == 0
        assert math.isnan(row["p99_us"])
        assert math.isnan(row["slo_miss_ratio"])
        # Render must not choke on the NaN percentiles.
        assert "limited" in serving_report(reg).render()

    def test_coalescing_summary(self, reg):
        record_batch(n_requests=4, n_docs=40, queue_depth=2, registry=reg)
        record_batch(n_requests=8, n_docs=80, queue_depth=5, registry=reg)
        report = serving_report(reg)
        assert report.totals["batches"] == 2
        assert report.totals["mean_batch_requests"] == pytest.approx(6.0)
        assert report.totals["mean_batch_docs"] == pytest.approx(60.0)
        assert report.totals["last_queue_depth"] == 5.0
        assert "2 batches" in report.render()

    def test_default_registry_via_module_api(self, obs_clean):
        obs.record_admitted("web")
        obs.record_response("web", 123.0)
        row = obs.serving_report().row("web")
        assert row["admitted"] == 1 and row["served"] == 1
