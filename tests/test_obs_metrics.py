"""Tests for repro.obs.metrics and the exporters (JSON + Prometheus)."""

import json
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.export import (
    prometheus_name,
    render_json,
    render_prometheus,
    snapshot_dict,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    MetricError,
    MetricsRegistry,
    StreamingHistogram,
)
from repro.obs.tracer import Tracer


class TestCounter:
    def test_increments(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.value == pytest.approx(3.5)

    def test_rejects_negative(self):
        with pytest.raises(MetricError, match="only go up"):
            Counter().inc(-1)

    def test_thread_safe_increments(self):
        c = Counter()

        def worker():
            for _ in range(1000):
                c.inc()

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 8000


class TestGauge:
    def test_last_write_wins(self):
        g = Gauge()
        assert np.isnan(g.value)
        g.set(3)
        g.set(-1.5)
        assert g.value == -1.5


class TestStreamingHistogram:
    def test_exact_below_capacity(self):
        h = StreamingHistogram(capacity=128)
        values = list(range(100))
        h.extend(values)
        assert h.count == 100
        assert h.sum == sum(values)
        assert h.min == 0 and h.max == 99
        assert h.percentile(50) == pytest.approx(np.percentile(values, 50))
        assert h.percentile(0) == 0 and h.percentile(100) == 99

    def test_memory_bounded_beyond_capacity(self):
        h = StreamingHistogram(capacity=64)
        for i in range(10_000):
            h.add(float(i % 100))
        # The reservoir never grows past its capacity...
        assert h._reservoir.shape == (64,)
        # ...while exact accumulators keep tracking the full stream.
        assert h.count == 10_000
        assert h.min == 0.0 and h.max == 99.0
        assert h.mean == pytest.approx(49.5, abs=0.5)
        # The sampled median of a uniform 0..99 stream lands mid-range.
        assert 20.0 <= h.percentile(50) <= 80.0

    def test_same_seed_same_reservoir(self):
        stream = np.random.default_rng(3).standard_normal(5000)
        a, b, c = (StreamingHistogram(capacity=64, seed=s) for s in (7, 7, 8))
        for h in (a, b, c):
            h.extend(stream)
        np.testing.assert_array_equal(a._reservoir, b._reservoir)
        assert not np.array_equal(a._reservoir, c._reservoir)

    def test_reservoir_is_a_uniform_sample_of_a_long_stream(self):
        """Every position of a 10k stream is kept with probability
        capacity / 10k: pooled over 20 seeds, each tenth of the stream
        holds a tenth of the kept values (400 +- 5 sd of ~19)."""
        kept = []
        for seed in range(20):
            h = StreamingHistogram(capacity=200, seed=seed)
            h.extend(float(i) for i in range(10_000))
            kept.append(h._reservoir.copy())
        deciles = np.bincount(
            (np.concatenate(kept) // 1000).astype(int), minlength=10
        )
        assert deciles.sum() == 4000
        assert np.all(np.abs(deciles - 400) <= 95), deciles

    def test_percentile_domain(self):
        h = StreamingHistogram()
        h.add(1.0)
        with pytest.raises(MetricError, match=r"\[0, 100\]"):
            h.percentile(-1)
        with pytest.raises(MetricError, match=r"\[0, 100\]"):
            h.percentile(100.5)

    def test_rejects_non_finite(self):
        h = StreamingHistogram()
        with pytest.raises(MetricError, match="finite"):
            h.add(float("nan"))
        with pytest.raises(MetricError, match="finite"):
            h.add(float("inf"))

    def test_empty_snapshot_is_nan(self):
        h = StreamingHistogram()
        snap = h.snapshot()
        assert snap["count"] == 0
        assert np.isnan(snap["p50"]) and np.isnan(snap["mean"])

    def test_invalid_capacity(self):
        with pytest.raises(MetricError, match="capacity"):
            StreamingHistogram(capacity=0)


class TestStreamingHistogramMerge:
    def test_exact_when_pooled_fits(self):
        a = StreamingHistogram(capacity=128)
        b = StreamingHistogram(capacity=128)
        a.extend([1.0, 2.0, 3.0])
        b.extend([10.0, 20.0])
        assert a.merge(b) is a
        assert a.count == 5
        assert a.sum == pytest.approx(36.0)
        assert a.min == 1.0 and a.max == 20.0
        assert a.percentile(50) == pytest.approx(
            np.percentile([1.0, 2.0, 3.0, 10.0, 20.0], 50)
        )
        # The donor is untouched.
        assert b.count == 2 and b.sum == pytest.approx(30.0)

    def test_merge_empty_is_noop(self):
        a = StreamingHistogram()
        a.extend([1.0, 2.0])
        a.merge(StreamingHistogram())
        assert a.count == 2 and a.sum == pytest.approx(3.0)

    def test_merge_into_empty(self):
        a = StreamingHistogram()
        b = StreamingHistogram()
        b.extend([4.0, 5.0])
        a.merge(b)
        assert a.count == 2 and a.min == 4.0 and a.max == 5.0

    def test_rejects_non_histogram_and_self(self):
        h = StreamingHistogram()
        with pytest.raises(MetricError, match="StreamingHistogram"):
            h.merge(Counter())
        with pytest.raises(MetricError, match="itself"):
            h.merge(h)

    @given(
        left=st.lists(
            st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False),
            max_size=200,
        ),
        right=st.lists(
            st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False),
            max_size=200,
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_merge_matches_pooled_stream(self, left, right):
        # Exact accumulators must always equal the pooled stream's, and
        # when the pooled values fit the reservoir the percentiles must
        # be exact too (the sampled path is covered separately below).
        a = StreamingHistogram(capacity=512)
        b = StreamingHistogram(capacity=512)
        a.extend(left)
        b.extend(right)
        a.merge(b)
        pooled = left + right
        assert a.count == len(pooled)
        assert a.sum == pytest.approx(sum(pooled), rel=1e-9, abs=1e-9)
        if pooled:
            assert a.min == min(pooled) and a.max == max(pooled)
            if len(pooled) <= 512:
                assert a.percentile(50) == pytest.approx(
                    np.percentile(pooled, 50)
                )
        else:
            assert np.isnan(a.percentile(50))

    def test_sampled_merge_tracks_pooled_percentiles(self):
        # Both reservoirs overflow: the merged reservoir is a weighted
        # subsample, so percentiles are approximate but must land near
        # the pooled distribution's.
        a = StreamingHistogram(capacity=64)
        b = StreamingHistogram(capacity=64)
        rng = np.random.default_rng(7)
        low = rng.uniform(0.0, 100.0, size=2_000)
        high = rng.uniform(900.0, 1000.0, size=2_000)
        a.extend(low)
        b.extend(high)
        a.merge(b)
        pooled = np.concatenate([low, high])
        assert a.count == 4_000
        assert a.sum == pytest.approx(pooled.sum(), rel=1e-9)
        # Median of the bimodal pool sits in the gap between the modes.
        assert 50.0 <= a.percentile(50) <= 950.0
        # Each mode contributes ~half the reservoir, so the quartiles
        # must land inside their respective modes.
        assert a.percentile(10) <= 100.0
        assert a.percentile(90) >= 900.0


class TestMetricsRegistry:
    def test_get_or_create_returns_same_instance(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        assert reg.counter("x", backend="a") is not reg.counter(
            "x", backend="b"
        )

    def test_kind_collision_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(MetricError, match="registered as a counter"):
            reg.gauge("x")
        with pytest.raises(MetricError, match="registered as a counter"):
            reg.histogram("x")

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("reqs", backend="qs").inc(3)
        reg.gauge("drift").set(1.25)
        reg.histogram("lat").add(10.0)
        snap = reg.snapshot()
        by_name = {s["name"]: s for s in snap["series"]}
        assert by_name["reqs"]["value"] == 3
        assert by_name["reqs"]["labels"] == {"backend": "qs"}
        assert by_name["drift"]["kind"] == "gauge"
        assert by_name["lat"]["count"] == 1

    def test_reset(self):
        reg = MetricsRegistry()
        reg.counter("x").inc()
        reg.reset()
        assert reg.snapshot()["series"] == []

    def test_keyword_order_never_creates_a_second_series(self):
        reg = MetricsRegistry()
        first = reg.histogram("lat", backend="qs", stage=1, tenant="web")
        for labels in (
            {"stage": 1, "backend": "qs", "tenant": "web"},
            {"tenant": "web", "stage": 1, "backend": "qs"},
            {"tenant": "web", "stage": "1", "backend": "qs"},
        ):
            for _ in range(2):  # first lookup fills the index, second hits it
                assert reg.histogram("lat", **labels) is first
        assert len(reg.snapshot()["series"]) == 1

    def test_equal_values_with_different_text_stay_apart(self):
        """``True == 1`` and ``-0.0 == 0.0``, but their label text
        differs, so they name different series."""
        reg = MetricsRegistry()
        one = reg.counter("x", flag=1)
        assert reg.counter("x", flag=True) is not one
        assert reg.counter("x", flag=1) is one
        zero = reg.counter("y", at=0.0)
        assert reg.counter("y", at=-0.0) is not zero
        assert reg.counter("y", at=0.0) is zero

    def test_reset_clears_the_unsorted_index(self):
        reg = MetricsRegistry()
        old = reg.counter("x", backend="a")
        reg.reset()
        new = reg.counter("x", backend="a")
        assert new is not old
        assert reg.counter("x", backend="a") is new


class TestPrometheusExport:
    def test_name_sanitisation(self):
        assert prometheus_name("scoring.drift_pct") == "scoring_drift_pct"
        assert prometheus_name("9lives") == "_9lives"
        assert prometheus_name("a-b c") == "a_b_c"

    def test_exposition_format(self):
        reg = MetricsRegistry()
        reg.counter("scoring.requests", backend="qs").inc(5)
        reg.gauge("scoring.drift_pct", backend="qs").set(12.5)
        reg.histogram("scoring.request_us_per_doc", backend="qs").extend(
            [1.0, 2.0, 3.0]
        )
        text = render_prometheus(reg)
        assert text.endswith("\n")
        assert "# TYPE scoring_requests counter" in text
        assert 'scoring_requests{backend="qs"} 5.0' in text
        assert "# TYPE scoring_request_us_per_doc summary" in text
        assert (
            'scoring_request_us_per_doc{backend="qs",quantile="0.5"} 2.0'
            in text
        )
        assert 'scoring_request_us_per_doc_sum{backend="qs"} 6.0' in text
        assert 'scoring_request_us_per_doc_count{backend="qs"} 3' in text

    def test_every_sample_line_parses(self):
        import re

        reg = MetricsRegistry()
        reg.gauge("empty.gauge").set(float("nan"))
        reg.counter("plain").inc()
        sample = re.compile(
            r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (NaN|[+-]?[0-9].*|[+-]Inf)$"
        )
        for line in render_prometheus(reg).splitlines():
            if line and not line.startswith("#"):
                assert sample.match(line), line

    def test_empty_registry(self):
        assert render_prometheus(MetricsRegistry()) == ""

    def test_hostile_label_values_are_escaped(self):
        # A tenant name is caller-controlled: quotes, backslashes and
        # newlines must not break (or forge) the exposition format.
        reg = MetricsRegistry()
        hostile = 'evil"} forged_metric 1\ntenant\\name'
        reg.counter("serving.requests", tenant=hostile).inc(2)
        text = render_prometheus(reg)
        assert (
            'serving_requests{tenant="evil\\"} forged_metric 1\\n'
            'tenant\\\\name"} 2.0' in text
        )
        # No sample line may be forged: every non-comment line still
        # parses as exactly one exposition sample.
        import re

        sample = re.compile(
            r"^[a-zA-Z_:][a-zA-Z0-9_:]*\{[^\n]*\} [0-9.]+$"
        )
        lines = [
            line
            for line in text.splitlines()
            if line and not line.startswith("#")
        ]
        assert len(lines) == 1
        assert sample.match(lines[0]), lines[0]

    def test_backslash_escaped_before_quote(self):
        # Escape ordering regression: a pre-escaped quote (backslash
        # then quote) must come out doubly escaped, not re-broken.
        reg = MetricsRegistry()
        reg.gauge("g", label='\\"').set(1.0)
        text = render_prometheus(reg)
        assert 'g{label="\\\\\\""} 1.0' in text


class TestJsonExport:
    def test_document_shape(self):
        tracer = Tracer()
        reg = MetricsRegistry()
        with tracer.span("root", k=1):
            reg.counter("hits").inc()
        doc = json.loads(render_json(tracer=tracer, registry=reg))
        assert doc["trace"][0]["name"] == "root"
        assert doc["trace"][0]["attrs"] == {"k": 1}
        assert doc["metrics"]["series"][0]["name"] == "hits"

    def test_nans_become_null(self):
        reg = MetricsRegistry()
        reg.gauge("g").set(float("nan"))
        doc = json.loads(render_json(tracer=Tracer(), registry=reg))
        assert doc["metrics"]["series"][0]["value"] is None

    def test_snapshot_dict_uses_defaults(self, obs_clean):
        obs_clean.enable_tracing()
        with obs_clean.span("s"):
            obs_clean.counter("c").inc()
        doc = snapshot_dict()
        assert doc["trace"][0]["name"] == "s"
        assert doc["metrics"]["series"][0]["name"] == "c"
