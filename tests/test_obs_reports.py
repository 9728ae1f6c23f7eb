"""The seven metric-series reports, pinned value by value.

Each report is fed one fixed sequence through the real recorders (and
the bound ``*Series`` classes where the hot path uses them).  Every
column value must equal the row field or derived property the report
had before it rendered through the shared spec-driven table
(:mod:`repro.obs.report`); ``PARENT`` holds those values as captured
from the per-subsystem implementation, with NaN equal to NaN.
``RENDERED`` pins the ``format_table`` layout.
"""

from __future__ import annotations

import math

import pytest

from repro import obs
from repro.obs import cascade, drift, lifecycle, parallel, resilience, serving
from repro.obs.compile import record_compile
from repro.obs.metrics import MetricsRegistry

NAN = float("nan")


def feed_drift(reg):
    qs = drift.DriftSeries("quickscorer", reg)
    qs.record(n_docs=40, seconds=0.002, predicted_us_per_doc=8.0)
    qs.record(n_docs=10, seconds=0.0011, predicted_us_per_doc=8.0)
    drift.DriftSeries("compiled-network", reg).record(
        n_docs=16, seconds=0.0004, predicted_us_per_doc=NAN
    )
    reg.counter("scoring.requests").inc()  # no backend label: skipped


def feed_compile(reg):
    record_compile(
        dtype="float64", buffer_bytes=20480, compile_us=1534.0,
        tune_us=2100.0, kernel_counts={"dense-gemm": 3, "csr-spmm": 1},
        registry=reg,
    )
    record_compile(
        dtype="float64", buffer_bytes=10240, compile_us=812.5,
        kernel_counts={"dense-gemm": 4}, registry=reg,
    )
    record_compile(
        dtype="float32", buffer_bytes=3000, compile_us=95.0, tune_us=40.0,
        kernel_counts={"block-spmm": 1, "int8-gemm": 2},
        registry=reg,
    )
    reg.counter("compile.plans").inc()  # no dtype label: skipped


def feed_parallel(reg):
    qs = parallel.ParallelSeries("quickscorer", reg)
    qs.record(n_shards=2, balance=1.25, utilization=0.8, cache_hits=3,
              cache_misses=5)
    qs.record(n_shards=0, balance=NAN, utilization=NAN, cache_hits=4)
    parallel.ParallelSeries("compiled-network", reg).record(
        n_shards=3, balance=1.0, utilization=NAN
    )
    parallel.record_cache_eviction(4, registry=reg)
    parallel.record_cache_invalidation(2, registry=reg)
    reg.counter("parallel.requests").inc()  # no backend label: skipped


def feed_lifecycle(reg):
    lifecycle.record_served_version("v1", 3, registry=reg)
    lifecycle.record_version_documents("v1", 30, registry=reg)
    lifecycle.record_served_version("v2", registry=reg)
    lifecycle.record_shadow_comparison(
        "v2", drift_pct=0.5, agreement=0.99, registry=reg
    )
    lifecycle.record_shadow_comparison(
        "v2", drift_pct=0.75, agreement=NAN, registry=reg
    )
    lifecycle.record_shadow_error("v2", registry=reg)
    lifecycle.record_shadow_dropped("v2", registry=reg)
    lifecycle.record_shadow_dropped("v3", registry=reg)
    lifecycle.record_swap("forced", registry=reg)
    lifecycle.record_swap("promoted", registry=reg)
    lifecycle.record_rollback(registry=reg)
    lifecycle.record_replay(rows=5, total_seen=9, registry=reg)
    reg.counter("lifecycle.requests").inc()  # no version label: skipped


def feed_cascade(reg):
    p = cascade.CascadeSeries("p", reg)
    p.record(stage_names=("a", "b"), stage_docs=(10, 4), stage_us=(5.0, 20.0),
             predicted_spend_us=12.5, exited_early=False)
    p.record(stage_names=("a",), stage_docs=(8,), stage_us=(4.0,),
             predicted_spend_us=8.0, exited_early=True)
    p.record(stage_names=("a", "b"), stage_docs=(6, 0),
             stage_us=(3.0, NAN), predicted_spend_us=NAN,
             exited_early=False)
    cascade.CascadeSeries("q", reg).record(
        stage_names=("only",), stage_docs=(0,), stage_us=(NAN,),
        predicted_spend_us=NAN, exited_early=False,
    )
    # A level that is not an integer: skipped.
    reg.counter("cascade.stage_docs", pipeline="p", stage="z",
                level="x").inc(5)


def feed_serving(reg):
    for _ in range(3):
        serving.record_shed("web", "rate-limit", registry=reg)
    serving.record_shed("web", "queue-depth", registry=reg)
    for latency in (100.0, 200.0, 900.0, 450.0):
        serving.record_admitted("web", registry=reg)
        serving.record_response("web", latency, slo_us=500.0, registry=reg)
    serving.record_admitted("batch", registry=reg)
    serving.record_response("batch", 1234.5, registry=reg)
    serving.record_shed("limited", "tenant-queue-depth", registry=reg)
    serving.record_batch(n_requests=4, n_docs=40, queue_depth=2, registry=reg)
    serving.record_batch(n_requests=1, n_docs=7, queue_depth=0, registry=reg)
    reg.counter("serving.requests").inc()  # no tenant label: skipped


def feed_resilience(reg):
    resilience.record_retry("a", registry=reg)
    resilience.record_failure("a", "TimeoutError", registry=reg)
    resilience.record_failure("a", "TimeoutError", registry=reg)
    resilience.record_failure("a", "ValueError", registry=reg)
    resilience.record_breaker_state("a", "open", registry=reg)
    resilience.record_breaker_state("b", "half-open", transition=False,
                                    registry=reg)
    resilience.record_retry("c", registry=reg)  # never tracked: untracked
    reg.gauge("resilience.breaker_state", backend="d").set(7.0)  # unknown
    for tier in ("a", "a", "a", "b"):
        resilience.record_served("a", tier, registry=reg)
    resilience.record_fallback("a", "b", registry=reg)
    resilience.record_served("x", "x", registry=reg)
    reg.counter("resilience.served", tier="a").inc()  # no primary: skipped


FEEDS = {
    "drift": feed_drift,
    "compile": feed_compile,
    "parallel": feed_parallel,
    "lifecycle": feed_lifecycle,
    "cascade": feed_cascade,
    "serving": feed_serving,
    "resilience": feed_resilience,
}

#: Per report and table: the column names, then one tuple per row in row
#: order; ``"rows"`` is the report's first table.
PARENT = {
    "drift": {
        "empty": "(no scoring traffic recorded)",
        "rows": (
            ("backend",
             "requests",
             "documents",
             "predicted_us_per_doc",
             "measured_us_per_doc",
             "drift_pct"),
            ("compiled-network", 1, 16, NAN, 25.0, NAN),
            ("quickscorer", 2, 50, 8.0, 62.00000000000001, 675.0000000000001),
        ),
    },
    "compile": {
        "empty": "(no plan compilations recorded)",
        "rows": (
            ("dtype",
             "plans",
             "dense_layers",
             "sparse_layers",
             "buffer_bytes",
             "compile_us",
             "block_layers",
             "int8_layers",
             "tune_us",
             "sparse_share"),
            ("float32", 1, 0, 0, 3000, 95.0, 1, 2, 40.0, 0.0),
            ("float64", 2, 7, 1, 10240, 812.5, 0, 0, 2100.0, 0.125),
        ),
    },
    "parallel": {
        "empty": "(no parallel scoring recorded)",
        "totals": {"cache_evictions": 4, "cache_invalidations": 2},
        "rows": (
            ("backend",
             "requests",
             "shards",
             "shard_balance",
             "pool_utilization",
             "cache_hits",
             "cache_misses",
             "mean_shards_per_request",
             "cache_hit_ratio"),
            ("compiled-network", 1, 3, 1.0, NAN, 0, 0, 3.0, NAN),
            ("quickscorer", 2, 2, 1.25, 0.8, 7, 5, 1.0, 0.5833333333333334),
        ),
    },
    "lifecycle": {
        "empty": "(no versioned serving recorded)",
        "totals": {"swaps": 2, "rollbacks": 1, "shadow_dropped": 2},
        "rows": (
            ("version",
             "requests",
             "documents",
             "shadow_requests",
             "shadow_errors",
             "shadow_drift_pct",
             "shadow_agreement"),
            ("v1", 3, 30, 0, 0, NAN, NAN),
            ("v2", 1, 0, 2, 1, 0.75, 0.99),
        ),
    },
    "cascade": {
        "empty": "(no cascade queries recorded)",
        "stages": (
            ("pipeline",
             "stage",
             "level",
             "queries",
             "docs",
             "total_us",
             "docs_per_query",
             "us_per_doc"),
            ("p", "a", 0, 3, 24, 12.0, 8.0, 0.5),
            ("p", "b", 1, 2, 4, 20.0, 2.0, 5.0),
            ("q", "only", 0, 1, 0, 0.0, 0.0, NAN),
        ),
        "pipelines": (
            ("pipeline",
             "queries",
             "early_exits",
             "early_exit_ratio",
             "mean_predicted_spend_us"),
            ("p", 3, 1, 0.3333333333333333, 10.25),
            ("q", 1, 0, 0.0, NAN),
        ),
    },
    "serving": {
        "empty": "(no serving traffic recorded)",
        "totals": {"batches": 2,
         "mean_batch_requests": 2.5,
         "mean_batch_docs": 23.5,
         "last_queue_depth": 0.0},
        "rows": (
            ("tenant",
             "admitted",
             "served",
             "shed",
             "shed_reasons",
             "slo_miss",
             "p50_us",
             "p95_us",
             "p99_us",
             "offered",
             "shed_ratio",
             "slo_miss_ratio"),
            ("batch", 1, 1, 0, (), 0, 1234.5, 1234.5, 1234.5, 1, 0.0, 0.0),
            ("limited",
             0,
             0,
             1,
             (("tenant-queue-depth", 1),),
             0,
             NAN,
             NAN,
             NAN,
             1,
             1.0,
             NAN),
            ("web",
             4,
             4,
             4,
             (("queue-depth", 1), ("rate-limit", 3)),
             1,
             325.0,
             832.4999999999999,
             886.4999999999999,
             8,
             0.5,
             0.25),
        ),
    },
    "resilience": {
        "empty": "(no resilience events recorded)",
        "chains": (
            ("primary", "requests", "fallbacks", "fallback_ratio"),
            ("a", 4, 1, 0.25),
            ("x", 1, 0, 0.0),
        ),
        "backends": (
            ("backend", "retries", "failures", "breaker_state"),
            ("a", 1, 3, "open"),
            ("b", 0, 0, "half-open"),
            ("c", 1, 0, "untracked"),
            ("d", 0, 0, "unknown"),
        ),
    },
}


RENDERED = {
    "drift": """\
Predicted vs measured scoring cost (us/doc)
backend          | requests | docs | predicted | measured | drift
-----------------+----------+------+-----------+----------+--------
compiled-network | 1        | 16   | -         | 25.00    | -
quickscorer      | 2        | 50   | 8.00      | 62.00    | +675.0%
""",
    "compile": """\
Compiled plans
dtype   | plans | dense | sparse | block | int8 | buffers | compile | tuning
--------+-------+-------+--------+-------+------+---------+---------+-------
float32 | 1     | 0     | 0      | 1     | 2    | 3 KiB   | 0.1 ms  | 0.0 ms
float64 | 2     | 7     | 1      | 0     | 0    | 10 KiB  | 0.8 ms  | 2.1 ms
""",
    "parallel": """\
Parallel scoring
backend          | requests | shards/req | balance | util | hit ratio
-----------------+----------+------------+---------+------+----------
compiled-network | 1        | 3.0        | 1.00    | -    | -
quickscorer      | 2        | 1.0        | 1.25    | 80%  | 58.3%
cache: 4 evicted, 2 invalidated
""",
    "lifecycle": """\
Model lifecycle
version | requests | documents | shadowed | drift% | agree
--------+----------+-----------+----------+--------+------
v1      | 3        | 30        | 0        | -      | -
v2      | 1        | 0         | 2        | 0.75   | 0.990
swaps: 2, rollbacks: 1, shadow dropped: 2
""",
    "cascade": """\
Cascade funnel
pipeline | level | stage | queries | docs/query | us/doc
---------+-------+-------+---------+------------+-------
p        | 0     | a     | 3       | 8.0        | 0.50
p        | 1     | b     | 2       | 2.0        | 5.00
q        | 0     | only  | 1       | 0.0        | -
p: 3 queries, 1 budget early-exits (33.3%), 10.2 us/query predicted
q: 1 queries, 0 budget early-exits (0.0%), unpriced
""",
    "serving": """\
Serving front-end
tenant  | offered | admitted | shed | shed%  | slo miss | p50 us | p95 us | p99 us
--------+---------+----------+------+--------+----------+--------+--------+-------
batch   | 1       | 1        | 0    | 0.0%   | 0        | 1234   | 1234   | 1234
limited | 1       | 0        | 1    | 100.0% | 0        | -      | -      | -
web     | 8       | 4        | 4    | 50.0%  | 1        | 325    | 832    | 886
coalescing: 2 batches, 2.5 requests/batch, 23.5 docs/batch, queue depth 0 at last drain
""",
    "resilience": """\
Fallback chains
primary | requests | fallbacks | ratio
--------+----------+-----------+------
a       | 4        | 1         | 25.0%
x       | 1        | 0         | 0.0%

Backends
backend | retries | failures | breaker
--------+---------+----------+----------
a       | 1       | 3        | open
b       | 0       | 0        | half-open
c       | 1       | 0        | untracked
d       | 0       | 0        | unknown
""",
}


def _report(name: str, feed: bool = True):
    registry = MetricsRegistry()
    if feed:
        FEEDS[name](registry)
    return getattr(obs, f"{name}_report")(registry)


def _same(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    return type(a) is type(b) and a == b


@pytest.mark.parametrize("name", sorted(FEEDS))
def test_column_values_equal_the_parents(name):
    report = _report(name)
    for table, (columns, *rows) in PARENT[name].items():
        if table in ("empty", "totals"):
            continue
        got = report.rows if table == "rows" else report.tables[table].rows
        assert len(got) == len(rows), f"{name}.{table}: {got}"
        for row, want in zip(got, rows):
            assert set(row) == set(columns), f"{name}.{table}: {row}"
            for column, value in zip(columns, want):
                assert _same(row[column], value), (
                    f"{name}.{table}.{column}: {row[column]!r} != {value!r}"
                )
    for column, value in PARENT[name].get("totals", {}).items():
        assert _same(report.totals[column], value), f"{name}.{column}"


@pytest.mark.parametrize("name", sorted(FEEDS))
def test_empty_registry_renders_the_parents_line(name):
    report = _report(name, feed=False)
    assert all(not t.rows for t in report.tables.values() if t.spec.keys)
    assert report.render() == PARENT[name]["empty"]


@pytest.mark.parametrize("name", sorted(FEEDS))
def test_rendering_is_pinned(name):
    assert _report(name).render() + "\n" == RENDERED[name]


def test_malformed_series_are_skipped():
    stages = _report("cascade").rows
    assert "z" not in {row["stage"] for row in stages}  # level="x"
    # Each feed also records one series without the key label; it adds
    # no row (the row sets above equal the parent's).
    assert [r["tenant"] for r in _report("serving").rows] == [
        "batch", "limited", "web",
    ]
    assert [r["primary"] for r in _report("resilience").rows] == ["a", "x"]


def test_nan_gauge_renders_dash():
    report = _report("drift")
    assert math.isnan(report.row("compiled-network")["predicted_us_per_doc"])
    line = next(
        line for line in report.render().splitlines()
        if line.startswith("compiled-network")
    )
    cells = [cell.strip() for cell in line.split("|")]
    assert cells == ["compiled-network", "1", "16", "-", "25.00", "-"]


@pytest.mark.parametrize(
    "name, series, labels",
    [
        ("lifecycle", "lifecycle.shadow_drift_pct_hist", {"version": "v9"}),
        ("resilience", "resilience.served_total", {"primary": "z"}),
        ("resilience", "resilience.retries_total", {"backend": "z"}),
        ("cascade", "cascade.queries_total", {"pipeline": "z"}),
        ("parallel", "parallel.cache_evictions_total", {}),
        ("serving", "serving.batchy", {}),
    ],
)
def test_look_alike_series_are_not_read(name, series, labels):
    # A table that lists exact series names reads no series that merely
    # shares their prefix.
    registry = MetricsRegistry()
    registry.counter(series, **labels).inc(7)
    report = getattr(obs, f"{name}_report")(registry)
    assert not report.recorded
    assert all(not t.rows for t in report.tables.values() if t.spec.keys)
    assert report.render() == PARENT[name]["empty"]
