"""Tests of the benchmark's own helpers and a tiny run of each workload.

Run from the repository root::

    PYTHONPATH=src:. python3 -m pytest -q bench_e2e
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from bench_e2e import load, run, stats
from bench_e2e.tracing import SpanLog, incomplete_calls, layer_self_times, nest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Per-segment statistics
# ----------------------------------------------------------------------
def _segment(start, latencies, docs=(), completions=()):
    log = load.PhaseLog(start=start, length=1.0)
    log.latencies = [(start + i * 0.01, s) for i, s in enumerate(latencies)]
    log.docs = list(docs)
    log.completions = list(completions)
    return log


def test_latency_percentiles_pool_the_segments():
    from bench_e2e.workloads import latency_ms

    segments = [_segment(0.0, [0.001] * 9 + [0.010]), _segment(5.0, [0.002] * 10)]
    pooled = [1.0] * 9 + [10.0] + [2.0] * 10
    for q in (50, 90):
        assert latency_ms(segments, q) == pytest.approx(np.percentile(pooled, q))


def test_rates_and_costs_are_medians_over_segments():
    from bench_e2e.workloads import rps, us_per_doc

    # Closed loop: completions inside each one-second segment; the third
    # segment stalled, and the median ignores it.
    closed = [
        _segment(0.0, [], completions=[0.1 * i for i in range(10)] + [1.5]),
        _segment(2.0, [], completions=[2.0 + 0.1 * i for i in range(12)]),
        _segment(4.0, [], completions=[4.5]),
    ]
    assert rps(closed) == 10.0
    # Back to back: scoring seconds per document, per segment.
    sync = [
        _segment(0.0, [0.005, 0.005], docs=[100, 100]),
        _segment(2.0, [0.004, 0.006], docs=[100, 100]),
        _segment(4.0, [0.05, 0.05], docs=[100, 100]),
    ]
    assert us_per_doc(sync) == pytest.approx(50.0)


def test_phase_log_keeps_an_even_bounded_sample():
    log = load.PhaseLog(max_samples=4)
    for i in range(100):
        log.offer(i, np.zeros(1))
    kept = [request for request, _scores in log.samples]
    assert 4 <= len(kept) < 8
    assert kept == list(range(0, 100, kept[1] - kept[0]))[: len(kept)]


# ----------------------------------------------------------------------
# Self time from nested spans
# ----------------------------------------------------------------------
def test_self_time_subtracts_union_of_children():
    spans = [
        (0, None, "parent", 0.0, 10.0),
        (1, 0, "child", 1.0, 3.0),
        (2, 0, "child", 2.0, 5.0),  # overlaps the first child
        (3, 1, "leaf", 1.5, 2.0),
    ]
    self_times = stats.self_times(spans)
    assert self_times["parent"] == pytest.approx(10.0 - 4.0)
    assert self_times["child"] == pytest.approx((2.0 - 0.5) + 3.0)
    assert self_times["leaf"] == pytest.approx(0.5)
    assert stats.covered([(0, 1), (0.5, 2), (3, 4)], 0.0, 3.5) == pytest.approx(2.5)


def test_nest_by_depth_tiles_root_wall_time():
    # Two serialized engine calls, each with a chain of three layers.
    spans = []
    for base in (0.0, 100.0):
        spans += [
            (0, "engine", base, base + 50.0, 10),
            (1, "chain", base + 2.0, base + 48.0, 10),
            (2, "scorer", base + 5.0, base + 40.0, 10),
            (2, "scorer", base + 41.0, base + 47.0, 4),
        ]
    selfs, roots, orphans = layer_self_times(spans)
    assert orphans == 0
    assert roots == pytest.approx(100.0)
    assert sum(selfs.values()) == pytest.approx(roots)
    assert selfs["engine"] == pytest.approx(2 * 4.0)
    assert selfs["chain"] == pytest.approx(2 * 5.0)


def test_incomplete_calls_finds_a_missing_layer():
    spans = [
        (0, "engine", 0.0, 10.0, 5),
        (1, "chain", 1.0, 9.0, 5),
        (2, "kernel", 2.0, 8.0, 5),
        # The second call never reached depth 2 inside its own interval:
        # the depth-2 span after it belongs to no engine call.
        (0, "engine", 20.0, 30.0, 5),
        (1, "chain", 21.0, 29.0, 5),
        (2, "kernel", 31.0, 32.0, 5),
    ]
    assert incomplete_calls(spans, 1) == 0
    assert incomplete_calls(spans, 2) == 1
    assert incomplete_calls(spans, 3) == 2


def test_nest_counts_spans_no_parent_contains():
    tree, orphans = nest([(0, "engine", 0.0, 1.0, 1), (1, "chain", 0.5, 2.0, 1)])
    assert orphans == 1
    assert len(tree) == 1


def test_span_log_wraps_and_restores_instance_methods():
    class Layer:
        def score(self, x):
            return np.asarray(x) * 2

    layer = Layer()
    log = SpanLog()
    log.wrap(layer, "score", "layer", 0)
    assert list(layer.score([1, 2])) == [2, 4]
    assert log.spans == []  # not recording yet
    log.recording = True
    layer.score([1, 2, 3])
    assert [(d, n, docs) for d, n, _s, _e, docs in log.spans] == [(0, "layer", 3)]
    log.unwrap_all()
    assert "score" not in layer.__dict__


# ----------------------------------------------------------------------
# Schedules
# ----------------------------------------------------------------------
def test_poisson_schedule_is_deterministic_per_seed():
    a = load.poisson_schedule(200.0, 5.0, seed=3)
    b = load.poisson_schedule(200.0, 5.0, seed=3)
    c = load.poisson_schedule(200.0, 5.0, seed=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a[: len(c)], c[: len(a)])
    assert (np.diff(a) > 0).all() and a[-1] < 5.0
    assert abs(len(a) - 1000) < 5 * np.sqrt(1000)


def test_traffic_is_deterministic_per_seed_and_segment():
    from bench_e2e.workloads import Traffic

    for workload in ("student-online", "cascade-online"):
        a, b = Traffic(workload, 5), Traffic(workload, 5)
        # Drawing more from one segment does not shift the next one.
        for _ in range(7):
            a.stream(1).next()
        first, again = a.stream(2), b.stream(2)
        other = a.stream(3)
        for _ in range(20):
            x, y = first.next(), again.next()
            assert np.array_equal(x, y)
            assert first.tenant() == again.tenant()
            assert not np.array_equal(x, other.next())


def test_arrivals_and_requests_use_separate_streams():
    from bench_e2e.workloads import Traffic

    traffic = Traffic("student-online", 5)
    arrival = np.random.default_rng(traffic.arrival_seed(2)).random(8)
    request = traffic.stream(2).rng.random(8)
    assert not np.array_equal(arrival, request)


def test_bulk_requests_are_large_and_new():
    from bench_e2e.workloads import BULK_DOCS, Traffic

    for workload in ("student-online", "cascade-online"):
        stream = Traffic(workload, 5).stream(1)
        requests = [stream.bulk() for _ in range(3)]
        assert all(BULK_DOCS[0] <= len(r) <= BULK_DOCS[1] for r in requests)
        rows = [row.tobytes() for r in requests for row in r]
        assert len(set(rows)) == len(rows)


def test_fresh_rows_are_new_bytes():
    from bench_e2e.workloads import Traffic

    stream = Traffic("cascade-online", 5).stream(1)
    rows = [row.tobytes() for _ in range(5) for row in stream.next()]
    assert len(set(rows)) == len(rows)
    later = Traffic("cascade-online", 5).stream(2).next()
    assert not set(rows) & {row.tobytes() for row in later}


# ----------------------------------------------------------------------
# Tiny runs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", ["student-online", "cascade-online"])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_reports_every_metric(workload, trace, capsys):
    code = run.main(
        ["--workload", workload, "--seed", "1", "--seconds", "1.5",
         "--trace", str(trace)]
    )
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    spec = _benchmark_json()["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for metric in spec:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert np.isfinite(got["value"])


def test_unknown_workload_is_refused():
    with pytest.raises(ValueError):
        run.main(["--workload", "nope", "--seed", "1", "--seconds", "1"])


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copytree(os.path.join(ROOT, "bench_e2e"), tmp_path / "bench_e2e")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "bench_e2e/run.py", "--workload", "cascade-online",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
