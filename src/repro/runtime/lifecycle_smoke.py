"""Self-checking model-lifecycle smoke run (``make lifecycle-smoke``).

Exercises the versioned registry, the zero-downtime hot swap and the
shadow-scored promotion gate end to end and *asserts* the outcomes, so
CI can gate on ``python -m repro.runtime.lifecycle_smoke``:

1. **Atomic hot swap under load** — a closed-loop load run fires a
   forced swap halfway through its offered requests.  Zero requests may
   fail or shed, every request must be served by exactly one of the two
   versions (counts add up), pre-swap scoring must be bit-identical to
   the incumbent and post-swap scoring bit-identical to the candidate,
   and the promotion must invalidate the incumbent's fingerprint-keyed
   :class:`~repro.runtime.parallel.ScoreCache` rows.
2. **Shadow gate** — a near-identical candidate must pass the
   drift/NDCG-agreement gate and promote automatically; a deliberately
   regressed candidate (negated output layer) must trip the gate and be
   rolled back automatically, leaving the incumbent active and its
   shadow-warmed cache rows invalidated.
3. **Replay → redistill** — served traffic must fill the Zipf-aware
   replay reservoir (with dedup observed), and
   :meth:`~repro.runtime.lifecycle.LifecycleManager.redistill` must
   fine-tune the active student on it and swap the result in.
4. **Observability** — the ``lifecycle.*`` series must have recorded
   per-version traffic, the swaps and the rollback, and the report
   renders.

Exits non-zero on any violation.
"""

from __future__ import annotations

import sys

import numpy as np


def _make_candidates(seed: int = 0):
    """The incumbent student plus a good and a regressed candidate."""
    from repro.obs.probe import build_probe_models

    models = build_probe_models(n_queries=8, docs_per_query=12, seed=seed)
    incumbent = models["student"]
    good = incumbent.clone()
    for param in (good.network.linears[-1].weight, good.network.linears[-1].bias):
        param.data *= 1.001
    regressed = incumbent.clone()
    for param in (
        regressed.network.linears[-1].weight,
        regressed.network.linears[-1].bias,
    ):
        param.data *= -1.0
    return models["dataset"], incumbent, good, regressed


def _service(incumbent, lifecycle=None, cache_entries: int = 4096):
    from repro.runtime import LifecycleConfig, ParallelConfig, ServiceConfig
    from repro.serving import ScoringService

    return ScoringService(
        incumbent,
        ServiceConfig(
            parallel=ParallelConfig(workers=2, cache_entries=cache_entries),
            lifecycle=lifecycle or LifecycleConfig(shadow_mode="sync"),
        ),
    )


def check_hot_swap_under_load() -> None:
    """A forced mid-run swap loses nothing and splits traffic cleanly."""
    from repro.serving import LoadSpec, ScoringService, make_queries, run_load

    dataset, incumbent, good, _ = _make_candidates(seed=0)
    n_features = dataset.features.shape[1]
    probe = dataset.features[dataset.query_slice(0)]
    ref_incumbent = ScoringService(incumbent).score(probe)
    ref_candidate = ScoringService(good).score(probe)
    assert not np.array_equal(ref_incumbent, ref_candidate), (
        "the candidate must actually score differently for the "
        "bit-identity check to mean anything"
    )

    service = _service(incumbent)
    np.testing.assert_array_equal(
        service.score(probe),
        ref_incumbent,
        err_msg="pre-swap scoring diverged from the incumbent",
    )
    spec = LoadSpec(
        mode="closed",
        workers=4,
        requests_per_worker=12,
        n_queries=8,
        docs_per_query=12,
        seed=7,
    )
    queries = make_queries(spec, n_features)
    report = run_load(
        service,
        spec,
        queries,
        swap_at=0.5,
        swap_fn=lambda front: front.swap(good, version="v2", force=True),
    )
    assert report.errors == 0, f"{report.errors} requests errored"
    assert report.shed == 0, f"{report.shed} requests shed during the swap"
    assert report.served == report.offered, (
        f"served {report.served} != offered {report.offered}"
    )
    assert len(report.swap_events) == 1, report.swap_events
    event = report.swap_events[0]
    assert event["action"] == "forced", event
    assert event["event"]["invalidated"] > 0, (
        "the promotion must invalidate the incumbent's fingerprint-keyed "
        f"cache rows, got {event['event']}"
    )
    assert set(report.served_by_version) == {"v1", "v2"}, (
        f"expected both versions to serve, got {report.served_by_version}"
    )
    assert all(n > 0 for n in report.served_by_version.values())
    total = sum(report.served_by_version.values())
    assert total == report.served, (
        f"per-version counts {report.served_by_version} do not add up to "
        f"{report.served} served requests"
    )
    np.testing.assert_array_equal(
        service.score(probe),
        ref_candidate,
        err_msg="post-swap scoring diverged from the candidate",
    )
    assert service.registry.active.version_id == "v2"
    service.close()
    print(
        f"hot swap: {report.served}/{report.offered} served across "
        f"{report.served_by_version}, 0 shed, 0 errors, "
        f"{event['event']['invalidated']} cache rows invalidated, "
        "pre/post bits exact"
    )


def check_shadow_gate() -> None:
    """Good candidates promote through the gate; regressed ones roll back."""
    from repro.runtime import LifecycleConfig

    dataset, incumbent, good, regressed = _make_candidates(seed=1)
    service = _service(
        incumbent,
        lifecycle=LifecycleConfig(
            shadow_mode="sync",
            shadow_fraction=1.0,
            shadow_min_requests=6,
        ),
    )
    queries = [
        dataset.features[dataset.query_slice(q)]
        for q in range(dataset.n_queries)
    ]

    outcome = service.swap(good, version="good")
    assert outcome["action"] == "shadowing", outcome
    for q in range(6):
        service.score(queries[q % len(queries)])
    summary = service.lifecycle_summary()
    assert summary["state"] == "serving", summary["state"]
    assert service.registry.active.version_id == "good", (
        f"gate did not promote the good candidate: {summary['gate']}"
    )
    gate = summary["gate"]
    assert gate["passed"] and gate["compared"] >= 6, gate
    assert gate["mean_drift_pct"] < 1.0, gate
    assert gate["mean_agreement"] > 0.99, gate

    outcome = service.swap(regressed, version="bad")
    assert outcome["action"] == "shadowing", outcome
    for q in range(6):
        service.score(queries[q % len(queries)])
    summary = service.lifecycle_summary()
    assert service.registry.active.version_id == "good", (
        "the regressed candidate must never activate"
    )
    gate = summary["gate"]
    assert not gate["passed"] and gate["reasons"], gate
    last = summary["swap_events"][-1]
    assert last["kind"] == "rolled-back", last
    assert last["invalidated"] > 0, (
        "the rejected candidate's shadow-warmed cache rows must be "
        f"invalidated, got {last}"
    )
    service.close()
    print(
        f"shadow gate: good candidate promoted "
        f"(drift {summary['swap_events'][0]['mean_drift_pct']:.3f}%), "
        f"regressed candidate rolled back on: {'; '.join(gate['reasons'])}"
    )


def check_replay_redistill() -> None:
    """Served traffic fills the replay reservoir and redistill swaps in."""
    from repro.runtime import LifecycleConfig

    dataset, incumbent, _, _ = _make_candidates(seed=2)
    service = _service(
        incumbent,
        lifecycle=LifecycleConfig(
            shadow_mode="sync", replay_capacity=64, replay_seed=3
        ),
        cache_entries=0,
    )
    queries = [
        dataset.features[dataset.query_slice(q)]
        for q in range(dataset.n_queries)
    ]
    for _ in range(3):  # repeats: the reservoir must dedup
        for x in queries:
            service.score(x)
    replay = service.lifecycle.replay
    assert len(replay) > 0, "replay buffer stayed empty"
    assert replay.total_rows > replay.distinct, (
        "repeated queries must register as duplicate popularity, got "
        f"{replay.snapshot()}"
    )
    outcome = service.redistill(
        epochs=1, version="redistilled", force=True, seed=0
    )
    assert outcome["action"] == "forced", outcome
    active = service.registry.active
    assert active.version_id == "redistilled"
    assert active.source == "redistilled"
    scores = service.score(queries[0])
    assert scores.shape == (len(queries[0]),) and np.isfinite(scores).all()
    service.close()
    print(
        f"replay/redistill: {len(replay)} rows "
        f"({replay.total_rows} offered) fine-tuned and swapped in as "
        f"{active.version_id!r}"
    )


def check_observability() -> None:
    """The lifecycle.* series must reflect the traffic just served."""
    from repro import obs

    report = obs.lifecycle_report()
    assert report.rows, "no lifecycle.* series recorded"
    by_version = {row["version"]: row for row in report.rows}
    for version in ("v1", "v2", "good", "bad"):
        assert version in by_version, f"no lifecycle rows for {version!r}"
    assert by_version["v1"]["requests"] > 0
    assert by_version["bad"]["shadow_requests"] > 0, (
        "the regressed candidate's shadow comparisons were not recorded"
    )
    totals = report.totals
    assert totals["swaps"] >= 2, f"expected >= 2 swaps, got {totals['swaps']}"
    assert totals["rollbacks"] >= 1, "the rollback was not recorded"
    rendered = report.render()
    assert "Model lifecycle" in rendered and "rollbacks:" in rendered
    print(
        f"obs: {len(report.rows)} versions in the series, "
        f"{totals['swaps']} swaps, {totals['rollbacks']} rollback(s) recorded"
    )


def main() -> int:
    check_hot_swap_under_load()
    check_shadow_gate()
    check_replay_redistill()
    check_observability()
    from repro import obs

    print()
    print(obs.lifecycle_report().render())
    print(
        "lifecycle-smoke: hot swaps are atomic, gated by shadow evidence, "
        "and lose no requests"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
