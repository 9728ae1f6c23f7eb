"""Closed-loop load generation against the asyncio front-end.

The missing half of a serving benchmark: a traffic model.  This module
simulates a population of users hammering an
:class:`~repro.serving.frontend.AsyncScoringService` with the three
properties real ranking traffic has and uniform synthetic load lacks:

* **skewed popularity** — users are drawn from a seeded Zipfian
  distribution (probability ∝ rank^-s) over ``n_users`` simulated users
  (thousands to millions; only ranks are materialised, not users), and
  each user maps to one of ``n_queries`` distinct candidate lists — so
  a keyed :class:`~repro.runtime.parallel.ScoreCache` sees realistic
  re-reference behaviour;
* **bursty arrivals** — the *open* model draws exponential
  inter-arrival gaps whose rate square-wave-modulates between
  ``rate_per_s`` and ``rate_per_s × burst_factor`` every
  ``burst_period_s`` (Poisson-with-bursts); the *closed* model runs
  ``workers`` coroutine users in think-time loops, where offered load
  adapts to service latency;
* **multi-tenancy** — each request carries a tenant drawn from the
  spec's weighted tenant mix, exercising the admission layer's token
  buckets and priority classes.

Everything random is drawn **up front** from one seeded generator, so a
given :class:`LoadSpec` always offers the identical request sequence
(tenants, users, sizes, gaps) no matter how the event loop interleaves
completions — the property ``tests/gates/test_serving_gates.py``
stands on.

:func:`run_load` drives a whole run (build front-end → replay schedule
→ drain) and returns a :class:`LoadReport` of client-side counts:
offered/served/shed per tenant, error count, wall time and achieved
throughput.  Server-side latency percentiles and SLO misses live in the
``serving.*`` series (:func:`repro.obs.serving_report`); the benchmark
emits both.
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.exceptions import ConfigError, ReproError
from repro.serving.frontend import AsyncScoringService
from repro.serving.tenancy import RequestShedError
from repro.utils.codec import ConfigCodec

__all__ = ["LoadReport", "LoadSpec", "run_load", "run_load_async"]


@dataclass(frozen=True)
class LoadSpec(ConfigCodec):
    """One reproducible traffic scenario.

    ``mode="open"`` offers ``rate_per_s`` arrivals (burst-modulated) for
    ``duration_s`` simulated seconds of schedule; ``mode="closed"`` runs
    ``workers`` users each issuing ``requests_per_worker`` requests with
    ``think_time_s`` pauses.  Both draw users Zipf(``zipf_s``) over
    ``n_users``, mapped onto ``n_queries`` distinct candidate lists of
    ``docs_per_query`` documents, with tenants drawn from the weighted
    ``tenants`` mix.  ``time_scale`` compresses the schedule's sleeps
    (0.1 = replay 10× faster) without changing what is offered — the
    tests' lever for running a "long" scenario in milliseconds.
    """

    mode: str = "open"
    duration_s: float = 1.0
    rate_per_s: float = 200.0
    burst_factor: float = 1.0
    burst_period_s: float = 0.25
    workers: int = 8
    requests_per_worker: int = 25
    think_time_s: float = 0.0
    n_users: int = 10_000
    n_queries: int = 64
    docs_per_query: int = 10
    zipf_s: float = 1.1
    tenants: tuple[tuple[str, float], ...] = (("default", 1.0),)
    time_scale: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.mode not in ("open", "closed"):
            raise ConfigError(
                f"mode must be 'open' or 'closed', got {self.mode!r}"
            )
        positive = {
            "duration_s": self.duration_s,
            "rate_per_s": self.rate_per_s,
            "burst_factor": self.burst_factor,
            "burst_period_s": self.burst_period_s,
            "workers": self.workers,
            "requests_per_worker": self.requests_per_worker,
            "n_users": self.n_users,
            "n_queries": self.n_queries,
            "docs_per_query": self.docs_per_query,
            "time_scale": self.time_scale,
        }
        for name, value in positive.items():
            if value <= 0:
                raise ConfigError(f"{name} must be > 0, got {value}")
        if self.think_time_s < 0:
            raise ConfigError(
                f"think_time_s must be >= 0, got {self.think_time_s}"
            )
        if self.zipf_s < 0:
            raise ConfigError(f"zipf_s must be >= 0, got {self.zipf_s}")
        if not self.tenants:
            raise ConfigError("tenants mix must name at least one tenant")
        tenants = tuple(
            (str(name), float(weight)) for name, weight in self.tenants
        )
        for name, weight in tenants:
            if weight <= 0:
                raise ConfigError(
                    f"tenant {name!r} weight must be > 0, got {weight}"
                )
        object.__setattr__(self, "tenants", tenants)


@dataclass
class LoadReport:
    """Client-side outcome counts of one load run.

    ``trace_sample`` carries the slowest retained request trace of the
    run (its :meth:`~repro.obs.requests.RequestContext.to_dict` form)
    when request tracing was enabled, ``None`` otherwise — the hook
    benchmarks use to ship one concrete tail trace with their tables.

    ``swap_events`` records each mid-run hot swap fired through
    ``swap_at``/``swap_fn`` (wall-clock offset, arrival index, and the
    swap's own outcome dict); ``served_by_version`` counts the logical
    requests each model version served during the run — both empty for
    runs without a versioned swap.
    """

    spec: LoadSpec
    offered: int = 0
    served: int = 0
    errors: int = 0
    wall_s: float = 0.0
    served_by_tenant: dict[str, int] = field(default_factory=dict)
    shed_by_tenant: dict[str, dict[str, int]] = field(default_factory=dict)
    trace_sample: dict | None = None
    swap_events: list[dict] = field(default_factory=list)
    served_by_version: dict[str, int] = field(default_factory=dict)

    @property
    def shed(self) -> int:
        return sum(
            count
            for reasons in self.shed_by_tenant.values()
            for count in reasons.values()
        )

    @property
    def shed_ratio(self) -> float:
        return self.shed / self.offered if self.offered else float("nan")

    @property
    def throughput_rps(self) -> float:
        return self.served / self.wall_s if self.wall_s > 0 else float("nan")

    def to_dict(self) -> dict[str, object]:
        return {
            "spec": self.spec.to_dict(),
            "offered": self.offered,
            "served": self.served,
            "shed": self.shed,
            "shed_ratio": self.shed_ratio,
            "errors": self.errors,
            "wall_s": self.wall_s,
            "throughput_rps": self.throughput_rps,
            "served_by_tenant": dict(self.served_by_tenant),
            "shed_by_tenant": {
                tenant: dict(reasons)
                for tenant, reasons in self.shed_by_tenant.items()
            },
            "trace_sample": self.trace_sample,
            "swap_events": list(self.swap_events),
            "served_by_version": dict(self.served_by_version),
        }

    def render(self) -> str:
        lines = [
            f"Load run ({self.spec.mode}): {self.offered} offered, "
            f"{self.served} served, {self.shed} shed "
            f"({self.shed_ratio:.1%}), {self.errors} errors, "
            f"{self.wall_s:.3f} s wall, "
            f"{self.throughput_rps:.0f} req/s",
        ]
        for tenant in sorted(
            set(self.served_by_tenant) | set(self.shed_by_tenant)
        ):
            reasons = self.shed_by_tenant.get(tenant, {})
            shed = sum(reasons.values())
            detail = (
                " ("
                + ", ".join(f"{r}: {c}" for r, c in sorted(reasons.items()))
                + ")"
                if reasons
                else ""
            )
            lines.append(
                f"  {tenant}: {self.served_by_tenant.get(tenant, 0)} "
                f"served, {shed} shed{detail}"
            )
        for event in self.swap_events:
            lines.append(
                f"  swap at {event.get('at_s', 0.0):.3f}s "
                f"(request {event.get('at_request', '?')}): "
                f"{event.get('action', '?')}"
            )
        if self.served_by_version:
            lines.append(
                "  served by version: "
                + ", ".join(
                    f"{v}: {n}"
                    for v, n in sorted(self.served_by_version.items())
                )
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Schedule generation (all randomness drawn up front, deterministically)
# ----------------------------------------------------------------------
def _zipf_probs(n: int, s: float) -> np.ndarray:
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** -s
    return weights / weights.sum()


@dataclass(frozen=True)
class _Arrival:
    at_s: float  # schedule time of this arrival (open mode)
    tenant: str
    query: int


def build_schedule(spec: LoadSpec) -> list[_Arrival]:
    """The deterministic request sequence a spec offers.

    Open mode: exponential inter-arrival gaps at the instantaneous rate
    ``rate_per_s`` (× ``burst_factor`` during the second half of every
    ``burst_period_s`` window) until ``duration_s`` of schedule time is
    filled.  Closed mode: ``workers × requests_per_worker`` arrivals
    with ``at_s`` unset (workers pace themselves); the tenant/query
    draws are shared so both modes sample the same population.
    """
    rng = np.random.default_rng(spec.seed)
    user_probs = _zipf_probs(spec.n_users, spec.zipf_s)
    names = [name for name, _ in spec.tenants]
    weights = np.array([w for _, w in spec.tenants], dtype=np.float64)
    weights /= weights.sum()

    if spec.mode == "open":
        times: list[float] = []
        t = 0.0
        while True:
            in_burst = (
                t % spec.burst_period_s
            ) >= spec.burst_period_s / 2.0
            rate = spec.rate_per_s * (
                spec.burst_factor if in_burst else 1.0
            )
            t += float(rng.exponential(1.0 / rate))
            if t >= spec.duration_s:
                break
            times.append(t)
        count = len(times)
    else:
        count = spec.workers * spec.requests_per_worker
        times = [0.0] * count

    users = rng.choice(spec.n_users, size=count, p=user_probs)
    tenant_idx = rng.choice(len(names), size=count, p=weights)
    return [
        _Arrival(
            at_s=times[i],
            tenant=names[int(tenant_idx[i])],
            query=int(users[i]) % spec.n_queries,
        )
        for i in range(count)
    ]


def make_queries(
    spec: LoadSpec, n_features: int, *, seed: int | None = None
) -> list[np.ndarray]:
    """The ``n_queries`` distinct candidate lists the population asks for."""
    rng = np.random.default_rng(spec.seed if seed is None else seed)
    return [
        rng.standard_normal((spec.docs_per_query, n_features))
        for _ in range(spec.n_queries)
    ]


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------
async def _issue(
    front: AsyncScoringService,
    arrival: _Arrival,
    queries: list[np.ndarray],
    report: LoadReport,
) -> None:
    try:
        await front.score(queries[arrival.query], tenant=arrival.tenant)
    except RequestShedError as shed:
        reasons = report.shed_by_tenant.setdefault(shed.tenant, {})
        reasons[shed.reason] = reasons.get(shed.reason, 0) + 1
    except Exception:  # noqa: BLE001 — load runs report, never crash
        report.errors += 1
    else:
        report.served += 1
        report.served_by_tenant[arrival.tenant] = (
            report.served_by_tenant.get(arrival.tenant, 0) + 1
        )


async def run_load_async(
    front: AsyncScoringService,
    spec: LoadSpec,
    queries: list[np.ndarray] | None = None,
    *,
    swap_at: float | None = None,
    swap_fn=None,
) -> LoadReport:
    """Replay ``spec`` against a **running** front-end; returns the report.

    When ``swap_at`` (a fraction of the offered requests, in ``(0, 1)``)
    and ``swap_fn`` are given, ``swap_fn(front)`` fires exactly once —
    just before the arrival that crosses the fraction is issued — and
    its return dict lands in ``report.swap_events`` together with the
    wall-clock offset and arrival index.  ``report.served_by_version``
    then carries the per-version request counts accumulated during the
    run (requires the service's versioned scorer, present on every
    :class:`~repro.serving.service.ScoringService`).
    """
    if queries is None:
        raise ReproError(
            "run_load_async needs the query candidate lists; build them "
            "with make_queries(spec, n_features)"
        )
    if len(queries) < spec.n_queries:
        raise ReproError(
            f"spec names {spec.n_queries} queries but only "
            f"{len(queries)} candidate lists were provided"
        )
    if swap_at is not None:
        if swap_fn is None:
            raise ReproError("swap_at requires swap_fn")
        if not 0.0 < swap_at < 1.0:
            raise ReproError(
                f"swap_at must lie in (0, 1), got {swap_at}"
            )
    schedule = build_schedule(spec)
    report = LoadReport(spec=spec, offered=len(schedule))
    swap_trigger = (
        max(1, math.ceil(swap_at * len(schedule)))
        if swap_at is not None and schedule
        else None
    )
    issued = 0
    versioned = getattr(getattr(front, "service", None), "versioned", None)
    versions_before = (
        dict(versioned.served_by_version) if versioned is not None else {}
    )
    start = time.perf_counter()

    def _before_issue() -> None:
        # Single-threaded event loop: no lock needed around the counter.
        nonlocal issued
        issued += 1
        if swap_trigger is not None and issued == swap_trigger:
            info = swap_fn(front) or {}
            report.swap_events.append(
                {
                    "at_s": time.perf_counter() - start,
                    "at_request": issued,
                    **info,
                }
            )

    if spec.mode == "open":
        tasks = []
        elapsed_base = time.perf_counter()
        for arrival in schedule:
            delay = arrival.at_s * spec.time_scale - (
                time.perf_counter() - elapsed_base
            )
            if delay > 0:
                await asyncio.sleep(delay)
            _before_issue()
            tasks.append(
                asyncio.ensure_future(
                    _issue(front, arrival, queries, report)
                )
            )
        if tasks:
            await asyncio.gather(*tasks)
    else:
        per_worker = [
            schedule[w :: spec.workers] for w in range(spec.workers)
        ]

        async def _worker(mine: list[_Arrival]) -> None:
            for arrival in mine:
                _before_issue()
                await _issue(front, arrival, queries, report)
                if spec.think_time_s > 0:
                    await asyncio.sleep(
                        spec.think_time_s * spec.time_scale
                    )

        await asyncio.gather(*(_worker(mine) for mine in per_worker))
    report.wall_s = time.perf_counter() - start
    if versioned is not None:
        for version, count in versioned.served_by_version.items():
            delta = count - versions_before.get(version, 0)
            if delta > 0:
                report.served_by_version[version] = delta
    recorder = obs.get_request_recorder()
    if recorder.enabled:
        slowest = recorder.flight.slowest_records(1)
        if slowest:
            report.trace_sample = slowest[0].to_dict()
    return report


def run_load(
    service,
    spec: LoadSpec,
    queries: list[np.ndarray] | None = None,
    *,
    n_features: int | None = None,
    frontend=None,
    swap_at: float | None = None,
    swap_fn=None,
) -> LoadReport:
    """Build a front-end around ``service``, replay ``spec``, drain, report.

    ``queries`` may be omitted when ``n_features`` is given — the
    candidate lists are then generated by :func:`make_queries` from the
    spec's own seed.  ``swap_at``/``swap_fn`` trigger a mid-run hot swap
    (see :func:`run_load_async`).
    """
    if queries is None:
        if n_features is None:
            raise ReproError(
                "pass either the query candidate lists or n_features"
            )
        queries = make_queries(spec, n_features)

    async def _run() -> LoadReport:
        async with AsyncScoringService(
            service, frontend=frontend
        ) as front:
            return await run_load_async(
                front, spec, queries, swap_at=swap_at, swap_fn=swap_fn
            )

    return asyncio.run(_run())
