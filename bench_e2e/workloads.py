"""The seeded workloads and the metrics they report.

Every workload builds its inputs from ``--seed``, sets its serving
stacks up ``SETUP_REPEATS`` times, warms up, freezes the warm heap out
of the garbage collector's sight, then runs its timed phases.  Each
phase is cut into ``ROUNDS`` segments and the segments of all phases
are interleaved (sat, low, high, student, forest, sat, low, ...), with
a timed throwaway stack build and ``gc.collect()`` between segments.
Rates and µs/doc are medians over their phase's segments, ``setup_s``
the median over all builds; latency percentiles pool the phase's
segments.  Interleaving spreads each phase over the whole run, so a
slow spell of the shared host lands in one segment of every phase
instead of all of one phase.

Phases (shares of ``--seconds``):

* ``sat``: closed loop, a fixed number of coroutine clients (or one
  synchronous caller back to back) -> ``sat.rps``;
* ``low`` / ``high``: open loop at fixed absolute rates ->
  ``{low,high}.p50_ms`` (p90 printed as a diagnostic), timed from each
  arrival's due time;
* ``student`` / ``forest``: one synchronous caller, back to back,
  ~1000 never-seen documents per request through the same composition
  stack (services of their own, so the online cache is left alone) ->
  ``{student,forest}.us_per_doc``.

A sample of every segment's responses is re-scored afterwards by an
independent reference and must match.  The traced run (``--trace 1``)
alternates untraced and traced ``sat`` segments (tracing overhead),
then runs ``high`` traced (layer self times, front-end stages, cache
and cascade counters) and the two back-to-back phases traced (compiled
plan and QuickScorer costs).
"""

from __future__ import annotations

import asyncio
import gc
import math
import resource
import statistics
from dataclasses import dataclass, field

import numpy as np

from bench_e2e import load
from bench_e2e.tracing import (
    SpanLog,
    StageTotals,
    incomplete_calls,
    layer_self_times,
)

from repro import obs
from repro.datasets.normalization import ZNormalizer
from repro.datasets.synthetic import make_msn30k_like
from repro.distill.student import DistilledStudent
from repro.forest.gbdt import GradientBoostingConfig
from repro.forest.lambdamart import LambdaMartRanker
from repro.nn.network import FeedForwardNetwork
from repro.pruning.magnitude import LevelPruner
from repro.runtime import (
    AsyncConfig,
    ParallelConfig,
    PipelineConfig,
    ResilienceConfig,
    ServiceConfig,
    TenantConfig,
)
from repro.runtime.resilience import StubScorer
from repro.serving import AsyncScoringService, RequestShedError, ScoringService

#: Segments per timed phase; each metric is the median over them.
ROUNDS = 5
#: Set-up repetitions before the timed phases; one more build follows
#: every timed segment, and ``setup_s`` is the median of all of them.
SETUP_REPEATS = 5
#: ScoreCache capacity shared by every stack.
CACHE_ENTRIES = 16384
#: Absolute tolerance of QuickScorer against the reference traversal
#: (leaf values are summed in another order).
FOREST_ATOL = 1e-10
#: Tiling tolerance: layer self times must sum to the engine wall time.
TILE_TOLERANCE = 0.03
#: The paper's high-quality student (Table 10) and the cascade stages.
STUDENT_ARCH = (300, 200, 100)
PRUNED_ARCH = (200, 50, 50, 25)
TINY_ARCH = (50, 25, 25, 10)
TENANTS = (("web", 0, 0.75), ("batch", 2, 0.25))
#: Models are part of the system under test, not of its inputs: they
#: are built from this fixed seed so ``--seed`` varies only the traffic.
MODEL_SEED = 0
#: The most documents re-scored per segment (the forest reference is
#: slow).
CHECK_DOCS = 1200
#: Documents per request of the back-to-back ``student`` / ``forest``
#: phases: more than the online stacks send, all never seen before.
BULK_DOCS = (900, 1100)


@dataclass(frozen=True)
class Spec:
    """One workload's traffic and fixed rates."""

    name: str
    low_rate: float
    high_rate: float
    clients: int
    #: phase -> share of --seconds in the untraced run
    shares: dict = field(default_factory=dict)


#: Rates are fixed, well below the closed-loop saturation measured on a
#: 2-vCPU host (student-online ~2000/s, cascade-online ~500/s).  Each
#: low rate keeps requests mostly alone in the stack (the engine busy a
#: few % of the time); each high rate is ~10% of saturation, where the
#: engine is busy ~20-30% of the time.  Nearer 50% of saturation, p90
#: swung 2-8x between 2 s segments.
SPECS = {
    "student-online": Spec(
        "student-online", low_rate=50.0, high_rate=200.0, clients=32,
        shares={"sat": 0.25, "low": 0.25, "high": 0.2, "student": 0.15,
                "forest": 0.15},
    ),
    "cascade-online": Spec(
        "cascade-online", low_rate=10.0, high_rate=50.0, clients=16,
        shares={"sat": 0.2, "low": 0.3, "high": 0.25, "student": 0.125,
                "forest": 0.125},
    ),
}
#: Shares of --seconds in the traced run: ``pairs`` alternates untraced
#: and traced ``sat`` segments; ``layer`` is a traced ``high`` segment.
TRACE_SHARES = {"pairs": 0.3, "layer": 0.3, "student": 0.2, "forest": 0.2}
TRACE_PAIRS = 3


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
class Models:
    """The seeded models every workload draws from."""

    def __init__(self, seed: int = MODEL_SEED) -> None:
        train = make_msn30k_like(n_queries=40, docs_per_query=30, seed=seed)
        self.forest = LambdaMartRanker(
            GradientBoostingConfig(n_trees=32, max_leaves=32), seed=seed
        ).fit(train, name="forest")
        normalizer = ZNormalizer().fit(train.features)

        def student(arch, offset, sparsity=None):
            net = FeedForwardNetwork(train.n_features, arch, seed=seed + offset)
            if sparsity is not None:
                LevelPruner(sparsity).apply(net.first_layer)
            # Untrained weights: scoring cost is set by the architecture.
            return DistilledStudent(
                net, normalizer, teacher_description="benchmark"
            )

        self.student = student(STUDENT_ARCH, 1)
        self.pruned = student(PRUNED_ARCH, 2, sparsity=0.9)
        self.tiny = student(TINY_ARCH, 3, sparsity=0.9)


def _stack_config(**extra) -> ServiceConfig:
    """The shared composition: fallback tier + sharding with a cache."""
    return ServiceConfig(
        resilience=ResilienceConfig(fallback_models=(StubScorer(),)),
        parallel=ParallelConfig(workers=1, cache_entries=CACHE_ENTRIES),
        frontend=AsyncConfig(
            tenants=tuple(
                TenantConfig(name=name, priority=priority)
                for name, priority, _w in TENANTS
            )
        ),
        **extra,
    )


def cascade_config(models: Models) -> PipelineConfig:
    """tiny -> pruned -> student, compiled, with a per-query budget that
    stops promotion to the student on queries above ~110 documents."""
    stages = [
        {"model": "tiny", "backend": "compiled-network", "keep_fraction": 0.4},
        {"model": "pruned", "backend": "compiled-network", "keep_fraction": 0.5},
        {"model": "student", "backend": "compiled-network"},
    ]
    probe = ScoringService(
        _roles(models), ServiceConfig(pipeline=PipelineConfig(stages=stages),
                                      max_batch_size=None)
    )
    budget = probe.pipeline.predicted_query_spend_us(110)
    probe.close()
    return PipelineConfig(stages=stages, budget_us_per_query=budget)


def _roles(models: Models) -> dict:
    return {"tiny": models.tiny, "pruned": models.pruned,
            "student": models.student}


class Traffic:
    """Seeded request streams of one workload.

    * student-online: Zipf(1.1) over a pool of 256 queries of 5-60
      documents (about 8.3k rows, inside the cache), where one document
      in eight of every request is new (a fresh candidate): every
      request misses a little, so the cache hit ratio holds near 83%
      and latency has no bimodal tail for the p90 to straddle;
    * cascade-online: 80-120 never-seen documents per request;
    * ``student`` / ``forest`` phases of both: ``BULK_DOCS`` never-seen
      documents per request, so every document misses the cache and
      the phases time the plan and QuickScorer per document, plus the
      cache's miss, insert and evict path.

    Each segment draws from its own stream, seeded by ``(seed,
    segment)``, so a closed loop that sends more requests in one run
    does not shift the next segment's inputs.  Arrival times come from
    a sibling stream (:func:`arrival_seed`).  Fresh rows are pool rows
    plus an offset unique to ``(segment, request)``, a few ten-
    thousandths at most: new bytes (so cache misses), unchanged work.
    """

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        rows = make_msn30k_like(n_queries=160, docs_per_query=80, seed=seed + 11)
        self.rows = np.ascontiguousarray(rows.features)
        self.pool: list[np.ndarray] = []
        if workload == "student-online":
            # Sizes spread evenly over 5-60 and tied to popularity ranks by
            # a fixed shuffle: the seed must not decide how large the
            # most popular queries are.
            sizes = np.random.default_rng(MODEL_SEED).permutation(
                np.linspace(5, 60, 256).round().astype(int)
            )
            starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
            self.pool = [self.rows[a : a + n] for a, n in zip(starts, sizes)]
            weights = 1.0 / np.arange(1, len(sizes) + 1) ** 1.1
            self.cdf = np.cumsum(weights / weights.sum())

    def stream(self, segment: int) -> "Stream":
        return Stream(self, segment)

    def arrival_seed(self, segment: int) -> list[int]:
        """Seed of a segment's arrival times, independent of its
        request stream's."""
        return [self.seed, segment, 0]


class Stream:
    """One segment's deterministic request sequence."""

    def __init__(self, traffic: Traffic, segment: int) -> None:
        self.traffic = traffic
        self.rng = np.random.default_rng([traffic.seed, segment, 1])
        self.base = segment << 20
        self.fresh = 0

    def _fresh_rows(self, n: int) -> np.ndarray:
        self.fresh += 1
        rows = self.traffic.rows
        start = int(self.rng.integers(0, len(rows) - n))
        return rows[start : start + n] + (self.base + self.fresh) * 2.0**-36

    def next(self) -> np.ndarray:
        workload = self.traffic.workload
        if workload == "student-online":
            pool = self.traffic.pool
            rank = int(np.searchsorted(self.traffic.cdf, self.rng.random()))
            query = pool[min(rank, len(pool) - 1)]
            fresh = -(-len(query) // 8)
            return np.concatenate(
                [query[: len(query) - fresh], self._fresh_rows(fresh)]
            )
        return self._fresh_rows(int(self.rng.integers(80, 121)))

    def bulk(self) -> np.ndarray:
        """A back-to-back request: ``BULK_DOCS`` never-seen documents."""
        lo, hi = BULK_DOCS
        return self._fresh_rows(int(self.rng.integers(lo, hi + 1)))

    def tenant(self) -> str:
        pick = self.rng.random()
        for name, _priority, weight in TENANTS:
            if pick < weight:
                return name
            pick -= weight
        return TENANTS[-1][0]


# ----------------------------------------------------------------------
# Stacks
# ----------------------------------------------------------------------
class Stacks:
    """Every service one workload serves through."""

    def __init__(self, workload: str, models: Models, pipeline) -> None:
        #: the service the online phases go through
        if workload == "cascade-online":
            self.online = ScoringService(
                _roles(models), _stack_config(pipeline=pipeline,
                                              max_batch_size=None)
            )
        else:
            self.online = self._student(models)
        #: the back-to-back phases' services, each with its own cache
        self.student = self._student(models)
        self.forest = ScoringService(models.forest, _stack_config())

    @staticmethod
    def _student(models: Models) -> ScoringService:
        return ScoringService(
            models.student, _stack_config(backend="compiled-network")
        )

    def close(self) -> None:
        for service in (self.online, self.student, self.forest):
            service.close()


def timed_build(workload: str, models: Models, pipeline) -> tuple[Stacks, float]:
    """Build one set of stacks and its front-end; returns the stacks
    and the seconds the build took."""
    gc.collect()
    t0 = load.clock()
    stacks = Stacks(workload, models, pipeline)
    AsyncScoringService(stacks.online)
    return stacks, load.clock() - t0


# ----------------------------------------------------------------------
# Metrics over a phase's segments
# ----------------------------------------------------------------------
def latency_ms(logs, q) -> float:
    """``q``-th percentile over the phase's interleaved segments.

    Percentiles pool the segments: a low-rate segment holds ~20
    requests, so its own p90 is its second-slowest request, while the
    pooled p90 needs one request in ten to be slow before it moves.
    """
    return float(np.percentile(
        [s * 1e3 for log in logs for _t, s in log.latencies], q))


def rps(logs) -> float:
    """Requests served per second, median over segments."""
    return statistics.median(
        sum(log.start <= t < log.start + log.length for t in log.completions)
        / log.length
        for log in logs
    )


def us_per_doc(logs) -> float:
    """Median over segments of scoring seconds per document."""
    return statistics.median(
        sum(s for _t, s in log.latencies) * 1e6 / sum(log.docs)
        for log in logs if log.docs
    )


def rss_mb() -> float:
    """Peak resident set size of the process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def features_of(request) -> np.ndarray:
    return request[0] if isinstance(request, tuple) else request


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
class Checker:
    """Re-scores sampled responses with independent references: plain
    sequential ``ScoringService.score`` for the student and the cascade
    (bit-identical), the ``TreeEnsemble`` traversal for the forest."""

    def __init__(self, models: Models, pipeline) -> None:
        self.forest = models.forest
        self.student = ScoringService(
            models.student, ServiceConfig(backend="compiled-network")
        )
        self.cascade = None
        if pipeline is not None:
            self.cascade = ScoringService(
                _roles(models), ServiceConfig(pipeline=pipeline, max_batch_size=None)
            )
        self.checked = 0
        self.wrong: list[str] = []

    def check(self, phase: str, log, model: str) -> None:
        if not log.samples:
            return
        docs = sum(len(scores) for _r, scores in log.samples)
        keep = max(1, CHECK_DOCS * len(log.samples) // max(docs, 1))
        step = math.ceil(len(log.samples) / keep)
        for request, scores in log.samples[::step]:
            x = features_of(request)
            if model == "forest":
                ok = np.allclose(
                    scores, self.forest.predict(x), rtol=0.0, atol=FOREST_ATOL
                )
            else:
                ref = self.cascade if model == "cascade" else self.student
                ok = np.array_equal(scores, ref.score(x))
            self.checked += 1
            if not ok:
                self.wrong.append(f"{phase}: {model} scores differ")

    def close(self) -> None:
        self.student.close()
        if self.cascade is not None:
            self.cascade.close()


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
class Run:
    """One benchmark invocation: inputs, stacks, phases and counters."""

    def __init__(self, workload: str, seed: int, seconds: float) -> None:
        if workload not in SPECS:
            raise ValueError(
                f"unknown workload {workload!r}; choose from {sorted(SPECS)}"
            )
        self.spec = SPECS[workload]
        self.seed = seed
        self.seconds = seconds
        self.models = Models()
        self.pipeline = (
            cascade_config(self.models) if workload == "cascade-online" else None
        )
        self.traffic = Traffic(workload, seed)
        #: seconds of every stack build; see :meth:`time_build`
        self.builds: list[float] = []
        self.stacks = None
        for _ in range(SETUP_REPEATS):
            if self.stacks is not None:
                self.stacks.close()
            self.stacks, seconds = timed_build(
                workload, self.models, self.pipeline
            )
            self.builds.append(seconds)
        self.checker = Checker(self.models, self.pipeline)
        self.counts = {"sent": 0, "served": 0, "shed": 0, "errored": 0}
        self.errors: list[str] = []
        #: printed, not gated: figures too unsteady for a bound
        self.diagnostics: dict[str, float] = {}
        self.front: AsyncScoringService | None = None
        self._segments = 0

    @property
    def online_model(self) -> str:
        return "cascade" if self.pipeline is not None else "student"

    def close(self) -> None:
        self.stacks.close()
        self.checker.close()

    def time_build(self) -> None:
        """Build and drop one more set of stacks, timing the build.

        A build is ~30-40 ms of compute.  Fifteen builds in a row, at
        the start of a run, spread 0.22-0.36 across runs: host
        interference comes in spells that last seconds, so one spell
        covers all of them or none.  Builds spread between the timed
        segments sample the whole run, like every other metric.
        """
        stacks, seconds = timed_build(
            self.spec.name, self.models, self.pipeline
        )
        stacks.close()
        self.builds.append(seconds)
        gc.collect()

    @property
    def setup_s(self) -> float:
        return statistics.median(self.builds)

    def session(self, body):
        """Run ``body()`` on one event loop behind one started front-end
        (its executor thread and per-thread plan buffers live through
        every segment)."""

        async def main():
            async with AsyncScoringService(self.stacks.online) as front:
                self.front = front
                try:
                    return await body()
                finally:
                    self.front = None

        return asyncio.run(main())

    async def _send(self, request):
        features, tenant = request
        return await self.front.score(features, tenant=tenant)

    def _account(self, phase: str, log, model: str) -> None:
        for key, value in log.merge_counts().items():
            self.counts[key] += value
        self.errors.extend(f"{phase}: {e}" for e in log.errors[:3])
        self.checker.check(phase, log, model)
        log.samples.clear()
        gc.collect()

    async def segment(self, phase: str, seconds: float):
        """One timed segment of ``phase``; returns its log."""
        self._segments += 1
        spec = self.spec
        traffic = self.traffic.stream(self._segments)
        model = self.online_model
        if phase in ("student", "forest"):
            service = self.stacks.forest if phase == "forest" else self.stacks.student
            model = "forest" if phase == "forest" else "student"
            log = load.sync_back_to_back(
                service.score, traffic.bulk, duration_s=seconds
            )
        elif phase == "sat":
            log = await load.closed_loop(
                self._send, lambda: (traffic.next(), traffic.tenant()),
                clients=spec.clients, duration_s=seconds,
                shed_type=RequestShedError,
            )
        else:
            rate = spec.low_rate if phase == "low" else spec.high_rate
            offsets = load.poisson_schedule(
                rate, seconds, self.traffic.arrival_seed(self._segments)
            )
            requests = [(traffic.next(), traffic.tenant()) for _ in offsets]
            log = await load.open_loop(
                self._send, requests, offsets, duration_s=seconds,
                shed_type=RequestShedError,
            )
        self._account(phase, log, model)
        return log

    async def warm_up(self) -> None:
        """Fill caches and lazy buffers, then freeze the warm heap so
        the collector's full passes skip models, inputs and stacks."""
        seconds = min(max(0.3, 0.05 * self.seconds), 1.5)
        for phase, share in (("sat", 1.0), ("student", 0.4), ("forest", 0.4)):
            await self.segment(phase, share * seconds)
        gc.collect()
        gc.freeze()


# ----------------------------------------------------------------------
# Untraced run: end-to-end metrics
# ----------------------------------------------------------------------
def end_to_end(run: Run) -> dict[str, tuple[float, str]]:
    shares = run.spec.shares

    async def body():
        await run.warm_up()
        logs = {phase: [] for phase in shares}
        for _ in range(ROUNDS):
            for phase, share in shares.items():
                seconds = share * run.seconds / ROUNDS
                logs[phase].append(await run.segment(phase, seconds))
                run.time_build()
        return logs

    logs = run.session(body)
    # p90 is reported as a diagnostic, not a gated metric: ten seeds of
    # cascade-online spread 0.27-0.48 on it, whole runs at a time.
    run.diagnostics = {
        f"{phase}.p90_ms": latency_ms(logs[phase], 90) for phase in ("low", "high")
    }
    return {
        "setup_s": (run.setup_s, "s"),
        "rss_mb": (rss_mb(), "MB"),
        "low.p50_ms": (latency_ms(logs["low"], 50), "ms"),
        "high.p50_ms": (latency_ms(logs["high"], 50), "ms"),
        "sat.rps": (rps(logs["sat"]), "1/s"),
        "student.us_per_doc": (us_per_doc(logs["student"]), "us"),
        "forest.us_per_doc": (us_per_doc(logs["forest"]), "us"),
    }


# ----------------------------------------------------------------------
# Traced run: per-layer metrics
# ----------------------------------------------------------------------
#: Depth of the kernel span (plan or QuickScorer) under an engine call;
#: a cascade adds one level (stage -> plan).
KERNEL_DEPTH = 6


def wrap_stack(spans: SpanLog, service, *, after_qs=None) -> None:
    """Wrap the public ``score`` of each layer of one service's stack:
    engine -> fallback chain -> primary tier -> versioned scorer ->
    sharded scorer -> adapter -> plan / QuickScorer / cascade stages."""
    engine = service.engine
    spans.wrap(engine, "score", "batching", 0)
    spans.wrap(engine, "score_coalesced", "batching", 0, coalesced=True)
    spans.wrap(service.chain, "score", "resilience", 1)
    spans.wrap(service.chain.primary, "score", "resilience", 2)
    spans.wrap(service.versioned, "score", "lifecycle", 3)
    sharded = service.versioned.active_stack()
    spans.wrap(sharded, "score", "parallel", 4)
    adapter = sharded.inner
    spans.wrap(adapter, "score", "adapters", 5)
    if hasattr(adapter, "plan"):
        spans.wrap(adapter.plan, "score", "compile.plan", KERNEL_DEPTH)
    elif hasattr(adapter, "cascade"):
        stages = adapter.cascade.stages
        for i, stage in enumerate(stages, start=1):
            scorer = stage.score_fn.__self__
            spans.wrap(stage, "score_fn", f"ranking.stage{i}", KERNEL_DEPTH)
            last = i == len(stages)
            spans.wrap(scorer.plan, "score",
                       "compile.plan" if last else f"plan.stage{i}",
                       KERNEL_DEPTH + 1)
    else:
        spans.wrap(adapter._scorer, "score", "quickscorer", KERNEL_DEPTH,
                   after=after_qs)


class QsStats:
    """Sums QuickScorer ``last_stats`` after each traced call."""

    def __init__(self) -> None:
        self.false_nodes = 0
        self.node_docs = 0

    def __call__(self, scorer) -> None:
        stats = scorer.last_stats
        self.false_nodes += stats.false_nodes_total
        self.node_docs += stats.n_docs * stats.total_internal_nodes


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(run: Run) -> dict[str, tuple[float, str]]:
    seconds = run.seconds
    stacks = run.stacks
    spans = SpanLog()
    qs = QsStats()
    wrap_stack(spans, stacks.online)
    wrap_stack(spans, stacks.student)
    wrap_stack(spans, stacks.forest, after_qs=qs)
    previous = obs.get_request_recorder()
    out: dict[str, tuple[float, str]] = {}

    def traced(phase, share):
        async def go():
            spans.clear()
            spans.recording = True
            try:
                return await run.segment(phase, share * seconds)
            finally:
                spans.recording = False
        return go()

    async def body():
        await run.warm_up()
        # Tracing overhead: untraced and traced closed-loop segments,
        # alternated so host drift hits both sides alike.
        share = TRACE_SHARES["pairs"] / (2 * TRACE_PAIRS)
        plain, with_trace = [], []
        batches = coalesced = 0
        for _ in range(TRACE_PAIRS):
            plain.append(await run.segment("sat", share * seconds))
            obs.set_request_recorder(StageTotals())
            before = run.front.summary()
            with_trace.append(await traced("sat", share))
            after = run.front.summary()
            batches += after["batches"] - before["batches"]
            coalesced += after["coalesced_requests"] - before["coalesced_requests"]
            obs.set_request_recorder(previous)
        overhead = statistics.median(
            rps([a]) / rps([b]) for a, b in zip(plain, with_trace))
        out["obs.trace_overhead_pct"] = ((overhead - 1.0) * 100.0, "%")
        out["frontend.requests_per_batch"] = (_ratio(coalesced, batches), "count")

        # Layer phase: one traced high-rate open-loop segment.
        recorder = StageTotals()
        obs.set_request_recorder(recorder)
        cache = stacks.online.cache
        before = cache.snapshot()
        layer = await traced("high", TRACE_SHARES["layer"])
        after = cache.snapshot()
        obs.set_request_recorder(previous)
        layer_spans = list(spans.spans)
        await traced("student", TRACE_SHARES["student"])
        student_spans = list(spans.spans)
        await traced("forest", TRACE_SHARES["forest"])
        forest_spans = list(spans.spans)
        return layer, recorder, before, after, layer_spans, student_spans, forest_spans

    try:
        (layer, recorder, before, after, layer_spans, student_spans,
         forest_spans) = run.session(body)
    finally:
        spans.unwrap_all()
        obs.set_request_recorder(previous)

    for stage in ("admission", "queue-wait", "coalesce", "respond"):
        key = stage.replace("-", "_")
        out[f"frontend.{key}_us"] = (recorder.mean_us(stage), "us")
    out["loadgen.late_p50_ms"] = (
        statistics.median(layer.lateness) * 1e3 if layer.lateness else 0.0, "ms")

    # Self times per engine call; they must tile the engine wall time,
    # and every engine call must reach the kernel through every wrapped
    # layer (a layer that lost its wrap would hide in its parent's self
    # time).  Online requests always carry new documents, so no engine
    # call is served from the cache alone.
    engine_calls = [sp for sp in layer_spans if sp[0] == 0]
    calls = len(engine_calls)
    selfs, roots, orphans = layer_self_times(layer_spans)
    gap = abs(sum(selfs.values()) - roots) / roots if roots else 1.0
    if orphans or gap > TILE_TOLERANCE:
        run.checker.wrong.append(
            f"layer self times do not tile the engine wall time "
            f"({orphans} orphan spans, {gap:.1%} gap)")
    kernel_depth = KERNEL_DEPTH + (run.pipeline is not None)
    for phase, phase_spans, depth in (
        ("high", layer_spans, kernel_depth),
        ("student", student_spans, KERNEL_DEPTH),
        ("forest", forest_spans, KERNEL_DEPTH),
    ):
        roots_seen = sum(sp[0] == 0 for sp in phase_spans)
        broken = incomplete_calls(phase_spans, depth)
        if not roots_seen or broken:
            run.checker.wrong.append(
                f"{phase}: {broken} of {roots_seen} engine calls lack a "
                f"layer span between depth 0 and {depth}")

    def self_us(name):
        return (_ratio(selfs.get(name, 0.0) * 1e6, calls), "us")

    out["batching.engine_self_us"] = self_us("batching")
    out["batching.docs_per_call"] = (
        _ratio(sum(sp[4] for sp in engine_calls), calls), "count")
    out["resilience.chain_self_us"] = self_us("resilience")
    chain = stacks.online.chain
    out["resilience.primary_share"] = (_ratio(chain.served[0], sum(chain.served)), "ratio")
    out["lifecycle.versioned_self_us"] = self_us("lifecycle")
    out["parallel.sharded_self_us"] = self_us("parallel")
    out["adapters.self_us"] = self_us("adapters")
    hits = after["hits"] - before["hits"]
    out["parallel.cache_hit_ratio"] = (
        _ratio(hits, hits + after["misses"] - before["misses"]), "ratio")
    out["parallel.cache_evictions"] = (
        _ratio(after["evictions"] - before["evictions"], layer.served), "count")

    # Cascade stages, per query (zero where there is no cascade).
    stage_rows: dict[str, list[tuple[float, int]]] = {}
    for _depth, name, start, end, docs in layer_spans:
        if name.startswith("ranking.stage"):
            stage_rows.setdefault(name, []).append((end - start, docs))
    queries = len(stage_rows.get("ranking.stage1", []))
    for i in (1, 2, 3):
        rows = stage_rows.get(f"ranking.stage{i}", [])
        out[f"ranking.stage{i}.us"] = (_ratio(sum(r[0] for r in rows) * 1e6, queries), "us")
        out[f"ranking.stage{i}.docs_in"] = (_ratio(sum(r[1] for r in rows), queries), "count")
    out["ranking.early_exit_share"] = (
        1.0 - _ratio(len(stage_rows.get("ranking.stage3", [])), queries)
        if queries else 0.0, "ratio")

    # Compiled student plan: whole-plan cost from its spans; per-layer
    # cost profiled at the batch sizes this workload sent to it.
    plan_spans = [sp for sp in layer_spans + student_spans if sp[1] == "compile.plan"]
    out["compile.plan_us_per_doc"] = (_ratio(
        sum(sp[3] - sp[2] for sp in plan_spans) * 1e6,
        sum(sp[4] for sp in plan_spans)), "us")
    for i, us in enumerate(profile_plan(run, [sp[4] for sp in plan_spans]), start=1):
        out[f"compile.L{i}.us_per_doc"] = (us, "us")

    # QuickScorer: per-call and per-document cost from a linear fit.
    qs_spans = [sp for sp in forest_spans if sp[1] == "quickscorer"]
    slope, intercept = np.polyfit(
        [sp[4] for sp in qs_spans], [(sp[3] - sp[2]) * 1e6 for sp in qs_spans], 1)
    out["quickscorer.us_per_call"] = (float(intercept), "us")
    out["quickscorer.us_per_doc"] = (float(slope), "us")
    out["quickscorer.false_node_fraction"] = (_ratio(qs.false_nodes, qs.node_docs), "ratio")
    return out


def profile_plan(run: Run, sizes: list[int]) -> list[float]:
    """Per-layer µs/doc of the student plan (``profile_layers``),
    averaged over the docs-weighted quartile batch sizes in ``sizes``."""
    plan = run.stacks.student.versioned.active_stack().inner.plan
    sizes = sorted(n for n in sizes if n) or [1]
    cumulative = np.cumsum(sizes)
    picks = [sizes[int(np.searchsorted(cumulative, q * cumulative[-1]))]
             for q in (0.25, 0.5, 0.75)]
    z = run.models.student.normalizer.transform(run.traffic.rows[: max(picks)])
    total = np.zeros(plan.n_layers)
    for n in picks:
        total += plan.profile_layers(z[:n], repeats=5)
    return list(total / len(picks))
