"""Command-line interface.

Exposes the library's pipeline as subcommands over files, so the system
can be driven without writing Python:

* ``repro generate``      — write a synthetic LtR collection (SVMLight).
* ``repro train-forest``  — train LambdaMART on an SVMLight file.
* ``repro distill``       — distill a student MLP from a saved forest.
* ``repro prune``         — first-layer prune + fine-tune a student.
* ``repro score``         — score an SVMLight file with a saved model.
* ``repro calibrate``     — measure + save the time predictors.
* ``repro predict-time``  — price an architecture with saved predictors.
* ``repro compile``       — compile a network into an inference plan and
  print chosen kernel per layer with predicted vs measured µs/doc.
* ``repro stats``         — serve a probe workload, report spans + drift.
* ``repro resilience``    — fault-inject a backend behind a fallback
  chain and report degradation, breaker states and retry counts.
* ``repro cascade``       — probe a declarative budgeted ranking
  pipeline: per-stage survivor funnel, measured µs/query and NDCG@10
  against each single-stage baseline, budget early-exits.
* ``repro throughput``    — sweep workers x shard size over the sharded
  scorer and print docs/sec plus cache hit ratios.
* ``repro serve``         — answer a burst of concurrent probe requests
  through the asyncio front-end, verify coalesced scores are
  bit-identical to sequential ones, and print the serving report.
* ``repro loadtest``      — replay a seeded multi-tenant load scenario
  (Zipfian popularity, bursty open or closed-loop arrivals) against the
  front-end and report shed/SLO/latency per tenant.
* ``repro trace``         — run a traced probe load (or read a flight
  dump) and print per-request stage timelines by trace id.
* ``repro top``           — live text dashboard over a replayed load:
  serving table, SLO burn rates and the flight-recorder tail.

Every command is a thin wrapper over the public API; see ``--help`` of
each subcommand.  Global flags: ``--trace`` prints the span tree and the
predicted-vs-measured drift report after any command; ``--verbose`` /
``--quiet`` tune the structured log output.
"""

from __future__ import annotations

import argparse
import logging
import sys

import numpy as np

from repro import obs
from repro.datasets import (
    load_svmlight,
    make_istella_s_like,
    make_msn30k_like,
    save_svmlight,
    train_validation_test_split,
)
from repro.distill import DistillationConfig, Distiller
from repro.distill.student import DistilledStudent
from repro.forest import GradientBoostingConfig, LambdaMartRanker, TreeEnsemble
from repro.metrics import mean_average_precision, mean_ndcg
from repro.pruning import FirstLayerPruner, FirstLayerPruningConfig
from repro.runtime import (
    ForestShape,
    NetworkShape,
    PricingContext,
    make_scorer,
    network_report,
    price,
)
from repro.timing import NetworkTimePredictor, load_predictor, save_predictor

log = logging.getLogger("repro.cli")

#: The probe model (by role, see :mod:`repro.obs.probe`) each probe
#: subcommand's ``--backend`` choice serves.
PROBE_ROLES = {"quickscorer": "forest", "compiled-network": "student"}


def _configure_logging(*, verbose: bool = False, quiet: bool = False) -> None:
    """Point the ``repro`` logger at stdout with a level and format.

    Default output is bare messages (what ``print`` produced before);
    ``--verbose`` switches to a structured ``time level logger: message``
    format at DEBUG, ``--quiet`` raises the threshold to WARNING.  The
    handler is rebuilt on every call so redirected ``sys.stdout`` (tests,
    pipes) is honoured.
    """
    root = logging.getLogger("repro")
    if verbose:
        level, fmt = logging.DEBUG, "%(asctime)s %(levelname)s %(name)s: %(message)s"
    elif quiet:
        level, fmt = logging.WARNING, "%(message)s"
    else:
        level, fmt = logging.INFO, "%(message)s"
    handler = logging.StreamHandler(sys.stdout)
    handler.setFormatter(logging.Formatter(fmt))
    root.handlers = [handler]
    root.setLevel(level)
    root.propagate = False


def _parse_hidden(text: str) -> tuple[int, ...]:
    try:
        hidden = tuple(int(part) for part in text.lower().split("x"))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"architecture must look like 400x200x100, got {text!r}"
        ) from exc
    if not hidden or any(h <= 0 for h in hidden):
        raise argparse.ArgumentTypeError(
            f"architecture widths must be positive, got {text!r}"
        )
    return hidden


def _parse_block_shape(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    try:
        shape = tuple(int(part) for part in parts)
    except ValueError:
        shape = ()
    if len(shape) != 2 or any(v <= 0 for v in shape):
        raise argparse.ArgumentTypeError(
            f"block shape must look like 64x8, got {text!r}"
        )
    return shape


# ----------------------------------------------------------------------
# Subcommand implementations (each returns a process exit code)
# ----------------------------------------------------------------------
def _probe(args):
    """The probe models over a ``--queries`` x ``--docs`` collection."""
    from repro.obs.probe import build_probe_models

    return build_probe_models(
        n_queries=args.queries, docs_per_query=args.docs, seed=args.seed
    )


def _service(models, args):
    """A plain service over the ``--backend`` role of the probe models."""
    from repro.runtime import ServiceConfig
    from repro.serving import ScoringService

    return ScoringService(
        models[PROBE_ROLES[args.backend]], ServiceConfig(backend=args.backend)
    )


def cmd_generate(args) -> int:
    """Write a synthetic LtR collection in SVMLight format."""
    maker = make_msn30k_like if args.flavour == "msn30k" else make_istella_s_like
    dataset = maker(
        n_queries=args.queries, docs_per_query=args.docs, seed=args.seed
    )
    save_svmlight(dataset, args.output)
    log.info("wrote %s -> %s", dataset.summary(), args.output)
    return 0


def cmd_train_forest(args) -> int:
    """Train a LambdaMART ensemble on an SVMLight file."""
    dataset = load_svmlight(args.data)
    train, vali, test = train_validation_test_split(dataset, seed=args.seed)
    config = GradientBoostingConfig(
        n_trees=args.trees,
        max_leaves=args.leaves,
        learning_rate=args.learning_rate,
        min_data_in_leaf=args.min_data_in_leaf,
    )
    forest = LambdaMartRanker(config, seed=args.seed).fit(train, vali)
    forest.save(args.output)
    ndcg = mean_ndcg(test, forest.predict(test.features), 10)
    log.info(
        "trained %s; test NDCG@10 = %.4f; saved -> %s",
        forest.describe(), ndcg, args.output,
    )
    return 0


def cmd_distill(args) -> int:
    """Distill a student MLP from a saved forest."""
    forest = TreeEnsemble.load(args.forest)
    dataset = load_svmlight(args.data, n_features=forest.n_features)
    train, _, test = train_validation_test_split(dataset, seed=args.seed)
    config = DistillationConfig(
        epochs=args.epochs,
        learning_rate=args.learning_rate,
        lr_milestones=tuple(
            int(round(args.epochs * f)) for f in (0.6, 0.85)
        ),
    )
    student = Distiller(config, seed=args.seed).distill(
        forest, train, hidden=args.architecture
    )
    student.save(args.output)
    ndcg = mean_ndcg(test, student.predict(test.features), 10)
    log.info(
        "distilled %s from %s; test NDCG@10 = %.4f; saved -> %s",
        student.describe(), forest.describe(), ndcg, args.output,
    )
    return 0


def cmd_prune(args) -> int:
    """First-layer prune and fine-tune a saved student."""
    forest = TreeEnsemble.load(args.forest)
    dataset = load_svmlight(args.data, n_features=forest.n_features)
    train, _, test = train_validation_test_split(dataset, seed=args.seed)
    student = DistilledStudent.load(args.network)
    config = FirstLayerPruningConfig(
        sensitivity=args.sensitivity,
        epochs_prune=args.epochs_prune,
        epochs_finetune=args.epochs_finetune,
        lr_milestones=(),
    )
    pruned = FirstLayerPruner(config, seed=args.seed).prune(
        student, forest, train
    )
    pruned.save(args.output)
    ndcg = mean_ndcg(test, pruned.predict(test.features), 10)
    log.info(
        "pruned first layer to %.1f%% sparsity; test NDCG@10 = %.4f; "
        "saved -> %s",
        pruned.first_layer_sparsity() * 100.0, ndcg, args.output,
    )
    return 0


def cmd_score(args) -> int:
    """Score an SVMLight file with a saved forest or network."""
    if args.forest:
        model = TreeEnsemble.load(args.forest)
    else:
        model = DistilledStudent.load(args.network)
    # Model dispatch lives in the runtime registry, not here: any model
    # family with a registered backend scores through the same path.
    # Forest pricing stays lazy; a student compiles to its plan, which
    # prices its layers as it is built.
    scorer = make_scorer(model)
    dataset = load_svmlight(args.data, n_features=scorer.input_dim)
    scores = scorer.score(dataset.features)
    np.savetxt(args.output, scores, fmt="%.6g")
    ndcg = mean_ndcg(dataset, scores, 10)
    map_score = mean_average_precision(dataset, scores)
    log.info(
        "scored %d docs with %s; NDCG@10 = %.4f, MAP = %.4f; scores -> %s",
        dataset.n_docs, scorer.describe(), ndcg, map_score, args.output,
    )
    return 0


def cmd_calibrate(args) -> int:
    """Measure the GFLOPS surface, calibrate Eq. 5, save both."""
    predictor = NetworkTimePredictor()
    save_predictor(predictor, args.output)
    zones = predictor.dense.surface.zone_summary()
    log.info(
        "calibrated predictors (zones %.0f/%.0f/%.0f GFLOPS, "
        "L_c/L_b = %.2f); saved -> %s",
        zones.low_k_gflops, zones.mid_k_gflops, zones.high_k_gflops,
        predictor.sparse.l_c_over_l_b, args.output,
    )
    return 0


def cmd_verify(args) -> int:
    """Re-measure the calibration anchors and report drift."""
    from repro.timing import verify_calibration

    report = verify_calibration(include_dense=not args.quick,
                                include_sparse=not args.quick)
    log.info("%s", report.render())
    return 0 if report.ok else 1


def cmd_predict_time(args) -> int:
    """Price an architecture through the runtime pricing layer."""
    context = PricingContext(
        predictor=load_predictor(args.predictor) if args.predictor else None
    )
    shape = NetworkShape(
        args.features, args.architecture, first_layer_sparsity=args.sparsity
    )
    report = network_report(shape, context)
    log.info("architecture   : %s on %d features", report.describe(), args.features)
    log.info("dense          : %.2f us/doc", report.dense_total_us_per_doc)
    log.info("1st layer share: %.0f%%", report.first_layer_impact_pct)
    log.info("pruned forecast: %.2f us/doc", report.pruned_forecast_us_per_doc)
    if report.hybrid_total_us_per_doc is not None:
        log.info(
            "hybrid (sparse first layer @ %.1f%%): %.2f us/doc",
            args.sparsity * 100.0, report.hybrid_total_us_per_doc,
        )
    if args.compare_forest:
        n_trees, n_leaves = args.compare_forest
        forest_us = price(ForestShape(n_trees, n_leaves), context=context)
        log.info(
            "QuickScorer %dx%d: %.2f us/doc (%.1fx the pruned forecast)",
            n_trees, n_leaves, forest_us,
            forest_us / report.pruned_forecast_us_per_doc,
        )
    return 0


def cmd_compile(args) -> int:
    """Compile a network into an inference plan and probe its kernels.

    Builds the network — from a saved student (``--network``) or a
    synthetic one pruned to ``--sparsity`` — compiles it at ``--dtype``,
    then prints the chosen kernel per layer with the predictor's µs/doc
    estimate, the compile-time tuning measurement that chose it and the
    measured (best-of-``--repeats``) cost at ``--batch``, every timed
    candidate per batch bucket, plus the whole-plan comparison against
    naive ``predict``.
    """
    import time as _time

    from repro.nn.network import FeedForwardNetwork
    from repro.pruning import ColumnBlockPruner, LevelPruner
    from repro.runtime import compile_network

    if args.network:
        student = DistilledStudent.load(args.network)
        network = student.network
        source = args.network
    else:
        network = FeedForwardNetwork(
            args.features, args.architecture, seed=args.seed
        )
        if args.sparsity > 0:
            if args.pruner == "column-block":
                pruner = ColumnBlockPruner(
                    args.sparsity, block_cols=args.block_shape[1]
                )
            else:
                pruner = LevelPruner(args.sparsity)
            pruner.apply(network.first_layer)
            network.apply_masks()
        source = (
            f"synthetic {network.describe()} "
            f"(first layer {args.pruner}-pruned to {args.sparsity:.0%})"
        )
    context = PricingContext(
        predictor=load_predictor(args.predictor) if args.predictor else None
    )
    plan = compile_network(
        network,
        context=context,
        dtype=args.dtype,
        max_batch=max(args.batch, 1),
        stable=args.stable,
        quantize=args.quantize,
        tolerance=args.tolerance,
        block_sparse=args.block_sparse,
        block_shape=args.block_shape,
    )
    rng = np.random.default_rng(args.seed)
    features = rng.standard_normal((args.batch, network.input_dim))
    measured = plan.profile_layers(features, repeats=args.repeats)

    log.info("compiled %s", source)
    log.info(
        "%s (fingerprint %s, buffers %d KiB, compiled in %.1f ms)",
        plan.describe(), plan.fingerprint,
        plan.buffer_bytes // 1024, plan.compile_us / 1e3,
    )
    buckets = sorted({docs for lp in plan.layers for _k, docs, _us in lp.measured})
    tuned_at = buckets[-1] if buckets else None
    tuned_head = f"tuned@{tuned_at}" if tuned_at else "tuned"
    header = (
        f"{'layer':>5} {'shape':>10} {'sparsity':>8} {'kernel':>10} "
        f"{'dtype':>7} {'fill':>5} {'wide':>7} {'predicted':>12} "
        f"{tuned_head:>12} {'measured':>12}"
    )
    log.info("%s", header)
    log.info("%s", "-" * len(header))
    for lp, us in zip(plan.layers, measured):
        if lp.bits is not None:
            layer_dtype = f"int{lp.bits}"
        else:
            layer_dtype = plan.dtype_name.replace("float", "f")
        fill = f"{lp.block_fill:.0%}" if lp.kernel == "block-spmm" else "-"
        wide = "/".join(str(w) for w in lp.wide_widths) or "-"
        tuned = lp.measured_us_per_doc().get(tuned_at)
        log.info(
            "%5s %10s %8s %10s %7s %5s %7s %9.3f us %12s %9.3f us",
            f"L{lp.index}",
            f"{lp.out_width}x{lp.in_width}",
            f"{lp.sparsity:.1%}",
            lp.kernel,
            layer_dtype,
            fill,
            wide,
            lp.predicted_us_per_doc,
            f"{tuned:9.3f} us" if tuned is not None else "-",
            us,
        )
    log.info(
        "%5s %10s %8s %10s %7s %5s %7s %9.3f us %12s %9.3f us",
        "total", "", "", "", "", "", "",
        plan.predicted_us_per_doc, "", sum(measured),
    )
    if buckets:
        # Every candidate the measured arbitration timed, per bucket
        # ("-": out after losing a smaller bucket, or never timed).
        log.info("")
        log.info(
            "Kernel tuning (compile-time us/doc, best of interleaved rounds)"
        )
        cols = " ".join(f"{'@' + str(b):>9}" for b in buckets)
        log.info("%5s %10s %s", "layer", "candidate", cols)
        for lp in plan.layers:
            for kernel in dict.fromkeys(k for k, _d, _u in lp.measured):
                got = lp.measured_us_per_doc(kernel)
                log.info(
                    "%5s %10s %s%s",
                    f"L{lp.index}",
                    kernel,
                    " ".join(
                        f"{got[b]:9.3f}" if b in got else f"{'-':>9}"
                        for b in buckets
                    ),
                    "  <- chosen" if kernel == lp.kernel else "",
                )
    if plan.score_tolerance is not None:
        log.info(
            "quantize=%s: declared score tolerance %.2e vs float64 reference",
            plan.quantize, plan.score_tolerance,
        )

    best_naive = best_plan = float("inf")
    for _ in range(args.repeats):
        start = _time.perf_counter()
        network.predict(features)
        best_naive = min(best_naive, _time.perf_counter() - start)
        start = _time.perf_counter()
        plan.score(features)
        best_plan = min(best_plan, _time.perf_counter() - start)
    naive_us = best_naive * 1e6 / args.batch
    plan_us = best_plan * 1e6 / args.batch
    log.info(
        "naive predict %.3f us/doc -> compiled %.3f us/doc "
        "(%.2fx) at batch %d",
        naive_us, plan_us, naive_us / plan_us, args.batch,
    )
    log.info("")
    log.info("%s", obs.compile_report().render())
    return 0


def cmd_stats(args) -> int:
    """Serve a probe workload and report spans, metrics and drift.

    Runs every query of a small synthetic collection through the three
    deployment backends (QuickScorer forest, dense student, sparse
    student) with tracing enabled, then prints the predicted-vs-measured
    drift table, the metrics snapshot and the span tree — the paper's
    design-time cost predictions audited on this machine.
    """
    from repro.obs.probe import run_probe

    obs.enable_tracing()
    run_probe(
        n_queries=args.queries, docs_per_query=args.docs, seed=args.seed
    )
    log.info("%s", obs.drift_report().render())
    log.info("")
    log.info("Span tree:")
    log.info("%s", obs.render_trace_tree())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(obs.render_json())
        log.info("snapshot (trace + metrics JSON) -> %s", args.json)
    if args.prometheus:
        with open(args.prometheus, "w", encoding="utf-8") as fh:
            fh.write(obs.render_prometheus())
        log.info("metrics (Prometheus text) -> %s", args.prometheus)
    return 0


def cmd_resilience(args) -> int:
    """Probe the degradation ladder under scheduled faults.

    Builds the probe models, fault-injects the chosen primary backend on
    a deterministic schedule, serves every query through a
    ``primary -> fallback -> stub`` chain via :class:`ScoringService`,
    and reports fallback ratios, breaker states and retry counts — the
    serving-side counterpart of ``repro stats``.
    """
    from repro.runtime import (
        FaultPolicy,
        ResilienceConfig,
        RetryPolicy,
        ServiceConfig,
        StubScorer,
        make_scorer,
        with_faults,
    )
    from repro.serving import ScoringService

    models = _probe(args)
    dataset = models["dataset"]
    primary = with_faults(
        make_scorer(models[PROBE_ROLES[args.backend]], backend=args.backend),
        FaultPolicy.every(args.fault_every, args.fault_kind,
                          stall_seconds=args.stall_seconds),
    )
    fallback = make_scorer(models["pruned"])
    service = ScoringService(
        primary,
        ServiceConfig(
            resilience=ResilienceConfig(
                fallback_models=(fallback, StubScorer()),
                retry=RetryPolicy(max_attempts=args.attempts),
                deadline_us=args.deadline_us,
            )
        ),
    )
    for start, stop in zip(dataset.query_ptr[:-1], dataset.query_ptr[1:]):
        service.score(dataset.features[start:stop])
    log.info("%s", service.chain.describe())
    for tier in service.resilience_summary():
        log.info(
            "  %-18s served=%-5d retries=%-4d failures=%-4d breaker=%s",
            tier["backend"], tier["served"], tier["retries"],
            tier["failures"], tier["breaker"],
        )
    log.info("")
    log.info("%s", obs.resilience_report().render())
    log.info("")
    log.info(
        "fallback ratio %.1f%%; latency %s",
        service.fallback_ratio * 100.0,
        {k: round(v, 1) for k, v in service.stats.latency_summary().items()},
    )
    return 0


def cmd_cascade(args) -> int:
    """Probe a declarative budgeted ranking pipeline.

    Assembles a three-stage pipeline over the probe models — 0.95-pruned
    sparse student → dense student → LambdaMART forest — from a
    :class:`~repro.runtime.ranking.PipelineConfig` that is round-tripped
    through JSON first (the config *is* the deployable artifact), serves
    every probe query through :class:`ScoringService`, and prints the
    stage table, measured µs/query + NDCG@10 against each single-stage
    baseline, and the cascade funnel report with budget early-exits.
    """
    import json
    import time as _time

    from repro.metrics import mean_ndcg
    from repro.runtime import PipelineConfig, ServiceConfig
    from repro.serving import ScoringService

    models = _probe(args)
    dataset = models["dataset"]
    keeps = list(args.keep)
    while len(keeps) < 2:
        keeps.append(keeps[-1] if keeps else 0.5)
    config = PipelineConfig(
        stages=[
            {"model": "pruned", "keep_fraction": keeps[0]},
            {"model": "student", "keep_fraction": keeps[1]},
            {"model": "forest"},
        ],
        budget_us_per_query=args.budget_us,
    )
    round_tripped = PipelineConfig.from_dict(
        json.loads(json.dumps(config.to_dict()))
    )
    if round_tripped != config:
        log.error("PipelineConfig failed to round-trip through JSON")
        return 1
    service = ScoringService(
        {name: m for name, m in models.items() if name != "dataset"},
        ServiceConfig(pipeline=round_tripped, max_batch_size=None),
    )
    log.info("%s", service.pipeline.describe())
    for level, stage in enumerate(service.pipeline_summary()):
        log.info(
            "  level %d: %-16s %.3f us/doc, keep %.0f%%",
            level, stage["stage"], stage["cost_us_per_doc"],
            stage["keep_fraction"] * 100.0,
        )
    log.info(
        "expected amortized cost %.3f us/doc; predicted spend for a "
        "%d-doc query %.1f us",
        service.pipeline.expected_cost_us_per_doc(),
        args.docs,
        service.pipeline.predicted_query_spend_us(args.docs),
    )

    queries = [
        dataset.features[dataset.query_slice(q)]
        for q in range(dataset.n_queries)
    ]

    def measure(score_query):
        best, parts = float("inf"), []
        for _ in range(args.repeats):
            start = _time.perf_counter()
            parts = [score_query(x) for x in queries]
            best = min(best, _time.perf_counter() - start)
        scores = np.concatenate(
            [np.asarray(p, dtype=np.float64) for p in parts]
        )
        return best * 1e6 / len(queries), mean_ndcg(dataset, scores, 10)

    systems = [("cascade", service.score, service.scorer.predicted_us_per_doc)]
    for role in ("pruned", "student", "forest"):
        scorer = make_scorer(models[role])
        systems.append((role, scorer.score, scorer.predicted_us_per_doc))
    header = (
        f"{'system':<16} {'pred us/doc':>12} {'us/query':>10} {'NDCG@10':>8}"
    )
    log.info("")
    log.info("%s", header)
    log.info("%s", "-" * len(header))
    rows = []
    for name, score_query, predicted in systems:
        us_per_query, ndcg = measure(score_query)
        rows.append(
            {
                "system": name,
                "predicted_us_per_doc": predicted,
                "us_per_query": us_per_query,
                "ndcg10": ndcg,
            }
        )
        log.info(
            "%-16s %12.3f %10.1f %8.4f", name, predicted, us_per_query, ndcg
        )
    report = obs.cascade_report()
    log.info("")
    log.info("%s", report.render())
    if args.json:
        payload = {
            "pipeline": round_tripped.to_dict(),
            "rows": rows,
            "metrics": obs.get_registry().snapshot(),
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        log.info("probe rows + pipeline config -> %s", args.json)
    return 0


def cmd_throughput(args) -> int:
    """Sweep workers x shard size over the sharded scoring engine.

    Builds one probe backend, then serves the same workload through a
    :class:`~repro.runtime.parallel.ShardedScorer` for every
    ``--workers`` x ``--shard-rows`` combination, printing docs/sec, the
    speedup over the 1-worker/unsharded baseline and — when
    ``--cache-entries`` is set — the warm-pass cache hit ratio.  Every
    configuration's scores are checked bit-identical to plain scoring
    before its row is printed.
    """
    import math
    import time as _time

    from repro.runtime import ParallelConfig, ShardedScorer, make_scorer

    models = _probe(args)
    features = models["dataset"].features
    base_scorer = make_scorer(
        models[PROBE_ROLES[args.backend]], backend=args.backend
    )
    baseline_scores = base_scorer.score(features)

    def measure(scorer) -> float:
        best = float("inf")
        for _ in range(args.repeats):
            start = _time.perf_counter()
            out = scorer.score(features)
            best = min(best, _time.perf_counter() - start)
        if not np.array_equal(out, baseline_scores):
            raise SystemExit(
                f"sharded scores diverged from plain scoring for {scorer!r}"
            )
        return len(features) / best

    base_rate = len(features) / min(
        _measure_plain(base_scorer, features, args.repeats)
    )
    log.info(
        "workload: %d docs x %d features via %s "
        "(unsharded baseline %.0f docs/sec)",
        features.shape[0], features.shape[1], args.backend, base_rate,
    )
    header = (
        f"{'workers':>7} {'shard rows':>10} {'docs/sec':>12} "
        f"{'speedup':>8} {'hit ratio':>10}"
    )
    log.info("%s", header)
    log.info("%s", "-" * len(header))
    for workers in args.workers:
        for shard_rows in args.shard_rows:
            config = ParallelConfig(
                workers=workers,
                strategy="size-capped" if shard_rows else "even",
                max_shard_rows=shard_rows or None,
                cache_entries=args.cache_entries,
            )
            with ShardedScorer(base_scorer, config) as sharded:
                rate = measure(sharded)
                hit_ratio = float("nan")
                if args.cache_entries:
                    warm = measure(sharded)  # cache-warm pass
                    rate = max(rate, warm)
                    hit_ratio = sharded.cache.hit_ratio
            log.info(
                "%7d %10s %12.0f %7.2fx %s",
                workers,
                shard_rows or "-",
                rate,
                rate / base_rate,
                f"{hit_ratio:>9.1%}" if math.isfinite(hit_ratio) else f"{'-':>9}",
            )
    report = obs.parallel_report()
    log.info("")
    log.info("%s", report.render())
    return 0


def cmd_serve(args) -> int:
    """Serve concurrent probe requests through the asyncio front-end.

    Builds one probe backend behind an :class:`AsyncScoringService`,
    fires every probe query *concurrently*, verifies each coalesced
    answer is bit-identical to the sequential ``ScoringService.score``
    result, and prints the coalescing summary plus the per-tenant
    serving report.
    """
    import asyncio

    from repro.runtime import AsyncConfig
    from repro.serving import AsyncScoringService

    models = _probe(args)
    service = _service(models, args)
    dataset = models["dataset"]
    requests = [
        dataset.features[start:stop]
        for start, stop in zip(dataset.query_ptr[:-1], dataset.query_ptr[1:])
    ]
    sequential = [service.score(x) for x in requests]

    async def _serve() -> tuple[list[np.ndarray], dict]:
        async with AsyncScoringService(
            service, frontend=AsyncConfig(max_wait_us=args.max_wait_us)
        ) as front:
            scores = await asyncio.gather(
                *(front.score(x) for x in requests)
            )
            return scores, front.summary()

    coalesced, summary = asyncio.run(_serve())
    for index, (ref, got) in enumerate(zip(sequential, coalesced)):
        if not np.array_equal(ref, got):
            raise SystemExit(
                f"request {index} scored through a coalesced batch "
                "diverged from sequential scoring"
            )
    log.info(
        "served %d concurrent requests (%d docs) via %s: "
        "%d coalesced batches, %.1f requests/batch, "
        "bit-identical to sequential scoring",
        len(requests), dataset.n_docs, args.backend,
        summary["batches"], summary["requests_per_batch"],
    )
    log.info("")
    log.info("%s", obs.serving_report().render())
    return 0


def _parse_tenant(text: str):
    """``name=weight[:rate[:priority[:deadline_us]]]`` → (name, weight, cfg).

    Examples: ``web=3``, ``web=3:500`` (500 req/s bucket),
    ``batch=1:50:2`` (priority class 2), ``sla=1::0:8000`` (priority 0,
    8 ms deadline, no rate limit).
    """
    from repro.runtime import TenantConfig

    try:
        name, rest = text.split("=", 1)
        parts = rest.split(":")
        weight = float(parts[0])
        rate = float(parts[1]) if len(parts) > 1 and parts[1] else None
        priority = int(parts[2]) if len(parts) > 2 and parts[2] else 1
        deadline = float(parts[3]) if len(parts) > 3 and parts[3] else None
    except (ValueError, IndexError) as exc:
        raise argparse.ArgumentTypeError(
            f"tenant must look like name=weight[:rate[:priority"
            f"[:deadline_us]]], got {text!r}"
        ) from exc
    return name, weight, TenantConfig(
        name=name, rate_per_s=rate, priority=priority, deadline_us=deadline
    )


def cmd_loadtest(args) -> int:
    """Replay a seeded load scenario against the asyncio front-end.

    The scenario comes from ``--spec`` (a LoadSpec JSON file) or from
    the flags below; either way the offered sequence is deterministic in
    the seed.  Prints the client-side load report and the server-side
    per-tenant serving table; ``--json`` additionally dumps both plus
    the metrics snapshot.
    """
    import json

    from repro.obs.probe import build_probe_models
    from repro.runtime import AsyncConfig
    from repro.serving import LoadSpec, make_queries, run_load

    tenants = [_parse_tenant(t) for t in (args.tenant or [])]
    if args.spec:
        with open(args.spec, "r", encoding="utf-8") as fh:
            spec = LoadSpec.from_dict(json.load(fh))
    else:
        spec = LoadSpec(
            mode=args.mode,
            duration_s=args.duration,
            rate_per_s=args.rate,
            burst_factor=args.burst_factor,
            burst_period_s=args.burst_period,
            workers=args.workers,
            requests_per_worker=args.requests_per_worker,
            think_time_s=args.think_time,
            n_users=args.users,
            n_queries=args.distinct_queries,
            docs_per_query=args.docs,
            zipf_s=args.zipf_s,
            tenants=tuple((name, weight) for name, weight, _ in tenants)
            or (("default", 1.0),),
            time_scale=args.time_scale,
            seed=args.seed,
        )
    models = build_probe_models(n_queries=8, docs_per_query=16, seed=args.seed)
    service = _service(models, args)
    frontend = AsyncConfig(
        max_wait_us=args.max_wait_us,
        slo_us=args.slo_us,
        tenants=tuple(cfg for _, _, cfg in tenants),
    )
    swap_fn = None
    if args.swap_at is not None:
        candidate = models[PROBE_ROLES[args.backend]]
        if hasattr(candidate, "clone"):
            candidate = candidate.clone()
            last = candidate.network.linears[-1]
            last.weight.data *= 1.001
            last.bias.data *= 1.001
            swap_kwargs = {}
        else:
            # forests have no cheap perturbed twin; swap to the student
            candidate = models["student"]
            swap_kwargs = {"backend": "compiled-network"}
        swap_fn = lambda front: front.swap(  # noqa: E731
            candidate, version="v2", force=True, **swap_kwargs
        )
    n_features = models["dataset"].features.shape[1]
    report = run_load(
        service,
        spec,
        make_queries(spec, n_features),
        frontend=frontend,
        swap_at=args.swap_at,
        swap_fn=swap_fn,
    )
    serving = obs.serving_report()
    log.info("%s", report.render())
    log.info("")
    log.info("%s", serving.render())
    if args.json:
        payload = {
            "load": report.to_dict(),
            "metrics": obs.get_registry().snapshot(),
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        log.info("load report + metrics snapshot -> %s", args.json)
    return 0


def cmd_swap(args) -> int:
    """Probe the versioned model lifecycle end to end.

    Builds the probe student service, swaps in a near-identical
    candidate through the shadow-scoring gate (promoted on live traffic)
    and — with ``--regressed`` — a deliberately broken one (rolled back
    automatically).  Prints the gate evidence, the swap timeline and the
    ``lifecycle.*`` report; ``--json`` dumps the lifecycle summary.
    """
    import json

    from repro.runtime import LifecycleConfig, ParallelConfig, ServiceConfig
    from repro.serving import ScoringService

    models = _probe(args)
    dataset = models["dataset"]
    student = models["student"]
    service = ScoringService(
        student,
        ServiceConfig(
            parallel=ParallelConfig(workers=2, cache_entries=4096),
            lifecycle=LifecycleConfig(
                shadow_mode="sync",
                shadow_fraction=args.shadow_fraction,
                shadow_min_requests=args.shadow_min,
            ),
        ),
    )
    queries = [
        dataset.features[dataset.query_slice(q)]
        for q in range(dataset.n_queries)
    ]

    def serve(n: int) -> None:
        for i in range(n):
            service.score(queries[i % len(queries)])

    def shadow_phase(candidate, version: str) -> None:
        outcome = service.swap(candidate, version=version)
        log.info("swap(%s) -> %s", version, outcome["action"])
        serve(args.requests)
        if service.lifecycle.state == "shadowing":
            service.lifecycle.decide()
        gate = service.lifecycle.last_gate
        verdict = "PASSED" if gate.passed else "TRIPPED"
        log.info(
            "gate %s after %d comparisons: drift %.2f%%, agreement %.3f%s",
            verdict, gate.compared, gate.mean_drift_pct,
            gate.mean_agreement,
            (" (" + "; ".join(gate.reasons) + ")") if gate.reasons else "",
        )
        log.info("active version: %s", service.registry.active.version_id)

    serve(args.requests)  # warm the incumbent before any swap
    good = student.clone()
    for param in (
        good.network.linears[-1].weight,
        good.network.linears[-1].bias,
    ):
        param.data *= 1.001
    shadow_phase(good, "candidate")
    if args.regressed:
        bad = student.clone()
        for param in (
            bad.network.linears[-1].weight,
            bad.network.linears[-1].bias,
        ):
            param.data *= -1.0
        shadow_phase(bad, "regressed")
    summary = service.lifecycle_summary()
    log.info("")
    for event in summary["swap_events"]:
        log.info(
            "  %s: %s -> %s (%d compared, %d cache rows invalidated)",
            event["kind"], event["from_version"], event["to_version"],
            event["compared"], event["invalidated"],
        )
    log.info("")
    log.info("%s", obs.lifecycle_report().render())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
        log.info("lifecycle summary -> %s", args.json)
    service.close()
    return 0


def _traced_probe_load(args):
    """Run a seeded probe load with request tracing on; returns records.

    Shared by ``repro trace`` (no ``--flight`` file) and the tests: a
    fresh enabled recorder + registry + burn monitor are installed for
    the duration, and every retained flight record is returned in its
    ``to_dict`` form.
    """
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.probe import build_probe_models
    from repro.runtime import AsyncConfig
    from repro.serving import LoadSpec, make_queries, run_load

    spec = LoadSpec(
        mode="closed",
        workers=args.workers,
        requests_per_worker=args.requests_per_worker,
        think_time_s=0.0,
        n_users=5_000,
        n_queries=16,
        docs_per_query=args.docs,
        zipf_s=1.1,
        tenants=(("web", 3.0), ("batch", 1.0)),
        seed=args.seed,
    )
    models = build_probe_models(n_queries=8, docs_per_query=16, seed=args.seed)
    service = _service(models, args)
    recorder = obs.RequestRecorder(enabled=True)
    previous_recorder = obs.set_request_recorder(recorder)
    previous_registry = obs.set_registry(MetricsRegistry())
    previous_monitor = obs.set_slo_monitor(obs.SloMonitor())
    try:
        run_load(
            service,
            spec,
            make_queries(spec, models["dataset"].features.shape[1]),
            frontend=AsyncConfig(max_wait_us=300.0, slo_us=args.slo_us),
        )
        return [record.to_dict() for record in recorder.flight.records()]
    finally:
        obs.set_request_recorder(previous_recorder)
        obs.set_registry(previous_registry)
        obs.set_slo_monitor(previous_monitor)


def cmd_trace(args) -> int:
    """Print per-request stage timelines from the flight recorder.

    Without ``--flight``, a seeded probe load runs with request tracing
    enabled and its retained records are inspected; with ``--flight``,
    records come from a JSON dump (a ``repro loadtest --json`` /
    ``BENCH_serving.json`` document with a ``trace_sample``, a flight
    dump with a ``records`` list, or a bare list).  A trace-id prefix
    argument narrows the output to matching traces; otherwise the
    slowest ``--slowest`` retained requests render in full.
    """
    import json

    from repro.obs.flight import render_record

    if args.flight:
        with open(args.flight, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if isinstance(data, list):
            records = data
        elif isinstance(data, dict) and "records" in data:
            records = data["records"]
        elif isinstance(data, dict) and data.get("trace_sample"):
            records = [data["trace_sample"]]
        elif isinstance(data, dict) and (
            data.get("load", {}) or {}
        ).get("trace_sample"):
            records = [data["load"]["trace_sample"]]
        else:
            log.error("no trace records found in %s", args.flight)
            return 1
    else:
        records = _traced_probe_load(args)
    if args.trace_id:
        matches = [
            r
            for r in records
            if str(r.get("trace_id", "")).startswith(args.trace_id)
        ]
        if not matches:
            log.error(
                "no retained trace matches %r (have %d records)",
                args.trace_id,
                len(records),
            )
            return 1
    else:
        matches = sorted(
            records, key=lambda r: -(r.get("wall_us") or 0.0)
        )[: args.slowest]
    for record in matches:
        log.info("%s", render_record(record))
        log.info("")
    log.info(
        "%d trace(s) shown of %d retained", len(matches), len(records)
    )
    return 0


def cmd_top(args) -> int:
    """Live text dashboard over a replayed load scenario.

    Builds a probe service, replays an open-loop load against the async
    front-end, and renders ``--frames`` dashboard frames while it runs:
    the per-tenant serving table, the SLO burn-rate table, and the
    flight recorder's retained tail, plus a final frame after drain.
    """
    import asyncio

    from repro.obs.metrics import MetricsRegistry
    from repro.obs.probe import build_probe_models
    from repro.runtime import AsyncConfig
    from repro.serving import AsyncScoringService, LoadSpec, make_queries
    from repro.serving.loadgen import run_load_async

    spec = LoadSpec(
        mode="open",
        duration_s=args.duration,
        rate_per_s=args.rate,
        burst_factor=2.0,
        burst_period_s=max(args.duration / 4.0, 1e-3),
        n_users=10_000,
        n_queries=32,
        docs_per_query=args.docs,
        zipf_s=1.1,
        tenants=(("web", 3.0), ("batch", 1.0)),
        seed=args.seed,
    )
    models = build_probe_models(n_queries=8, docs_per_query=16, seed=args.seed)
    service = _service(models, args)
    queries = make_queries(spec, models["dataset"].features.shape[1])
    recorder = obs.RequestRecorder(enabled=True)
    previous_recorder = obs.set_request_recorder(recorder)
    previous_registry = obs.set_registry(MetricsRegistry())
    previous_monitor = obs.set_slo_monitor(obs.SloMonitor())

    def _frame(label, front) -> str:
        lines = [
            f"--- repro top [{label}] "
            f"queue depth {front.summary()['queue_depth']} ---",
            obs.serving_report().render(),
            "",
            obs.slo_burn_report().render(),
            "",
            recorder.flight.render(),
        ]
        return "\n".join(lines)

    async def _run():
        async with AsyncScoringService(
            service, frontend=AsyncConfig(max_wait_us=300.0, slo_us=args.slo_us)
        ) as front:
            load = asyncio.ensure_future(
                run_load_async(front, spec, queries)
            )
            frame = 0
            while not load.done() and frame < args.frames:
                await asyncio.sleep(args.interval)
                frame += 1
                log.info("%s\n", _frame(f"frame {frame}", front))
            report = await load
            log.info("%s\n", _frame("final", front))
            return report

    try:
        report = asyncio.run(_run())
        log.info("%s", report.render())
        return 0
    finally:
        obs.set_request_recorder(previous_recorder)
        obs.set_registry(previous_registry)
        obs.set_slo_monitor(previous_monitor)


def _measure_plain(scorer, features, repeats: int) -> list[float]:
    """Best-of-N wall times of unsharded scoring (list for ``min``)."""
    import time as _time

    times = []
    for _ in range(repeats):
        start = _time.perf_counter()
        scorer.score(features)
        times.append(_time.perf_counter() - start)
    return times


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Distilled neural networks for efficient learning to rank",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="enable tracing; print the span tree and drift report "
        "after the command",
    )
    verbosity = parser.add_mutually_exclusive_group()
    verbosity.add_argument(
        "--verbose",
        action="store_true",
        help="structured DEBUG-level log output",
    )
    verbosity.add_argument(
        "--quiet", action="store_true", help="warnings and errors only"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic LtR collection")
    p.add_argument("output")
    p.add_argument("--flavour", choices=("msn30k", "istella"), default="msn30k")
    p.add_argument("--queries", type=int, default=200)
    p.add_argument("--docs", type=int, default=25)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train-forest", help="train a LambdaMART ensemble")
    p.add_argument("data")
    p.add_argument("output")
    p.add_argument("--trees", type=int, default=60)
    p.add_argument("--leaves", type=int, default=64)
    p.add_argument("--learning-rate", type=float, default=0.12)
    p.add_argument("--min-data-in-leaf", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_train_forest)

    p = sub.add_parser("distill", help="distill a student MLP from a forest")
    p.add_argument("data")
    p.add_argument("forest")
    p.add_argument("output")
    p.add_argument(
        "--architecture", type=_parse_hidden, default=(200, 100, 100, 50)
    )
    p.add_argument("--epochs", type=int, default=25)
    p.add_argument("--learning-rate", type=float, default=0.003)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_distill)

    p = sub.add_parser("prune", help="first-layer prune + fine-tune a student")
    p.add_argument("data")
    p.add_argument("forest")
    p.add_argument("network")
    p.add_argument("output")
    p.add_argument("--sensitivity", type=float, default=2.0)
    p.add_argument("--epochs-prune", type=int, default=10)
    p.add_argument("--epochs-finetune", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_prune)

    p = sub.add_parser("score", help="score an SVMLight file with a model")
    p.add_argument("data")
    p.add_argument("output")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--forest")
    group.add_argument("--network")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("calibrate", help="measure + save the time predictors")
    p.add_argument("output")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("verify", help="check the cost-model calibration")
    p.add_argument(
        "--quick",
        action="store_true",
        help="QuickScorer anchors only (skip the GFLOPS sweep)",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("predict-time", help="price an architecture")
    p.add_argument("architecture", type=_parse_hidden)
    p.add_argument("--features", type=int, default=136)
    p.add_argument("--sparsity", type=float, default=0.987)
    p.add_argument("--predictor", help="saved predictor JSON (repro calibrate)")
    p.add_argument(
        "--compare-forest",
        nargs=2,
        type=int,
        metavar=("TREES", "LEAVES"),
        help="also print the QuickScorer time of this forest shape",
    )
    p.set_defaults(func=cmd_predict_time)

    p = sub.add_parser(
        "stats", help="serve a probe workload; report spans + drift"
    )
    p.add_argument("--queries", type=int, default=24)
    p.add_argument("--docs", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", help="also write the trace+metrics JSON here")
    p.add_argument(
        "--prometheus", help="also write the Prometheus text snapshot here"
    )
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser(
        "resilience",
        help="fault-inject a backend; report degradation + breaker states",
    )
    p.add_argument(
        "--backend",
        choices=tuple(PROBE_ROLES),
        default="quickscorer",
        help="primary backend to fault-inject",
    )
    p.add_argument(
        "--fault-every",
        type=int,
        default=3,
        help="inject a fault on every Nth request",
    )
    p.add_argument(
        "--fault-kind",
        choices=("error", "stall", "nan"),
        default="error",
        help="what the injected fault does",
    )
    p.add_argument(
        "--stall-seconds",
        type=float,
        default=0.01,
        help="stall duration when --fault-kind stall",
    )
    p.add_argument(
        "--attempts",
        type=int,
        default=1,
        help="attempts per tier before degrading (1 = fail fast)",
    )
    p.add_argument(
        "--deadline-us",
        type=float,
        default=None,
        help="per-request deadline in microseconds",
    )
    p.add_argument("--queries", type=int, default=24)
    p.add_argument("--docs", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_resilience)

    p = sub.add_parser(
        "compile",
        help="compile a network into an inference plan and probe it",
    )
    p.add_argument(
        "--network", help="saved student model to compile (repro distill)"
    )
    p.add_argument(
        "--architecture",
        type=_parse_hidden,
        default=(400, 200, 200, 100),
        help="hidden widths of the synthetic network (e.g. 400x200x100)",
    )
    p.add_argument("--features", type=int, default=136)
    p.add_argument(
        "--sparsity",
        type=float,
        default=0.9,
        help="first-layer pruning level of the synthetic network",
    )
    p.add_argument(
        "--dtype",
        choices=("float64", "float32"),
        default="float64",
        help="plan execution dtype (float32 = the paper's kernels)",
    )
    p.add_argument(
        "--stable",
        action="store_true",
        help="compile the serving-grade chunk-invariant plan",
    )
    p.add_argument(
        "--pruner",
        choices=("level", "column-block"),
        default="level",
        help="synthetic first-layer pruning criterion (column-block "
        "leaves the dense tiles block-spmm vectorizes over)",
    )
    p.add_argument(
        "--quantize",
        choices=("none", "int8"),
        default="none",
        help="int8 GEMM on the dense layers a ReLU6 feeds",
    )
    p.add_argument(
        "--tolerance",
        type=float,
        help="score-tolerance budget for int8 plans",
    )
    p.add_argument(
        "--block-sparse",
        action="store_true",
        help="regroup pruned layers into block-CSR tiles when fill allows",
    )
    p.add_argument(
        "--block-shape",
        type=_parse_block_shape,
        default=(64, 8),
        help="block tile shape as RxC (default 64x8)",
    )
    p.add_argument("--batch", type=int, default=256)
    p.add_argument(
        "--repeats", type=int, default=20, help="best-of-N timing repeats"
    )
    p.add_argument("--predictor", help="saved predictor JSON (repro calibrate)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser(
        "cascade",
        help="probe a budgeted ranking pipeline against single-stage "
        "baselines",
    )
    p.add_argument(
        "--keep",
        type=float,
        nargs="+",
        default=[0.4, 0.5],
        help="survivor keep fractions of the non-final stages",
    )
    p.add_argument(
        "--budget-us",
        type=float,
        default=None,
        help="per-query predicted-spend budget in microseconds",
    )
    p.add_argument(
        "--repeats", type=int, default=3, help="best-of-N timing repeats"
    )
    p.add_argument("--queries", type=int, default=24)
    p.add_argument("--docs", type=int, default=48)
    p.add_argument(
        "--json", help="also write the probe rows + pipeline config here"
    )
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_cascade)

    p = sub.add_parser(
        "throughput",
        help="sweep workers x shard size over the sharded scorer",
    )
    p.add_argument(
        "--backend",
        choices=tuple(PROBE_ROLES),
        default="compiled-network",
        help="backend to shard",
    )
    p.add_argument(
        "--workers",
        type=int,
        nargs="+",
        default=[1, 2, 4],
        help="worker counts to sweep",
    )
    p.add_argument(
        "--shard-rows",
        type=int,
        nargs="+",
        default=[0, 64, 256],
        metavar="ROWS",
        help="max rows per shard to sweep (0 = even split across workers)",
    )
    p.add_argument(
        "--cache-entries",
        type=int,
        default=0,
        help="score-cache capacity (0 disables; >0 adds a warm pass "
        "and reports the hit ratio)",
    )
    p.add_argument(
        "--repeats", type=int, default=3, help="best-of-N timing repeats"
    )
    p.add_argument("--queries", type=int, default=24)
    p.add_argument("--docs", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_throughput)

    p = sub.add_parser(
        "serve",
        help="answer concurrent probe requests via the asyncio front-end",
    )
    p.add_argument(
        "--backend",
        choices=tuple(PROBE_ROLES),
        default="compiled-network",
        help="backend to serve through the front-end",
    )
    p.add_argument(
        "--max-wait-us",
        type=float,
        default=2000.0,
        help="linger window: how long the batcher waits to coalesce "
        "more requests (0 = dispatch immediately)",
    )
    p.add_argument("--queries", type=int, default=24)
    p.add_argument("--docs", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "loadtest",
        help="replay a seeded multi-tenant load scenario; report "
        "shed/SLO/latency per tenant",
    )
    p.add_argument(
        "--backend",
        choices=tuple(PROBE_ROLES),
        default="compiled-network",
    )
    p.add_argument(
        "--spec", help="LoadSpec JSON file (overrides the flags below)"
    )
    p.add_argument("--mode", choices=("open", "closed"), default="open")
    p.add_argument(
        "--duration", type=float, default=0.5,
        help="open mode: seconds of schedule to offer",
    )
    p.add_argument(
        "--rate", type=float, default=400.0,
        help="open mode: base arrival rate (req/s)",
    )
    p.add_argument(
        "--burst-factor", type=float, default=1.0,
        help="open mode: rate multiplier during the burst half-period",
    )
    p.add_argument(
        "--burst-period", type=float, default=0.25,
        help="open mode: seconds per burst on/off cycle",
    )
    p.add_argument(
        "--workers", type=int, default=8,
        help="closed mode: concurrent simulated users",
    )
    p.add_argument(
        "--requests-per-worker", type=int, default=25,
        help="closed mode: requests each user issues",
    )
    p.add_argument(
        "--think-time", type=float, default=0.0,
        help="closed mode: seconds between a user's requests",
    )
    p.add_argument(
        "--users", type=int, default=10_000,
        help="simulated user population (Zipfian popularity)",
    )
    p.add_argument(
        "--distinct-queries", type=int, default=64,
        help="distinct candidate lists the population maps onto",
    )
    p.add_argument(
        "--docs", type=int, default=10, help="documents per candidate list"
    )
    p.add_argument(
        "--zipf-s", type=float, default=1.1,
        help="Zipf exponent of user popularity (0 = uniform)",
    )
    p.add_argument(
        "--time-scale", type=float, default=1.0,
        help="compress schedule sleeps (0.1 = replay 10x faster)",
    )
    p.add_argument(
        "--tenant",
        action="append",
        metavar="NAME=WEIGHT[:RATE[:PRIO[:DEADLINE_US]]]",
        help="add a tenant to the mix and its admission contract "
        "(repeatable; default: one unlimited 'default' tenant)",
    )
    p.add_argument(
        "--max-wait-us", type=float, default=500.0,
        help="front-end linger window",
    )
    p.add_argument(
        "--slo-us", type=float, default=None,
        help="default enqueue->response SLO for tenants without a "
        "deadline of their own",
    )
    p.add_argument(
        "--swap-at", type=float, default=None, metavar="FRACTION",
        help="force a zero-downtime hot swap to a perturbed candidate "
        "after this fraction of offered requests; the report records "
        "the swap timing and per-version served counts",
    )
    p.add_argument(
        "--json", help="also write the load report + metrics snapshot here"
    )
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_loadtest)

    p = sub.add_parser(
        "swap",
        help="probe the versioned lifecycle: shadow-gated hot swap, "
        "promotion gate, automatic rollback",
    )
    p.add_argument("--queries", type=int, default=8)
    p.add_argument("--docs", type=int, default=12)
    p.add_argument(
        "--requests", type=int, default=16,
        help="requests served during each shadow phase",
    )
    p.add_argument(
        "--shadow-fraction", type=float, default=1.0,
        help="fraction of live traffic mirrored to the candidate",
    )
    p.add_argument(
        "--shadow-min", type=int, default=8,
        help="comparisons required before the gate decides",
    )
    p.add_argument(
        "--regressed", action="store_true",
        help="also swap in a regressed candidate to demonstrate the "
        "automatic rollback",
    )
    p.add_argument("--json", help="write the lifecycle summary here")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_swap)

    p = sub.add_parser(
        "trace",
        help="print per-request stage timelines from a traced load or "
        "a flight dump",
    )
    p.add_argument(
        "trace_id",
        nargs="?",
        help="trace-id prefix to look up (default: show the slowest)",
    )
    p.add_argument(
        "--flight",
        help="read records from a JSON dump instead of running a load",
    )
    p.add_argument(
        "--slowest", type=int, default=3,
        help="how many of the slowest traces to render (no trace id)",
    )
    p.add_argument(
        "--backend",
        choices=tuple(PROBE_ROLES),
        default="compiled-network",
    )
    p.add_argument("--workers", type=int, default=8)
    p.add_argument("--requests-per-worker", type=int, default=8)
    p.add_argument("--docs", type=int, default=10)
    p.add_argument(
        "--slo-us", type=float, default=5_000.0,
        help="enqueue->response SLO the traced load is judged against",
    )
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "top",
        help="live text dashboard over a replayed load: serving table, "
        "SLO burn rates, flight-recorder tail",
    )
    p.add_argument(
        "--backend",
        choices=tuple(PROBE_ROLES),
        default="compiled-network",
    )
    p.add_argument(
        "--duration", type=float, default=2.0,
        help="seconds of open-loop load to replay",
    )
    p.add_argument(
        "--rate", type=float, default=300.0, help="offered req/s"
    )
    p.add_argument("--docs", type=int, default=10)
    p.add_argument(
        "--interval", type=float, default=0.5,
        help="seconds between dashboard frames",
    )
    p.add_argument(
        "--frames", type=int, default=10,
        help="at most this many frames before the final one",
    )
    p.add_argument(
        "--slo-us", type=float, default=5_000.0,
        help="enqueue->response SLO for the burn-rate table",
    )
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_top)

    return parser


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    _configure_logging(verbose=args.verbose, quiet=args.quiet)
    if args.trace:
        obs.enable_tracing()
    try:
        return args.func(args)
    finally:
        if args.trace:
            log.info("")
            log.info("Span tree (--trace):")
            log.info("%s", obs.render_trace_tree())
            report = obs.drift_report()
            if report.rows:
                log.info("")
                log.info("%s", report.render())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
