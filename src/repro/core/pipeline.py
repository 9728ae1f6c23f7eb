"""End-to-end orchestration of the paper's methodology.

:class:`EfficientRankingPipeline` wires every substrate together on one
dataset:

* trains LambdaMART forests (one boosting run per leaf count, truncated
  into all requested sizes — boosting prefixes are valid ensembles);
* distills students from the 256-leaf teacher (Section 5.1);
* prunes student first layers with the efficiency-oriented pipeline
  (Section 5.2);
* evaluates NDCG@10 / NDCG / MAP on the test split with per-query values
  retained for Fisher randomization tests;
* locates every model on the time axis through the unified runtime
  pricing layer (:func:`repro.runtime.price`) — QuickScorer for forests,
  the dense/sparse predictors for networks — always at the *paper-named*
  shape (see DESIGN.md on scaling).

All trained artefacts are cached on the instance, so benchmark modules
can share one pipeline per dataset.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.core.config import (
    DatasetHyperParams,
    ExperimentScale,
    ISTELLA_HYPERPARAMS,
    MSN30K_HYPERPARAMS,
)
from repro.core.zoo import ForestSpec, ISTELLA_ZOO, MSN30K_ZOO, NetworkSpec, PaperZoo
from repro.datasets.base import LtrDataset
from repro.datasets.splits import train_validation_test_split
from repro.datasets.synthetic import make_istella_s_like, make_msn30k_like
from repro.design.frontier import ModelPoint
from repro.distill.distiller import Distiller
from repro.distill.student import DistilledStudent
from repro.forest.ensemble import TreeEnsemble
from repro.forest.lambdamart import LambdaMartRanker
from repro.metrics.ranking import average_precision, ndcg, per_query_metric
from repro.pruning.pipeline import FirstLayerPruner
from repro.runtime import (
    ForestShape,
    PricingContext,
    price,
    shared_predictor,
    student_shape,
)
from repro.timing.network_predictor import NetworkTimePredictor


@dataclass
class EvaluatedModel:
    """A model with its test-set quality and predicted scoring time."""

    name: str
    family: str  # "forest" | "neural"
    description: str
    ndcg10: float
    ndcg_full: float
    map_score: float
    time_us: float
    per_query_ndcg10: np.ndarray = field(repr=False)

    def as_point(self) -> ModelPoint:
        return ModelPoint(
            name=self.name,
            family=self.family,
            ndcg10=self.ndcg10,
            time_us=self.time_us,
        )

    def as_row(self) -> tuple:
        """(name, NDCG@10, NDCG, MAP, µs/doc) — Table 1's layout."""
        return (
            self.name,
            self.ndcg10,
            self.ndcg_full,
            self.map_score,
            self.time_us,
        )


class EfficientRankingPipeline:
    """Trains, distills, prunes and evaluates one dataset's model zoo."""

    def __init__(
        self,
        train: LtrDataset,
        vali: LtrDataset,
        test: LtrDataset,
        zoo: PaperZoo,
        hyper: DatasetHyperParams,
        scale: ExperimentScale | None = None,
    ) -> None:
        self.train = train
        self.vali = vali
        self.test = test
        self.zoo = zoo
        self.hyper = hyper
        self.scale = scale or ExperimentScale()
        self.pricing = PricingContext()
        self.qs_cost = self.pricing.qs_cost
        self._base_forests: dict[int, TreeEnsemble] = {}
        self._forests: dict[tuple[int, int], TreeEnsemble] = {}
        self._students: dict[tuple[int, ...], DistilledStudent] = {}
        self._pruned: dict[tuple[int, ...], DistilledStudent] = {}
        self._teacher_scores_test: np.ndarray | None = None
        self._selected_teacher: TreeEnsemble | None = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def for_msn30k(
        cls, scale: ExperimentScale | None = None
    ) -> "EfficientRankingPipeline":
        """Pipeline on the MSN30K-like synthetic collection."""
        scale = scale or ExperimentScale()
        data = make_msn30k_like(
            n_queries=scale.n_queries,
            docs_per_query=scale.docs_per_query,
            seed=scale.seed,
        )
        train, vali, test = train_validation_test_split(data, seed=scale.seed)
        return cls(train, vali, test, MSN30K_ZOO, MSN30K_HYPERPARAMS, scale)

    @classmethod
    def for_istella(
        cls, scale: ExperimentScale | None = None
    ) -> "EfficientRankingPipeline":
        """Pipeline on the Istella-S-like synthetic collection."""
        scale = scale or ExperimentScale()
        data = make_istella_s_like(
            n_queries=scale.n_queries,
            docs_per_query=scale.docs_per_query,
            seed=scale.seed + 1,
        )
        train, vali, test = train_validation_test_split(data, seed=scale.seed)
        return cls(train, vali, test, ISTELLA_ZOO, ISTELLA_HYPERPARAMS, scale)

    @classmethod
    def network_predictor(cls) -> NetworkTimePredictor:
        """The shared (lazily built) dense+sparse time predictor."""
        return shared_predictor()

    # ------------------------------------------------------------------
    # Forests
    # ------------------------------------------------------------------
    def _base_forest(self, n_leaves: int) -> TreeEnsemble:
        """One boosting run per leaf count, big enough for every spec."""
        if n_leaves not in self._base_forests:
            paper_max = max(
                (s.n_trees for s in self.zoo.all_forests() if s.n_leaves == n_leaves),
                default=100,
            )
            n_trees = self.scale.scaled_trees(paper_max)
            config = self.scale.forest_config(n_leaves, n_trees)
            ranker = LambdaMartRanker(config, seed=self.scale.seed)
            with obs.span(
                "pipeline.train_forest", leaves=n_leaves, trees=n_trees
            ):
                self._base_forests[n_leaves] = ranker.fit(
                    self.train, name=f"lambdamart-{n_leaves}l"
                )
        return self._base_forests[n_leaves]

    def forest(self, spec: ForestSpec) -> TreeEnsemble:
        """The trained (scaled) ensemble for a paper-named forest."""
        key = (spec.n_trees, spec.n_leaves)
        if key not in self._forests:
            base = self._base_forest(spec.n_leaves)
            n = min(self.scale.scaled_trees(spec.n_trees), base.n_trees)
            self._forests[key] = base.truncate(n, name=spec.name)
        return self._forests[key]

    def teacher(self) -> TreeEnsemble:
        """The distillation teacher, selected on the validation set.

        The paper "always distill[s] from the most effective ensemble of
        regression trees for the current dataset" (Section 6.1) — at full
        scale that is the 256-leaf model; at the scaled training sizes of
        this environment deep trees can overfit below the 64-leaf forest,
        so the teacher is picked by validation NDCG@10 among the named
        256-leaf teacher and the largest 64-leaf forest.
        """
        if self._selected_teacher is None:
            from repro.metrics.ranking import mean_ndcg

            candidates = [
                self.forest(self.zoo.teacher),
                self.forest(self.zoo.large_forest),
            ]
            self._selected_teacher = max(
                candidates,
                key=lambda f: mean_ndcg(
                    self.vali, f.predict(self.vali.features), 10
                ),
            )
        return self._selected_teacher

    # ------------------------------------------------------------------
    # Students
    # ------------------------------------------------------------------
    def student(
        self, spec: NetworkSpec, teacher_spec: ForestSpec | None = None
    ) -> DistilledStudent:
        """Dense student distilled from the (validation-selected) teacher.

        Pass an explicit ``teacher_spec`` to distill from a named forest
        instead (used by the Table 5 teacher-upgrade experiment).
        """
        if teacher_spec is None:
            teacher = self.teacher()
        else:
            teacher = self.forest(teacher_spec)
        # Key on the concrete ensemble: the validation-selected teacher
        # and an explicitly-named spec resolving to the same forest share
        # one distilled student.
        key = spec.hidden + (id(teacher),)
        if key not in self._students:
            config = self._width_scaled(
                self.scale.distill_config(self.hyper), spec.hidden[0]
            )
            distiller = Distiller(config, seed=self.scale.seed)
            with obs.span("pipeline.distill", hidden="x".join(map(str, spec.hidden))):
                self._students[key] = distiller.distill(
                    teacher, self.train, hidden=spec.hidden
                )
        return self._students[key]

    @staticmethod
    def _width_scaled(config, first_width: int, reference_width: int = 500):
        """Scale the learning rate down for very wide first layers.

        Adam's per-parameter step size is ~lr regardless of gradient
        scale, so a first layer hundreds of units wide drifts into ReLU6
        saturation at learning rates that are fine for small nets; the
        rate is scaled by ``reference_width / first_width`` beyond the
        reference (see docs/reproduction-notes.md).
        """
        if first_width <= reference_width:
            return config
        import dataclasses

        scaled = config.learning_rate * reference_width / first_width
        return dataclasses.replace(config, learning_rate=scaled)

    def pruned_student(
        self, spec: NetworkSpec, teacher_spec: ForestSpec | None = None
    ) -> DistilledStudent:
        """Student with its first layer pruned and fine-tuned.

        As with :meth:`student`, pass ``teacher_spec`` to prune the
        student of a named teacher instead of the validation-selected
        one.
        """
        if teacher_spec is None:
            teacher = self.teacher()
        else:
            teacher = self.forest(teacher_spec)
        # Key on the concrete ensemble, mirroring the _students cache: a
        # pipeline reused with an explicit teacher_spec must not return
        # the pruned student of a different teacher.
        key = spec.hidden + (id(teacher),)
        if key not in self._pruned:
            config = self._width_scaled(
                self.scale.prune_config(self.hyper), spec.hidden[0]
            )
            pruner = FirstLayerPruner(config, seed=self.scale.seed)
            student = self.student(spec, teacher_spec)
            with obs.span("pipeline.prune", hidden="x".join(map(str, spec.hidden))):
                self._pruned[key] = pruner.prune(student, teacher, self.train)
        return self._pruned[key]

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def quality(self, scores: np.ndarray) -> dict[str, float | np.ndarray]:
        """Test-set NDCG@10 / NDCG / MAP plus per-query NDCG@10."""
        per_query = per_query_metric(
            self.test, scores, lambda s, l: ndcg(s, l, 10)
        )
        per_query_full = per_query_metric(self.test, scores, ndcg)
        per_query_ap = per_query_metric(self.test, scores, average_precision)
        return {
            "ndcg10": float(np.nanmean(per_query)),
            "ndcg": float(np.nanmean(per_query_full)),
            "map": float(np.nanmean(per_query_ap)),
            "per_query_ndcg10": per_query,
        }

    def evaluate_forest(self, spec: ForestSpec) -> EvaluatedModel:
        """Quality of the scaled forest, timed at the paper-named shape."""
        ensemble = self.forest(spec)
        with obs.span("pipeline.evaluate", model=spec.name, family="forest"):
            q = self.quality(ensemble.predict(self.test.features))
            time_us = price(
                ForestShape(spec.n_trees, spec.n_leaves), context=self.pricing
            )
        return EvaluatedModel(
            name=spec.name,
            family="forest",
            description=spec.describe(),
            ndcg10=q["ndcg10"],
            ndcg_full=q["ndcg"],
            map_score=q["map"],
            time_us=time_us,
            per_query_ndcg10=q["per_query_ndcg10"],
        )

    def evaluate_network(
        self, spec: NetworkSpec, *, pruned: bool = False
    ) -> EvaluatedModel:
        """Quality and predicted time of a (dense or pruned) student."""
        student = self.pruned_student(spec) if pruned else self.student(spec)
        # Priced analytically at the student's shape: a pruned student
        # hybrid, a dense one dense, the paper's deployment assumption
        # for each family.
        with obs.span("pipeline.evaluate", model=spec.name, family="neural"):
            q = self.quality(student.predict(self.test.features))
            time_us = price(
                student_shape(student, sparse=pruned), context=self.pricing
            )
        suffix = " (sparse)" if pruned else ""
        return EvaluatedModel(
            name=spec.name + suffix,
            family="neural",
            description=spec.describe() + suffix,
            ndcg10=q["ndcg10"],
            ndcg_full=q["ndcg"],
            map_score=q["map"],
            time_us=float(time_us),
            per_query_ndcg10=q["per_query_ndcg10"],
        )

    # ------------------------------------------------------------------
    # Frontier assembly (Figs. 12-13)
    # ------------------------------------------------------------------
    def frontier_points(
        self,
        forest_specs,
        network_specs,
        *,
        pruned_networks: bool = True,
    ) -> list[ModelPoint]:
        """Model points for a Pareto-frontier comparison."""
        points = [self.evaluate_forest(s).as_point() for s in forest_specs]
        points.extend(
            self.evaluate_network(s, pruned=pruned_networks).as_point()
            for s in network_specs
        )
        return points
