"""LFE baseline (Nargesian et al., IJCAI 2017) — learned transformation choice.

Related-work method (paper §V-A, reference [4]): *Learning Feature
Engineering* trains, offline, one classifier per transformation that
predicts from a feature's fixed-size representation whether applying
the transformation will improve the downstream model.  Online, LFE
applies only the transformations its predictors recommend — no RL, no
per-candidate evaluation, which makes it extremely cheap but bounded
by the predictors' quality.

Representation: the quantile data sketch LFE used (§V-B), backed by
:class:`repro.hashing.QuantileSketch`.  Predictors: one small MLP per
unary operator (the original work's design; binary operators are
skipped, as in the original, which only handled unary transforms).
"""

from __future__ import annotations

import copy
import time

import numpy as np

from ..core.engine import AFEResult, EngineConfig, EpochRecord
from ..core.evaluation import DownstreamEvaluator
from ..datasets.generators import TabularTask
from ..eval import EvaluationService
from ..store import make_eval_backend
from ..hashing.quantile_sketch import QuantileSketch
from ..ml.base import sanitize_matrix
from ..ml.mlp import MLPClassifier
from ..operators.registry import OperatorRegistry, default_registry

__all__ = ["LFE"]


class LFE:
    """Per-transformation usefulness predictors over quantile sketches."""

    method_name = "LFE"

    def __init__(
        self,
        config: EngineConfig | None = None,
        sketch_dim: int = 32,
    ) -> None:
        self.config = copy.deepcopy(config) if config is not None else EngineConfig()
        self.sketch = QuantileSketch(d=sketch_dim)
        self.registry: OperatorRegistry = default_registry()
        self._predictors: dict[str, MLPClassifier] = {}
        self.eval_cache = make_eval_backend(self.config.eval_store_path)

    def _make_service(self, evaluator: DownstreamEvaluator) -> EvaluationService:
        return EvaluationService.from_config(evaluator, self.config, self.eval_cache)

    # -- offline phase -----------------------------------------------------
    def pretrain(self, corpus: list[TabularTask]) -> "LFE":
        """Learn one usefulness predictor per unary transformation.

        For every corpus feature and unary operator: apply the operator,
        compare downstream scores with/without the transformed column,
        and label the (sketch, operator) pair by whether it helped.
        """
        examples: dict[str, tuple[list[np.ndarray], list[int]]] = {
            self.registry.by_index(i).name: ([], [])
            for i in self.registry.unary_indices
        }
        for task in corpus:
            evaluator = DownstreamEvaluator(
                task=task.task,
                n_splits=self.config.n_splits,
                n_estimators=self.config.n_estimators,
                seed=self.config.seed,
            )
            service = self._make_service(evaluator)
            matrix = task.X.to_array()
            base = service.evaluate(matrix, task.y)
            base_token = service.token(matrix)
            for name in task.X.columns:
                column = np.asarray(task.X[name])
                sketch = self.sketch.compress(column)
                for index in self.registry.unary_indices:
                    operator = self.registry.by_index(index)
                    transformed = operator.apply(column)
                    if np.ptp(transformed) < 1e-12:
                        continue
                    score = service.score_batch(
                        matrix, [transformed], task.y, base_token=base_token
                    )[0]
                    sketches, labels = examples[operator.name]
                    sketches.append(sketch)
                    labels.append(int(score - base > self.config.thre))
            service.close()  # releases a pool backend's workers, if any
        for name, (sketches, labels) in examples.items():
            if not sketches or len(set(labels)) < 2:
                continue  # no signal for this transformation
            predictor = MLPClassifier(
                hidden_sizes=(16,), n_epochs=40, seed=self.config.seed
            )
            predictor.fit(np.vstack(sketches), np.array(labels))
            self._predictors[name] = predictor
        return self

    @property
    def is_pretrained(self) -> bool:
        return bool(self._predictors)

    def recommend(self, column: np.ndarray) -> list[str]:
        """Unary operators predicted to improve this feature."""
        if not self.is_pretrained:
            raise RuntimeError("LFE.pretrain must run before recommendations")
        sketch = self.sketch.compress(np.asarray(column)).reshape(1, -1)
        recommended = []
        for name, predictor in self._predictors.items():
            proba = predictor.predict_proba(sketch)
            classes = list(predictor.classes_)
            positive = classes.index(1) if 1 in classes else len(classes) - 1
            if proba[0, positive] >= 0.5:
                recommended.append(name)
        return recommended

    # -- online phase --------------------------------------------------------
    def fit(self, task: TabularTask) -> AFEResult:
        """Apply recommended transformations and evaluate once."""
        from ..core.engine import AFEEngine
        from ..core.filters import KeepAllFilter

        if not self.is_pretrained:
            raise RuntimeError("LFE.pretrain must run before fit")
        started = time.perf_counter()
        prefilter = AFEEngine(KeepAllFilter(), self.config)
        working = prefilter._select_agent_features(task)
        evaluator = DownstreamEvaluator(
            task=working.task,
            n_splits=self.config.n_splits,
            n_estimators=self.config.n_estimators,
            seed=self.config.seed,
        )
        service = self._make_service(evaluator)
        matrix = working.X.to_array()
        base_score = service.evaluate(matrix, working.y)
        columns = [matrix]
        names = list(working.X.columns)
        n_generated = 0
        for name in working.X.columns:
            column = np.asarray(working.X[name])
            for operator_name in self.recommend(column):
                operator = self.registry.by_name(operator_name)
                columns.append(operator.apply(column).reshape(-1, 1))
                names.append(f"{operator_name}({name})")
                n_generated += 1
        augmented = sanitize_matrix(np.column_stack(columns))
        final_score = (
            service.evaluate(augmented, working.y) if n_generated else base_score
        )
        best_score = max(base_score, final_score)
        elapsed = time.perf_counter() - started
        service.close()  # releases a pool backend's workers, if any
        return AFEResult(
            dataset=task.name,
            method=self.method_name,
            task=task.task,
            base_score=base_score,
            best_score=best_score,
            selected_features=names if final_score >= base_score else names[: matrix.shape[1]],
            history=[
                EpochRecord(0, elapsed, evaluator.n_evaluations, best_score)
            ],
            n_downstream_evaluations=evaluator.n_evaluations,
            n_generated=n_generated,
            stats=service.stats,
            evaluation_time=evaluator.total_eval_time,
            selected_matrix=augmented if final_score >= base_score else matrix,
            wall_time=elapsed,
        )
