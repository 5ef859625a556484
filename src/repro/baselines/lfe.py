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

import numpy as np

from ..core.engine import AFEEngine, AFEResult, EngineConfig, SearchRun
from ..core.filters import KeepAllFilter
from ..datasets.generators import TabularTask
from ..hashing.quantile_sketch import QuantileSketch
from ..ml.base import sanitize_matrix
from ..ml.mlp import MLPClassifier
from ..operators.registry import OperatorRegistry, default_registry

__all__ = ["LFE"]


class LFE(AFEEngine):
    """Per-transformation usefulness predictors over quantile sketches."""

    method_name = "LFE"

    def __init__(
        self,
        config: EngineConfig | None = None,
        sketch_dim: int = 32,
    ) -> None:
        super().__init__(KeepAllFilter(), copy.deepcopy(config))
        self.sketch = QuantileSketch(d=sketch_dim)
        self.registry: OperatorRegistry = default_registry()
        self._predictors: dict[str, MLPClassifier] = {}

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
            with self._make_service(self._make_evaluator(task)) as service:
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
    def _search(self, run: SearchRun) -> AFEResult:
        """Apply recommended transformations and evaluate once."""
        if not self.is_pretrained:
            raise RuntimeError("LFE.pretrain must run before fit")
        working = run.working
        matrix = working.X.to_array()
        result = run.open_result(self.method_name)
        columns = [matrix]
        names = list(working.X.columns)
        for name in working.X.columns:
            column = np.asarray(working.X[name])
            for operator_name in self.recommend(column):
                operator = self.registry.by_name(operator_name)
                columns.append(operator.apply(column).reshape(-1, 1))
                names.append(f"{operator_name}({name})")
                result.n_generated += 1
        augmented = sanitize_matrix(np.column_stack(columns))
        final_score = (
            run.service.evaluate(augmented, working.y)
            if result.n_generated
            else result.base_score
        )
        if final_score >= result.base_score:
            result.best_score = final_score
            result.selected_features = names
            result.selected_matrix = augmented
        else:
            result.selected_matrix = matrix
        run.record_epoch(result, 0, result.best_score)
        return result
