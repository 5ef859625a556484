"""Downstream-task evaluation: the paper's A_T(F, y) with call counting.

Every engine funnels its formal feature evaluations through a
:class:`DownstreamEvaluator`, which
 * scores a feature matrix with cross-validated Random Forest (the NFS
   convention the paper adopts) or any swapped-in model (Table V);
 * counts evaluations — the quantity Table IV compares across methods
   and the denominator of every efficiency claim in the paper;
 * sanitizes generated features (NaN/inf) before the model sees them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..ml.base import BaseEstimator, sanitize_matrix
from ..ml.forest import RandomForestClassifier, RandomForestRegressor
from ..ml.gp import GaussianProcessRegressor
from ..ml.linear import LinearSVC
from ..ml.metrics import f1_score, one_minus_rae
from ..ml.mlp import MLPClassifier, MLPRegressor
from ..ml.model_selection import cross_val_mean
from ..ml.naive_bayes import GaussianNB

__all__ = ["DownstreamEvaluator", "MODEL_KINDS", "make_downstream_model"]

#: Every ``kind`` :func:`make_downstream_model` builds (case-insensitive).
MODEL_KINDS = ("rf", "svm", "nb_gp", "mlp", "knn", "gbm")


def make_downstream_model(
    kind: str, task: str, seed: int = 0, n_estimators: int = 10
) -> BaseEstimator:
    """Factory over the paper's downstream model families.

    ``kind``: "rf" (default downstream task), "svm", "nb_gp" (Gaussian
    NB for classification, GP for regression — Table V's paired column),
    "mlp", or the extension families "knn" and "gbm".
    """
    if task not in ("C", "R"):
        raise ValueError("task must be 'C' or 'R'")
    kind = kind.lower()
    if kind == "rf":
        if task == "C":
            return RandomForestClassifier(n_estimators=n_estimators, seed=seed)
        return RandomForestRegressor(n_estimators=n_estimators, seed=seed)
    if kind == "svm":
        if task == "C":
            return LinearSVC(seed=seed)
        # Table V uses SVM only for classification; for regression the
        # nearest laptop-scale analogue is the GP regressor.
        return GaussianProcessRegressor(seed=seed)
    if kind == "nb_gp":
        if task == "C":
            return GaussianNB()
        return GaussianProcessRegressor(seed=seed)
    if kind == "mlp":
        if task == "C":
            return MLPClassifier(hidden_sizes=(32,), n_epochs=30, seed=seed)
        return MLPRegressor(hidden_sizes=(32,), n_epochs=30, seed=seed)
    if kind == "knn":
        from ..ml.neighbors import KNeighborsClassifier, KNeighborsRegressor

        if task == "C":
            return KNeighborsClassifier(n_neighbors=5)
        return KNeighborsRegressor(n_neighbors=5)
    if kind == "gbm":
        from ..ml.boosting import (
            GradientBoostingClassifier,
            GradientBoostingRegressor,
        )

        if task == "C":
            return GradientBoostingClassifier(
                n_estimators=max(n_estimators, 10), seed=seed
            )
        return GradientBoostingRegressor(
            n_estimators=max(n_estimators, 10), seed=seed
        )
    raise ValueError(
        f"unknown downstream model kind {kind!r}; expected one of "
        f"{MODEL_KINDS}"
    )


@dataclass
class DownstreamEvaluator:
    """Cross-validated scorer with evaluation accounting.

    Parameters
    ----------
    task:
        "C" (F1 metric) or "R" (1-RAE metric), per Section IV-A2.
    model_kind:
        Downstream model family; see :func:`make_downstream_model`.
    n_splits:
        Cross-validation folds (benches use 3, paper uses 5).
    n_estimators:
        Forest size when ``model_kind == "rf"``.
    """

    task: str
    model_kind: str = "rf"
    n_splits: int = 5
    n_estimators: int = 10
    seed: int = 0
    n_evaluations: int = field(default=0, init=False)
    total_eval_time: float = field(default=0.0, init=False)

    def __post_init__(self) -> None:
        if self.task not in ("C", "R"):
            raise ValueError("task must be 'C' or 'R'")
        self._metric = f1_score if self.task == "C" else one_minus_rae

    def evaluate(
        self,
        X: np.ndarray,
        y: np.ndarray,
        folds: tuple[tuple[np.ndarray, np.ndarray], ...] | None = None,
    ) -> float:
        """A_T(F, y): mean cross-validated score of the feature set.

        ``folds=None`` plans the CV splits from ``(y, n_splits, seed,
        task)`` with :func:`~repro.ml.model_selection.plan_folds`.  The
        fidelity ladder passes a truncated, row-subsampled plan instead
        (:func:`repro.fidelity.ladder.subsample_fold_plan`).
        """
        matrix = sanitize_matrix(np.asarray(X, dtype=np.float64))
        if matrix.ndim == 1:
            matrix = matrix.reshape(-1, 1)
        model = make_downstream_model(
            self.model_kind, self.task, seed=self.seed,
            n_estimators=self.n_estimators,
        )
        started = time.perf_counter()
        score = cross_val_mean(
            model,
            matrix,
            y,
            self._metric,
            n_splits=self.n_splits,
            seed=self.seed,
            stratified=self.task == "C",
            folds=folds,
        )
        self.total_eval_time += time.perf_counter() - started
        self.n_evaluations += 1
        return score

    def params(self) -> dict:
        """Constructor arguments; lets workers rebuild an equivalent evaluator."""
        return {
            "task": self.task,
            "model_kind": self.model_kind,
            "n_splits": self.n_splits,
            "n_estimators": self.n_estimators,
            "seed": self.seed,
        }

    def reset_counters(self) -> None:
        """Zero the evaluation count and accumulated evaluation time."""
        self.n_evaluations = 0
        self.total_eval_time = 0.0
