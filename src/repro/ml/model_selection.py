"""Cross-validation and data splitting (sklearn.model_selection stand-in).

The paper's downstream evaluation is k-fold cross-validated Random Forest
(Section IV; NFS convention).  ``cross_val_score`` here is the single most
executed function in the whole reproduction — every candidate feature
evaluation goes through it — so it stays allocation-light.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator

import numpy as np

from .base import BaseEstimator, check_X_y

__all__ = [
    "KFold",
    "StratifiedKFold",
    "train_test_split",
    "plan_folds",
    "cross_val_score",
    "cross_val_mean",
]


class KFold:
    """Plain k-fold splitter with optional shuffling."""

    def __init__(
        self, n_splits: int = 5, shuffle: bool = True, seed: int = 0
    ) -> None:
        if n_splits < 2:
            raise ValueError("n_splits must be at least 2")
        self.n_splits = n_splits
        self.shuffle = shuffle
        self.seed = seed

    def split(self, n_samples: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield ``(train_idx, test_idx)`` pairs."""
        if n_samples < self.n_splits:
            raise ValueError(
                f"cannot split {n_samples} samples into {self.n_splits} folds"
            )
        indices = np.arange(n_samples)
        if self.shuffle:
            np.random.default_rng(self.seed).shuffle(indices)
        folds = np.array_split(indices, self.n_splits)
        for i in range(self.n_splits):
            test = folds[i]
            train = np.concatenate([folds[j] for j in range(self.n_splits) if j != i])
            yield train, test


class StratifiedKFold:
    """K-fold that preserves per-class proportions.

    Classes with fewer members than ``n_splits`` are round-robin
    distributed, so tiny datasets (labor: 57 rows) still split without
    producing single-class training folds whenever avoidable.
    """

    def __init__(
        self, n_splits: int = 5, shuffle: bool = True, seed: int = 0
    ) -> None:
        if n_splits < 2:
            raise ValueError("n_splits must be at least 2")
        self.n_splits = n_splits
        self.shuffle = shuffle
        self.seed = seed

    def split(self, y: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        labels = np.asarray(y).reshape(-1)
        n_samples = labels.shape[0]
        if n_samples < self.n_splits:
            raise ValueError(
                f"cannot split {n_samples} samples into {self.n_splits} folds"
            )
        rng = np.random.default_rng(self.seed)
        fold_of = np.empty(n_samples, dtype=np.int64)
        for label in np.unique(labels):
            members = np.flatnonzero(labels == label)
            if self.shuffle:
                rng.shuffle(members)
            # Round-robin assignment keeps folds balanced per class.
            fold_of[members] = np.arange(len(members)) % self.n_splits
        indices = np.arange(n_samples)
        for i in range(self.n_splits):
            test = indices[fold_of == i]
            train = indices[fold_of != i]
            if len(test) == 0 or len(train) == 0:
                raise ValueError("degenerate stratified fold (empty split)")
            yield train, test


def train_test_split(
    X: np.ndarray,
    y: np.ndarray,
    test_size: float = 0.25,
    seed: int = 0,
    stratify: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Shuffle-split into train and test partitions."""
    matrix, target = check_X_y(X, y, allow_nonfinite=True)
    if not 0.0 < test_size < 1.0:
        raise ValueError("test_size must be in (0, 1)")
    n_samples = matrix.shape[0]
    n_test = max(1, int(round(n_samples * test_size)))
    if n_test >= n_samples:
        raise ValueError("test split would consume every sample")
    rng = np.random.default_rng(seed)
    if stratify:
        test_idx: list[int] = []
        for label in np.unique(target):
            members = np.flatnonzero(target == label)
            rng.shuffle(members)
            take = max(1, int(round(len(members) * test_size)))
            take = min(take, len(members) - 1) if len(members) > 1 else len(members)
            test_idx.extend(members[:take].tolist())
        test = np.array(sorted(test_idx))
    else:
        permutation = rng.permutation(n_samples)
        test = permutation[:n_test]
    mask = np.zeros(n_samples, dtype=bool)
    mask[test] = True
    train = np.flatnonzero(~mask)
    test = np.flatnonzero(mask)
    return matrix[train], matrix[test], target[train], target[test]


def plan_folds(
    y: np.ndarray,
    n_splits: int = 5,
    seed: int = 0,
    stratified: bool = False,
) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Materialize the exact fold indices :func:`cross_val_score` uses.

    Splits depend only on ``(y, n_splits, seed, stratified)`` — not on
    the feature matrix — so a caller can derive a plan once and pass it
    (or a subsample of it) via the ``folds`` parameter.  The selection
    logic must stay byte-identical to what an inline split would
    produce.
    """
    target = np.asarray(y, dtype=np.float64).reshape(-1)
    n_samples = target.shape[0]
    splits = min(n_splits, n_samples)
    if splits < 2:
        raise ValueError("need at least 2 samples for cross-validation")
    if stratified:
        # Stratification needs every class in every training fold; fall
        # back to plain KFold when a class is too rare even for that.
        _, counts = np.unique(target, return_counts=True)
        if counts.min() >= 2:
            splitter = StratifiedKFold(splits, seed=seed).split(target)
        else:
            splitter = KFold(splits, seed=seed).split(n_samples)
    else:
        splitter = KFold(splits, seed=seed).split(n_samples)
    return tuple((train, test) for train, test in splitter)


def cross_val_score(
    estimator: BaseEstimator,
    X: np.ndarray,
    y: np.ndarray,
    metric: Callable[[np.ndarray, np.ndarray], float],
    n_splits: int = 5,
    seed: int = 0,
    stratified: bool = False,
    folds: tuple[tuple[np.ndarray, np.ndarray], ...] | None = None,
) -> np.ndarray:
    """Per-fold scores of the estimator fitted on each training fold.

    Every fold is fitted from a fresh clone through the estimator's
    :meth:`~repro.ml.base.BaseEstimator.fit_folds` hook, so state never
    leaks between folds; a forest grows every fold's trees together.
    ``metric(y_true, y_pred)`` follows the convention that larger is
    better (as every score in the paper does).  ``folds`` accepts a
    precomputed :func:`plan_folds` plan and must have been built from
    the same ``(y, n_splits, seed, stratified)``.
    """
    matrix, target = check_X_y(X, y, allow_nonfinite=True)
    if folds is None:
        folds = plan_folds(
            target, n_splits=n_splits, seed=seed, stratified=stratified
        )
    models = estimator.fit_folds(matrix, target, folds)
    scores = [
        metric(target[test], model.predict(matrix[test]))
        for model, (_, test) in zip(models, folds)
    ]
    return np.asarray(scores, dtype=np.float64)


def cross_val_mean(
    estimator: BaseEstimator,
    X: np.ndarray,
    y: np.ndarray,
    metric: Callable[[np.ndarray, np.ndarray], float],
    n_splits: int = 5,
    seed: int = 0,
    stratified: bool = False,
    folds: tuple[tuple[np.ndarray, np.ndarray], ...] | None = None,
) -> float:
    """Mean of :func:`cross_val_score` (the paper's A_T(F, y))."""
    return float(
        cross_val_score(
            estimator, X, y, metric, n_splits=n_splits, seed=seed,
            stratified=stratified, folds=folds,
        ).mean()
    )
