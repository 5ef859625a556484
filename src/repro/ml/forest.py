"""Random Forest (the paper's downstream evaluation task).

Following the NFS convention the paper adopts (Section II, Evaluation
Task), Random Forest cross-validation is the formal feature evaluator.
The forest is standard Breiman bagging: each tree sees a bootstrap sample
of the rows and a random ``sqrt`` subset of features per node.

Every tree's seed and bootstrap rows are drawn from the forest RNG up
front, in the order a tree-by-tree fit draws them, and then all trees
grow together through :func:`~repro.ml.tree.grow_trees`.
:meth:`_BaseForest.fit_folds` extends that lockstep across the fold
forests of one cross-validation: every fold's trees read the one shared
matrix through row indices (fold train rows composed with bootstrap
rows), so a whole cross-validated evaluation is one growth.

``feature_importances_`` (mean impurity-style usage counts weighted by
node size) backs the paper's pre-filtering step: *"E-AFE first conducts
feature selection of less than maximum features according to the feature
importance via RF on the 36 raw target datasets"* (Section IV-B).
"""

from __future__ import annotations

import numpy as np

from .base import BaseEstimator, check_matrix, check_X_y, clone
from .tree import DecisionTreeClassifier, DecisionTreeRegressor, grow_trees

__all__ = ["RandomForestClassifier", "RandomForestRegressor"]


def _grow_forests(forests: list, matrix, target, trains: list) -> None:
    """Fit ``forests[i]`` on rows ``trains[i]``, all trees in one growth."""
    trees, samples = [], []
    for forest, train in zip(forests, trains):
        forest.n_features_ = matrix.shape[1]
        forest._set_target(target[train])
        samples += forest._draw_trees(np.asarray(train))
        trees += forest._trees
    grow_trees(trees, matrix, target, samples)


class _BaseForest(BaseEstimator):
    def __init__(
        self,
        n_estimators: int = 10,
        max_depth: int | None = 8,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | str | None = "sqrt",
        bootstrap: bool = True,
        seed: int = 0,
    ) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be positive")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.seed = seed
        self._trees: list = []
        self.n_features_: int | None = None

    def _make_tree(self, seed: int):
        raise NotImplementedError

    def _set_target(self, target: np.ndarray) -> None:
        """Record what fitting learns from the target alone."""

    def _draw_trees(self, train: np.ndarray) -> list:
        """Fresh trees and their rows of the shared matrix.

        Seeds and bootstrap rows come from the forest RNG in the order a
        tree-by-tree fit draws them.
        """
        rng = np.random.default_rng(self.seed)
        n_samples = len(train)
        self._trees, samples = [], []
        for _ in range(self.n_estimators):
            self._trees.append(self._make_tree(int(rng.integers(0, 2**31 - 1))))
            if self.bootstrap:
                samples.append(train[rng.integers(0, n_samples, size=n_samples)])
            else:
                samples.append(train)
        return samples

    def fit_folds(self, X, y, folds) -> list:
        """One fitted forest per fold, every fold's trees grown together."""
        matrix, target = check_X_y(X, y)
        forests = [clone(self) for _ in folds]
        _grow_forests(forests, matrix, target, [train for train, _ in folds])
        return forests

    def _fit(self, X, y) -> None:
        matrix, target = check_X_y(X, y)
        _grow_forests([self], matrix, target, [np.arange(len(target))])

    @property
    def feature_importances_(self) -> np.ndarray:
        """Normalized count of how often each feature splits a node.

        A usage-frequency importance: cheap, monotone in how much the
        forest relies on a feature, and sufficient for the paper's
        "keep the top-k features by RF importance" pre-filter.
        """
        if self.n_features_ is None:
            raise RuntimeError("forest is not fitted")
        counts = np.zeros(self.n_features_)
        for tree in self._trees:
            for feature in tree._feature:
                if feature >= 0:
                    counts[feature] += 1.0
        total = counts.sum()
        if total == 0.0:
            return np.full(self.n_features_, 1.0 / self.n_features_)
        return counts / total


class RandomForestClassifier(_BaseForest):
    """Bagged CART classifiers with soft-vote aggregation."""

    def _make_tree(self, seed: int) -> DecisionTreeClassifier:
        return DecisionTreeClassifier(
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self.max_features,
            seed=seed,
        )

    def _set_target(self, target: np.ndarray) -> None:
        self.classes_ = np.unique(target)

    def fit(self, X, y) -> "RandomForestClassifier":
        """Fit bootstrap-sampled CART trees on (X, y)."""
        self._fit(X, y)
        return self

    def predict_proba(self, X) -> np.ndarray:
        """Mean class-probability vote across trees, (n, n_classes)."""
        if not self._trees:
            raise RuntimeError("forest is not fitted")
        matrix = check_matrix(X, allow_nonfinite=True)
        # Trees may have seen different class subsets in their bootstrap;
        # align every tree's probabilities onto the forest's class axis.
        total = np.zeros((matrix.shape[0], len(self.classes_)))
        for tree in self._trees:
            probabilities = tree.predict_proba(matrix)
            columns = np.searchsorted(self.classes_, tree.classes_)
            total[:, columns] += probabilities
        return total / len(self._trees)

    def predict(self, X) -> np.ndarray:
        """Class with the highest mean probability vote."""
        probabilities = self.predict_proba(X)
        return self.classes_[np.argmax(probabilities, axis=1)]


class RandomForestRegressor(_BaseForest):
    """Bagged CART regressors with mean aggregation."""

    def _make_tree(self, seed: int) -> DecisionTreeRegressor:
        return DecisionTreeRegressor(
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self.max_features,
            seed=seed,
        )

    def fit(self, X, y) -> "RandomForestRegressor":
        self._fit(X, y)
        return self

    def predict(self, X) -> np.ndarray:
        if not self._trees:
            raise RuntimeError("forest is not fitted")
        matrix = check_matrix(X, allow_nonfinite=True)
        predictions = np.zeros(matrix.shape[0])
        for tree in self._trees:
            predictions += tree.predict(matrix)
        return predictions / len(self._trees)
