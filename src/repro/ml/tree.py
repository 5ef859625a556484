"""CART decision trees (classifier and regressor) in vectorized numpy.

These are the building blocks of the Random Forest downstream task
(Section II, Evaluation Task).  The implementation favours the shape of
cost the paper measures — feature evaluation is *expensive relative to
feature generation* — while remaining fast enough that hundreds of
cross-validated evaluations finish on a laptop:

* Splits are exact (sort-based) and batched per node: the node gathers
  the ``n_candidates x n_rows`` block of the columns it drew (from a
  transposed copy of X made once per fit), sorts every column in one
  ``argsort(axis=1)``, and scores every threshold of every column in one
  vectorized pass over row-wise prefix sums.  A node costs the same few
  dozen numpy calls whatever its candidate count, so the small nodes that
  dominate a forest no longer pay that fixed overhead once per column.
* The batch is bit-identical to scanning the columns one at a time:
  stable sorts are unique; ``cumsum(axis=1)`` adds each column
  sequentially, as the 1-D scan did; Gini prefix counts are
  integer-valued, so their sums of squares are exact in any order; every
  other step is the same elementwise expression; and the winner is the
  first drawn column with the strictly largest positive gain, which is
  what ``argmax`` returns.
* Prediction routes all rows through the tree level by level with boolean
  masks instead of per-row Python recursion, then reads every row's leaf
  value from one stacked table.

Both trees accept ``max_features`` so the forest can do per-node feature
subsampling, and an externally supplied seed so runs are reproducible.
"""

from __future__ import annotations

import numpy as np

from .base import BaseEstimator, check_matrix, check_X_y

__all__ = ["DecisionTreeClassifier", "DecisionTreeRegressor"]

_LEAF = -1


def _resolve_max_features(max_features: int | str | None, n_features: int) -> int:
    """Number of candidate features examined per node."""
    if max_features is None:
        return n_features
    if max_features == "sqrt":
        return max(1, int(np.sqrt(n_features)))
    if max_features == "log2":
        return max(1, int(np.log2(n_features))) if n_features > 1 else 1
    count = int(max_features)
    if count < 1:
        raise ValueError("max_features must be positive")
    return min(count, n_features)


class _BaseTree(BaseEstimator):
    """Shared growth/prediction machinery; subclasses define impurity."""

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | str | None = None,
        seed: int = 0,
    ) -> None:
        if min_samples_split < 2:
            raise ValueError("min_samples_split must be at least 2")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be at least 1")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.seed = seed
        # Flat node arrays filled during fit.
        self._feature: list[int] = []
        self._threshold: list[float] = []
        self._left: list[int] = []
        self._right: list[int] = []
        # One row per node; a list while growing, stacked by ``fit``.
        self._value: list[np.ndarray] | np.ndarray = []
        self.n_features_: int | None = None

    # -- subclass hooks -------------------------------------------------
    def _leaf_value(self, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _boundary_gains(self, ranked: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """Impurity gain of every boundary ``lo <= i < hi`` of every column.

        ``ranked[j]`` holds the node's targets in the sorted order of
        column ``j``; boundary ``i`` sends the first ``i + 1`` of them
        left.  Returns a ``n_candidates x (hi - lo)`` array.
        """
        raise NotImplementedError

    def _best_splits(
        self, block: np.ndarray, y: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Best ``(gains, thresholds)`` of every column of ``block``.

        ``block`` is the node's ``n_candidates x n_rows`` slice of X.T
        and ``y`` its targets, with ``n_rows >= 2 * min_samples_leaf``.
        A column without a realizable split scores ``(0.0, 0.0)``.
        """
        n = block.shape[1]
        order = block.argsort(axis=1, kind="stable")
        ranked = y[order]
        # Offset each row's sort order to flat positions in block.ravel().
        order += np.arange(0, block.size, n)[:, None]
        values = block.ravel()[order]
        lo, hi = self.min_samples_leaf - 1, n - self.min_samples_leaf
        gain = self._boundary_gains(ranked, lo, hi)
        # A split between equal values is not realizable.
        gain[values[:, lo + 1 : hi + 1] <= values[:, lo:hi]] = -np.inf
        best = gain.argmax(axis=1)
        each = np.arange(len(gain))
        gains = gain[each, best]
        best += lo
        thresholds = (values[each, best] + values[each, best + 1]) / 2.0
        unsplittable = gains == -np.inf
        gains[unsplittable] = 0.0
        thresholds[unsplittable] = 0.0
        return gains, thresholds

    # -- growth ----------------------------------------------------------
    def _new_node(self) -> int:
        self._feature.append(_LEAF)
        self._threshold.append(0.0)
        self._left.append(_LEAF)
        self._right.append(_LEAF)
        self._value.append(np.empty(0))
        return len(self._feature) - 1

    def _fit_arrays(self, X: np.ndarray, y: np.ndarray) -> None:
        self._feature, self._threshold = [], []
        self._left, self._right, self._value = [], [], []
        self.n_features_ = X.shape[1]
        rng = np.random.default_rng(self.seed)
        n_candidates = _resolve_max_features(self.max_features, X.shape[1])
        columns = np.ascontiguousarray(X.T)
        root = self._new_node()
        # Depth-first explicit stack: (node_id, row_indices, depth).
        stack: list[tuple[int, np.ndarray, int]] = [(root, np.arange(len(y)), 0)]
        while stack:
            node, rows, depth = stack.pop()
            labels = y[rows]
            self._value[node] = self._leaf_value(labels)
            if (
                len(rows) < self.min_samples_split
                or (self.max_depth is not None and depth >= self.max_depth)
                or self._is_pure(labels)
            ):
                continue
            candidates = rng.choice(X.shape[1], size=n_candidates, replace=False)
            # No boundary leaves min_samples_leaf rows on both sides.  The
            # draw above still happens, so the RNG stream stays the same.
            if len(rows) < 2 * self.min_samples_leaf:
                continue
            block = columns[candidates[:, None], rows]
            gains, thresholds = self._best_splits(block, labels)
            # The first drawn column with the strictly largest gain wins,
            # and only a positive gain splits.
            best = int(gains.argmax())
            if not gains[best] > 0.0:
                continue
            best_feature, best_threshold = candidates[best], thresholds[best]
            goes_left = block[best] <= best_threshold
            left_rows, right_rows = rows[goes_left], rows[~goes_left]
            if (
                len(left_rows) < self.min_samples_leaf
                or len(right_rows) < self.min_samples_leaf
            ):
                continue
            self._feature[node] = int(best_feature)
            self._threshold[node] = float(best_threshold)
            left = self._new_node()
            right = self._new_node()
            self._left[node], self._right[node] = left, right
            stack.append((left, left_rows, depth + 1))
            stack.append((right, right_rows, depth + 1))
        self._value = np.vstack(self._value)

    def _is_pure(self, y: np.ndarray) -> bool:
        return bool((y == y[0]).all())

    # -- prediction --------------------------------------------------------
    def _leaf_of_rows(self, X: np.ndarray) -> np.ndarray:
        """Leaf node index for every row, via masked level-order routing."""
        if self.n_features_ is None:
            raise RuntimeError(f"{type(self).__name__} is not fitted")
        matrix = check_matrix(X, allow_nonfinite=True)
        if matrix.shape[1] != self.n_features_:
            raise ValueError(
                f"fitted on {self.n_features_} features, got {matrix.shape[1]}"
            )
        feature = np.asarray(self._feature)
        threshold = np.asarray(self._threshold)
        left = np.asarray(self._left)
        right = np.asarray(self._right)
        position = np.zeros(matrix.shape[0], dtype=np.int64)
        active = feature[position] != _LEAF
        while active.any():
            rows = np.flatnonzero(active)
            nodes = position[rows]
            goes_left = (
                matrix[rows, feature[nodes]] <= threshold[nodes]
            )
            position[rows] = np.where(goes_left, left[nodes], right[nodes])
            active = feature[position] != _LEAF
        return position

    @property
    def n_nodes(self) -> int:
        return len(self._feature)

    @property
    def depth(self) -> int:
        """Actual depth of the fitted tree."""
        if not self._feature:
            return 0
        depths = {0: 0}
        maximum = 0
        for node in range(len(self._feature)):
            if self._feature[node] == _LEAF:
                continue
            for child in (self._left[node], self._right[node]):
                depths[child] = depths[node] + 1
                maximum = max(maximum, depths[child])
        return maximum


class DecisionTreeClassifier(_BaseTree):
    """CART classifier with Gini impurity and exact sorted splits."""

    def fit(self, X, y) -> "DecisionTreeClassifier":
        matrix, target = check_X_y(X, y)
        self.classes_ = np.unique(target)
        self._class_index = {c: i for i, c in enumerate(self.classes_)}
        encoded = np.searchsorted(self.classes_, target)
        self._n_classes = len(self.classes_)
        self._fit_arrays(matrix, encoded)
        return self

    def _leaf_value(self, y: np.ndarray) -> np.ndarray:
        counts = np.bincount(y.astype(np.int64), minlength=self._n_classes)
        return counts / counts.sum()

    def _boundary_gains(self, ranked: np.ndarray, lo: int, hi: int) -> np.ndarray:
        n = ranked.shape[1]
        total = np.bincount(ranked[0], minlength=self._n_classes).astype(np.float64)
        left_n = np.arange(lo + 1, hi + 1, dtype=np.float64)
        right_n = n - left_n
        # Sums of squared per-class prefix counts; class 0 holds the rows
        # the other classes leave.  The counts are integer-valued floats,
        # so every sum is exact in any order and equals the one-hot
        # prefix sum's.
        left_rest, left_sq, right_sq = left_n, 0.0, 0.0
        for c in range(1, self._n_classes):
            left_counts = (ranked == c).cumsum(axis=1, dtype=np.float64)[:, lo:hi]
            left_rest = left_rest - left_counts
            left_sq = left_sq + left_counts**2
            right_sq = right_sq + (total[c] - left_counts) ** 2
        left_sq = left_sq + left_rest**2
        right_sq = right_sq + (total[0] - left_rest) ** 2
        left_gini = 1.0 - left_sq / left_n**2
        right_gini = 1.0 - right_sq / right_n**2
        parent_gini = 1.0 - ((total / n) ** 2).sum()
        return parent_gini - (left_n * left_gini + right_n * right_gini) / n

    def predict_proba(self, X) -> np.ndarray:
        return self._value[self._leaf_of_rows(X)]

    def predict(self, X) -> np.ndarray:
        probabilities = self.predict_proba(X)
        return self.classes_[np.argmax(probabilities, axis=1)]


class DecisionTreeRegressor(_BaseTree):
    """CART regressor minimizing within-node variance (MSE criterion)."""

    def fit(self, X, y) -> "DecisionTreeRegressor":
        matrix, target = check_X_y(X, y)
        self._fit_arrays(matrix, target)
        return self

    def _is_pure(self, y: np.ndarray) -> bool:
        return bool(y.max() - y.min() < 1e-12)

    def _leaf_value(self, y: np.ndarray) -> np.ndarray:
        return np.array([y.mean()])

    def _boundary_gains(self, ranked: np.ndarray, lo: int, hi: int) -> np.ndarray:
        n = ranked.shape[1]
        prefix_sum = ranked.cumsum(axis=1)
        prefix_sq = (ranked**2).cumsum(axis=1)
        total_sum, total_sq = prefix_sum[:, -1:], prefix_sq[:, -1:]
        left_n = np.arange(lo + 1, hi + 1, dtype=np.float64)
        right_n = n - left_n
        left_sum = prefix_sum[:, lo:hi]
        right_sum = total_sum - left_sum
        left_sq = prefix_sq[:, lo:hi]
        right_sq = total_sq - left_sq
        # SSE of each side: sum(y^2) - (sum(y))^2 / n.
        left_sse = left_sq - left_sum**2 / left_n
        right_sse = right_sq - right_sum**2 / right_n
        parent_sse = total_sq - total_sum**2 / n
        return (parent_sse - left_sse - right_sse) / n

    def _best_splits(
        self, block: np.ndarray, y: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        gains, thresholds = super()._best_splits(block, y)
        # Rounding can leave a gain just below 0; a NaN gain (targets so
        # large their squares overflow) can never win a split either.
        gains[~(gains >= 0.0)] = 0.0
        return gains, thresholds

    def predict(self, X) -> np.ndarray:
        return self._value[self._leaf_of_rows(X), 0]
