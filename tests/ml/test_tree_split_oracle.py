"""Oracle tests for the lockstep CART grower.

The shipped trees grow together (``repro.ml.tree.grow_trees``): each
step scores the nodes of every live tree in one ragged split search
(``_search``).  The references below are kept verbatim from before that
change: the one-column-at-a-time scans, the per-node depth-first growth
loop with its winner rule, and the tree-by-tree forest fit.  The ragged
search must return bit-equal ``(gain, threshold)`` pairs for every
column, and trees grown in lockstep (single trees, forests, and every
fold forest of one cross-validation) must equal the reference trees node
for node.

``check_random_config(seed)`` compares the two growers on one seeded
random configuration; tier-1 runs a fixed sample and CI runs a larger
one.
"""

import numpy as np
import pytest

from repro.core.evaluation import DownstreamEvaluator
from repro.datasets.registry import load
from repro.ml import (
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    GradientBoostingClassifier,
    GradientBoostingRegressor,
    RandomForestClassifier,
    RandomForestRegressor,
    accuracy_score,
    cross_val_score,
    one_minus_rae,
)
from repro.ml import boosting
from repro.ml import tree as tree_module
from repro.ml.base import check_X_y
from repro.ml.model_selection import plan_folds
from repro.ml.tree import _LEAF, _resolve_max_features


def reference_classifier_split(column, y, n_classes, min_samples_leaf):
    order = np.argsort(column, kind="stable")
    values = column[order]
    labels = y[order].astype(np.int64)
    n = len(values)
    if values[0] == values[-1]:
        return 0.0, 0.0
    one_hot = np.zeros((n, n_classes))
    one_hot[np.arange(n), labels] = 1.0
    prefix = np.cumsum(one_hot, axis=0)
    total = prefix[-1]
    left_counts = prefix[:-1]
    right_counts = total - left_counts
    left_n = np.arange(1, n, dtype=np.float64)
    right_n = n - left_n
    left_gini = 1.0 - np.sum(left_counts**2, axis=1) / left_n**2
    right_gini = 1.0 - np.sum(right_counts**2, axis=1) / right_n**2
    parent_gini = 1.0 - np.sum((total / n) ** 2)
    gain = parent_gini - (left_n * left_gini + right_n * right_gini) / n
    valid = values[1:] > values[:-1]
    valid &= left_n >= min_samples_leaf
    valid &= right_n >= min_samples_leaf
    if not valid.any():
        return 0.0, 0.0
    gain = np.where(valid, gain, -np.inf)
    best = int(np.argmax(gain))
    threshold = (values[best] + values[best + 1]) / 2.0
    return float(gain[best]), float(threshold)


def reference_regressor_split(column, y, min_samples_leaf):
    order = np.argsort(column, kind="stable")
    values = column[order]
    target = y[order]
    n = len(values)
    if values[0] == values[-1]:
        return 0.0, 0.0
    prefix_sum = np.cumsum(target)
    prefix_sq = np.cumsum(target**2)
    total_sum, total_sq = prefix_sum[-1], prefix_sq[-1]
    left_n = np.arange(1, n, dtype=np.float64)
    right_n = n - left_n
    left_sum = prefix_sum[:-1]
    right_sum = total_sum - left_sum
    left_sq = prefix_sq[:-1]
    right_sq = total_sq - left_sq
    left_sse = left_sq - left_sum**2 / left_n
    right_sse = right_sq - right_sum**2 / right_n
    parent_sse = total_sq - total_sum**2 / n
    gain = (parent_sse - left_sse - right_sse) / n
    valid = values[1:] > values[:-1]
    valid &= left_n >= min_samples_leaf
    valid &= right_n >= min_samples_leaf
    if not valid.any():
        return 0.0, 0.0
    gain = np.where(valid, gain, -np.inf)
    best = int(np.argmax(gain))
    threshold = (values[best] + values[best + 1]) / 2.0
    return float(max(gain[best], 0.0)), float(threshold)


def reference_splits(tree, block, y):
    """Per-column reference ``(gains, thresholds)`` for a candidates x rows block."""
    if isinstance(tree, DecisionTreeClassifier):
        pairs = [
            reference_classifier_split(
                column, y, tree._n_classes, tree.min_samples_leaf
            )
            for column in block
        ]
    else:
        pairs = [
            reference_regressor_split(column, y, tree.min_samples_leaf)
            for column in block
        ]
    gains, thresholds = zip(*pairs)
    return np.array(gains), np.array(thresholds)


def lockstep_splits(tree, block, y):
    """The shipped ragged search on one node holding every row of ``block``."""
    criterion = tree._criterion(np.asarray(y, dtype=np.float64))
    rows = np.arange(block.shape[1])
    stats, _ = criterion.node_stats(rows, np.array([len(rows)]))
    return tree_module._search(
        criterion, block, tree_module._dense_ranks(block), [rows],
        np.arange(len(block))[None], [criterion.tree_classes(stats[0])],
        tree.min_samples_leaf,
    )


def _bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


# -- per-column oracle ----------------------------------------------------
def _block(kind, n, k, seed):
    rng = np.random.default_rng(seed)
    block = rng.normal(size=(k, n))
    if kind == "ties":
        block = block.round(0)
    elif kind == "constant":
        block[0] = 1.5
    return block


def _classifier(n_classes, min_samples_leaf):
    tree = DecisionTreeClassifier(min_samples_leaf=min_samples_leaf)
    tree._n_classes = n_classes
    return tree


CASES = [
    (kind, n, k, msl)
    for kind in ("ties", "constant", "continuous")
    for n in (2, 3, 50, 700)
    for k in (1, 4)
    for msl in (1, 5)
]


@pytest.mark.parametrize("kind,n,k,msl", CASES)
@pytest.mark.parametrize("labels", ["binary", "three_class", "pure"])
def test_classifier_finder_matches_reference(kind, n, k, msl, labels):
    seed = n * 10 + k
    block = _block(kind, n, k, seed)
    rng = np.random.default_rng(seed + 1)
    n_classes = 3 if labels == "three_class" else 2
    y = rng.integers(0, n_classes, size=n)
    if labels == "pure":
        y[:] = 1
    tree = _classifier(n_classes, msl)
    gains, thresholds = reference_splits(tree, block, y)
    if n < 2 * msl:
        # The growth loop leaves such nodes as leaves without searching.
        assert not gains.any() and not thresholds.any()
        return
    batched = lockstep_splits(tree, block, y)
    assert _bits(batched[0]) == _bits(gains)
    assert _bits(batched[1]) == _bits(thresholds)


@pytest.mark.parametrize("kind,n,k,msl", CASES)
@pytest.mark.parametrize("target", ["continuous", "rounded", "pure"])
def test_regressor_finder_matches_reference(kind, n, k, msl, target):
    seed = n * 10 + k
    block = _block(kind, n, k, seed)
    rng = np.random.default_rng(seed + 2)
    y = rng.normal(loc=3.0, scale=10.0, size=n)
    if target == "rounded":
        y = y.round(0)
    elif target == "pure":
        y[:] = 0.1
    tree = DecisionTreeRegressor(min_samples_leaf=msl)
    gains, thresholds = reference_splits(tree, block, y)
    if n < 2 * msl:
        assert not gains.any() and not thresholds.any()
        return
    batched = lockstep_splits(tree, block, y)
    assert _bits(batched[0]) == _bits(gains)
    assert _bits(batched[1]) == _bits(thresholds)


# -- whole-tree identity ----------------------------------------------------
def _reference_winner(tree, block, y):
    """The reference column scan, reduced the way the growth loop used to.

    Returns the batched interface, but with every column zeroed except the
    one the old ``gain > best_gain`` loop (starting from 0.0) picked, so the
    shipped ``argmax`` winner rule is checked as well.
    """
    gains, thresholds = reference_splits(tree, block, y)
    best_gain, best_column = 0.0, None
    for column, gain in enumerate(gains):
        if gain > best_gain:
            best_gain, best_column = gain, column
    winner_gains = np.zeros(len(gains))
    winner_thresholds = np.zeros(len(gains))
    if best_column is not None:
        winner_gains[best_column] = best_gain
        winner_thresholds[best_column] = thresholds[best_column]
    return winner_gains, winner_thresholds


class PerNodeGrowth:
    """The per-node depth-first grower the trees used before lockstep.

    Kept verbatim: the growth loop and its winner rule, and the per-node
    batched split finder (``_best_splits`` over one ``n_candidates x
    n_rows`` block).  Lockstep trees must equal these node for node.
    """

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


class PerNodeClassifier(PerNodeGrowth, DecisionTreeClassifier):
    def fit(self, X, y) -> "PerNodeClassifier":
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


class PerNodeRegressor(PerNodeGrowth, DecisionTreeRegressor):
    def fit(self, X, y) -> "PerNodeRegressor":
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


class ReferenceClassifier(PerNodeClassifier):
    """The per-node grower over the one-column-at-a-time scan."""

    _best_splits = _reference_winner


class ReferenceRegressor(PerNodeRegressor):
    """The per-node grower over the one-column-at-a-time scan."""

    _best_splits = _reference_winner


def reference_forest(forest, X, y, scan=True):
    """``forest`` fitted the tree-by-tree way, on per-node trees.

    ``scan`` picks the one-column-at-a-time scan as the trees' split
    finder; otherwise they use the per-node batched finder.  The two
    agree except where a scan's scalar arithmetic rounds differently from
    array arithmetic (a ``-0.0`` tie case below shows one such node).
    """
    matrix, target = check_X_y(X, y)
    if isinstance(forest, RandomForestClassifier):
        forest.classes_ = np.unique(target)
        tree_class = ReferenceClassifier if scan else PerNodeClassifier
    else:
        tree_class = ReferenceRegressor if scan else PerNodeRegressor
    forest._trees = []
    forest.n_features_ = matrix.shape[1]
    rng = np.random.default_rng(forest.seed)
    n_samples = matrix.shape[0]
    for _ in range(forest.n_estimators):
        tree = tree_class(
            max_depth=forest.max_depth,
            min_samples_split=forest.min_samples_split,
            min_samples_leaf=forest.min_samples_leaf,
            max_features=forest.max_features,
            seed=int(rng.integers(0, 2**31 - 1)),
        )
        if forest.bootstrap:
            rows = rng.integers(0, n_samples, size=n_samples)
        else:
            rows = np.arange(n_samples)
        tree.fit(matrix[rows], target[rows])
        forest._trees.append(tree)
    return forest


def reference_cv(estimator, X, y, metric, folds):
    """Per-fold reference forests and scores, one fold at a time."""
    forests, scores = [], []
    for train, test in folds:
        forest = reference_forest(
            type(estimator)(**estimator.get_params()), X[train], y[train], scan=False
        )
        forests.append(forest)
        scores.append(metric(y[test], forest.predict(X[test])))
    return forests, np.asarray(scores, dtype=np.float64)


def _assert_same_trees(shipped, reference):
    assert len(shipped) == len(reference)
    for ours, theirs in zip(shipped, reference):
        assert ours._feature == theirs._feature
        assert ours._left == theirs._left and ours._right == theirs._right
        assert _bits(ours._threshold) == _bits(theirs._threshold)
        assert _bits(ours._value) == _bits(theirs._value)
        if hasattr(theirs, "classes_"):
            assert _bits(ours.classes_) == _bits(theirs.classes_)


def _data(seed, n=240, d=9, n_classes=2):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    X[:, 1] = X[:, 1].round(0)  # heavy ties
    X[:, 2] = 4.0  # constant
    X[:, 3] = X[:, 0]  # exact gain ties between candidates
    signal = X[:, 0] + 0.5 * X[:, 1] + rng.normal(scale=0.5, size=n)
    cuts = np.quantile(signal, np.linspace(0, 1, n_classes + 1)[1:-1])
    return X, np.digitize(signal, cuts), signal


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("n_classes", [2, 3])
def test_forest_classifier_trees_match_reference(seed, n_classes):
    X, y, _ = _data(seed, n_classes=n_classes)
    params = dict(
        n_estimators=4, max_depth=None, min_samples_leaf=1 + seed % 2, seed=seed
    )
    shipped = RandomForestClassifier(**params).fit(X, y)
    reference = reference_forest(RandomForestClassifier(**params), X, y)
    assert all(isinstance(t, ReferenceClassifier) for t in reference._trees)
    _assert_same_trees(shipped._trees, reference._trees)
    assert _bits(shipped.predict_proba(X)) == _bits(reference.predict_proba(X))


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_forest_regressor_trees_match_reference(seed):
    X, _, y = _data(seed)
    params = dict(n_estimators=4, min_samples_leaf=1 + seed % 2, seed=seed)
    shipped = RandomForestRegressor(**params).fit(X, y)
    reference = reference_forest(RandomForestRegressor(**params), X, y)
    assert all(isinstance(t, ReferenceRegressor) for t in reference._trees)
    _assert_same_trees(shipped._trees, reference._trees)
    assert _bits(shipped.predict(X)) == _bits(reference.predict(X))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_boosting_trees_match_reference(monkeypatch, seed):
    X, y_class, y = _data(seed, n=150)
    regressor = GradientBoostingRegressor(n_estimators=6, seed=seed).fit(X, y)
    classifier = GradientBoostingClassifier(n_estimators=6, seed=seed)
    classifier.fit(X, y_class)
    monkeypatch.setattr(boosting, "DecisionTreeRegressor", ReferenceRegressor)
    ref_regressor = GradientBoostingRegressor(n_estimators=6, seed=seed).fit(X, y)
    ref_classifier = GradientBoostingClassifier(n_estimators=6, seed=seed)
    ref_classifier.fit(X, y_class)
    assert all(isinstance(t, ReferenceRegressor) for t in ref_regressor._trees)
    _assert_same_trees(regressor._trees, ref_regressor._trees)
    assert len(classifier._models) == len(ref_classifier._models) > 0
    for ours, theirs in zip(classifier._models, ref_classifier._models):
        _assert_same_trees(ours, theirs)
    assert _bits(regressor.predict(X)) == _bits(ref_regressor.predict(X))


# -- lockstep across trees and folds ------------------------------------------
def _assert_cv_matches_reference(estimator, X, y, metric, n_splits=3, seed=0):
    stratified = isinstance(estimator, RandomForestClassifier)
    folds = plan_folds(y, n_splits=n_splits, seed=seed, stratified=stratified)
    shipped = estimator.fit_folds(X, np.asarray(y, dtype=np.float64), folds)
    forests, scores = reference_cv(
        estimator, X, np.asarray(y, dtype=np.float64), metric, folds
    )
    for ours, theirs in zip(shipped, forests):
        _assert_same_trees(ours._trees, theirs._trees)
        if stratified:
            assert _bits(ours.classes_) == _bits(theirs.classes_)
    lockstep = cross_val_score(
        estimator, X, y, metric, n_splits=n_splits, seed=seed,
        stratified=stratified,
    )
    assert _bits(lockstep) == _bits(scores)


@pytest.mark.parametrize("max_depth", [None, 3, 8])
@pytest.mark.parametrize("min_samples_leaf", [1, 2, 3])
def test_cv_classifier_folds_match_reference(max_depth, min_samples_leaf):
    X, y, _ = _data(max_depth or 0, n=150, n_classes=3)
    estimator = RandomForestClassifier(
        n_estimators=3, max_depth=max_depth,
        min_samples_leaf=min_samples_leaf, seed=min_samples_leaf,
    )
    _assert_cv_matches_reference(estimator, X, y, accuracy_score)


@pytest.mark.parametrize("max_depth", [None, 3, 8])
@pytest.mark.parametrize("min_samples_leaf", [1, 2, 3])
def test_cv_regressor_folds_match_reference(max_depth, min_samples_leaf):
    X, _, y = _data(max_depth or 0, n=150)
    estimator = RandomForestRegressor(
        n_estimators=3, max_depth=max_depth,
        min_samples_leaf=min_samples_leaf, seed=min_samples_leaf,
    )
    _assert_cv_matches_reference(estimator, X, y, one_minus_rae)


def test_class_missing_from_some_bootstraps():
    X, y, _ = _data(7, n=60)
    y[:3] = 2  # a rare third class most bootstraps of 60 rows still see
    y[3] = 3  # a class of one row that many bootstraps miss
    params = dict(n_estimators=12, max_depth=None, seed=7)
    shipped = RandomForestClassifier(**params).fit(X, y)
    reference = reference_forest(RandomForestClassifier(**params), X, y, scan=False)
    sizes = {len(tree.classes_) for tree in shipped._trees}
    assert len(sizes) > 1, sizes
    _assert_same_trees(shipped._trees, reference._trees)
    assert _bits(shipped.predict_proba(X)) == _bits(reference.predict_proba(X))
    _assert_cv_matches_reference(
        RandomForestClassifier(**params), X, y, accuracy_score
    )


def test_regressor_targets_overflowing_to_nan():
    X, _, signal = _data(8, n=120)
    y = signal * 1e154  # squares overflow to inf, so gains turn NaN
    y[::7] = 1e-3
    with np.errstate(over="ignore", invalid="ignore"):
        shipped = RandomForestRegressor(n_estimators=4, seed=8).fit(X, y)
        reference = reference_forest(
            RandomForestRegressor(n_estimators=4, seed=8), X, y, scan=False
        )
        _assert_same_trees(shipped._trees, reference._trees)
        _assert_cv_matches_reference(
            RandomForestRegressor(n_estimators=3, seed=8), X, y, one_minus_rae
        )


def test_negative_zero_and_tied_columns():
    X, y_class, y = _data(9, n=120)
    X[:, 4] = np.where(X[:, 4] > 0, 0.0, -0.0)  # -0.0 and 0.0 tie
    X[:, 5] = X[:, 4]
    X[:, 6] = np.where(X[:, 0] > 0, -0.0, 1.0)
    X[:, 7] = X[:, 6]
    for estimator, target, metric in (
        (RandomForestClassifier(n_estimators=4, max_features=None, seed=9), y_class, accuracy_score),
        (RandomForestRegressor(n_estimators=4, max_features=None, seed=9), y, one_minus_rae),
    ):
        shipped = type(estimator)(**estimator.get_params()).fit(X, target)
        reference = reference_forest(
            type(estimator)(**estimator.get_params()), X, target, scan=False
        )
        _assert_same_trees(shipped._trees, reference._trees)
        _assert_cv_matches_reference(estimator, X, target, metric)


def test_small_chunk_budget_splits_steps_into_chunks(monkeypatch):
    X, y, signal = _data(10, n=200)
    chunks = []
    original = tree_module._chunks

    def recording(lengths, k):
        parts = list(original(lengths, k))
        chunks.append(len(parts))
        return parts

    monkeypatch.setattr(tree_module, "_CHUNK_CELLS", 64)
    monkeypatch.setattr(tree_module, "_chunks", recording)
    for estimator, target, metric in (
        (RandomForestClassifier(n_estimators=5, seed=10), y, accuracy_score),
        (RandomForestRegressor(n_estimators=5, seed=10), signal, one_minus_rae),
    ):
        _assert_cv_matches_reference(estimator, X, target, metric)
    assert max(chunks) > 3, chunks


def test_one_tree_batch_equals_standalone_tree():
    X, y, signal = _data(11, n=160)
    for forest_class, target in (
        (RandomForestClassifier, y), (RandomForestRegressor, signal),
    ):
        forest = forest_class(n_estimators=5, seed=11).fit(X, target)
        rng = np.random.default_rng(11)
        for grown in forest._trees:
            seed = int(rng.integers(0, 2**31 - 1))
            rows = rng.integers(0, len(X), size=len(X))
            alone = forest._make_tree(seed)
            assert grown.seed == seed
            tree_module.grow_trees([alone], X, np.asarray(target, float), [rows])
            _assert_same_trees([grown], [alone])
            fitted = forest._make_tree(seed).fit(X[rows], target[rows])
            _assert_same_trees([grown], [fitted])


# -- randomized configurations ------------------------------------------------
def random_config(seed):
    """One seeded configuration: data, estimator, and forest or CV."""
    rng = np.random.default_rng(seed)
    classifier = bool(rng.integers(2))
    n = int(rng.integers(12, 160))
    d = int(rng.integers(1, 9))
    X = rng.normal(size=(n, d))
    for j in range(d):
        quirk = rng.integers(6)
        if quirk == 0:
            X[:, j] = X[:, j].round(0)
        elif quirk == 1:
            X[:, j] = np.where(X[:, j] > 0, 0.0, -0.0)
        elif quirk == 2 and j:
            X[:, j] = X[:, j - 1]
        elif quirk == 3:
            X[:, j] = float(rng.normal())
    if classifier:
        n_classes = int(rng.integers(2, 5))
        y = rng.integers(0, n_classes, size=n).astype(np.float64)
        if rng.integers(3) == 0:
            y[rng.integers(n)] = n_classes  # a class many bootstraps miss
        estimator_class = RandomForestClassifier
    else:
        y = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4)
        if rng.integers(4) == 0:
            y = y.round(0)
        elif rng.integers(6) == 0:
            y = y * 1e154  # squares overflow, so gains turn NaN
        estimator_class = RandomForestRegressor
    estimator = estimator_class(
        n_estimators=int(rng.integers(1, 6)),
        max_depth=[None, 3, 8][rng.integers(3)],
        min_samples_split=int(rng.integers(2, 6)),
        min_samples_leaf=int(rng.integers(1, 4)),
        max_features=["sqrt", "log2", None, int(rng.integers(1, d + 1))][rng.integers(4)],
        bootstrap=bool(rng.integers(4)),
        seed=int(rng.integers(1000)),
    )
    return X, y, estimator, bool(rng.integers(2)), int(rng.integers(2, 5))


def check_random_config(seed):
    """Lockstep growth equals the reference grower on one configuration."""
    X, y, estimator, cross_validate, n_splits = random_config(seed)
    with np.errstate(over="ignore", invalid="ignore"):
        _check(X, y, estimator, cross_validate, n_splits, seed)


def _check(X, y, estimator, cross_validate, n_splits, seed):
    if cross_validate:
        metric = accuracy_score if isinstance(estimator, RandomForestClassifier) else one_minus_rae
        _assert_cv_matches_reference(estimator, X, y, metric, n_splits=n_splits, seed=seed)
    else:
        shipped = type(estimator)(**estimator.get_params()).fit(X, y)
        reference = reference_forest(
            type(estimator)(**estimator.get_params()), X, y, scan=False
        )
        _assert_same_trees(shipped._trees, reference._trees)


@pytest.mark.parametrize("seed", range(16))
def test_random_configs_match_reference(seed):
    check_random_config(seed)


def test_predict_reads_the_leaf_value_table():
    X, y_class, y = _data(5, n=120)
    classifier = DecisionTreeClassifier(max_depth=5).fit(X, y_class)
    leaves = classifier._leaf_of_rows(X)
    per_row = np.vstack([classifier._value[node] for node in leaves])
    assert _bits(classifier.predict_proba(X)) == _bits(per_row)
    regressor = DecisionTreeRegressor(max_depth=5).fit(X, y)
    leaves = regressor._leaf_of_rows(X)
    per_row = np.array([regressor._value[node][0] for node in leaves])
    assert _bits(regressor.predict(X)) == _bits(per_row)


def test_german_credit_score_is_pinned():
    # Recorded with the one-column-at-a-time split search.
    task = load("German Credit")
    evaluator = DownstreamEvaluator(task="C", n_splits=3, n_estimators=5, seed=13)
    score = evaluator.evaluate(task.X.to_array(), task.y)
    assert score == 0.7532487263943937
