"""Oracle tests for the batched CART split finder.

Each tree node scores all of its candidate columns in one batched call
(``_best_splits``).  The references below are the one-column-at-a-time
scans the trees used before, kept verbatim: the batched finder must
return bit-equal ``(gain, threshold)`` pairs for every column, and trees
grown through the reference loop must equal the shipped trees node for
node.
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
)
from repro.ml import boosting, forest


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
    batched = tree._best_splits(block, y)
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
    batched = tree._best_splits(block, y)
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


class ReferenceClassifier(DecisionTreeClassifier):
    _best_splits = _reference_winner


class ReferenceRegressor(DecisionTreeRegressor):
    _best_splits = _reference_winner


def _assert_same_trees(shipped, reference):
    assert len(shipped) == len(reference)
    for ours, theirs in zip(shipped, reference):
        assert ours._feature == theirs._feature
        assert _bits(ours._threshold) == _bits(theirs._threshold)
        assert _bits(ours._value) == _bits(theirs._value)


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
def test_forest_classifier_trees_match_reference(monkeypatch, seed, n_classes):
    X, y, _ = _data(seed, n_classes=n_classes)
    params = dict(
        n_estimators=4, max_depth=None, min_samples_leaf=1 + seed % 2, seed=seed
    )
    shipped = RandomForestClassifier(**params).fit(X, y)
    monkeypatch.setattr(forest, "DecisionTreeClassifier", ReferenceClassifier)
    reference = RandomForestClassifier(**params).fit(X, y)
    assert all(isinstance(t, ReferenceClassifier) for t in reference._trees)
    _assert_same_trees(shipped._trees, reference._trees)
    assert _bits(shipped.predict_proba(X)) == _bits(reference.predict_proba(X))


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_forest_regressor_trees_match_reference(monkeypatch, seed):
    X, _, y = _data(seed)
    params = dict(n_estimators=4, min_samples_leaf=1 + seed % 2, seed=seed)
    shipped = RandomForestRegressor(**params).fit(X, y)
    monkeypatch.setattr(forest, "DecisionTreeRegressor", ReferenceRegressor)
    reference = RandomForestRegressor(**params).fit(X, y)
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
