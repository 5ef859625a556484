"""CART decision trees (classifier and regressor) in vectorized numpy.

These are the building blocks of the Random Forest downstream task
(Section II, Evaluation Task).  The implementation favours the shape of
cost the paper measures — feature evaluation is *expensive relative to
feature generation* — while remaining fast enough that hundreds of
cross-validated evaluations finish on a laptop:

* Trees grow in lockstep (:func:`grow_trees`).  A forest's trees, or
  every fold forest of one cross-validation, are grown together: each
  tree keeps its own RNG and depth-first stack, so its candidate draws
  and node order are exactly those of a tree grown alone, but every
  step gathers the one node each live tree needs split next and scores
  all of them in a single ragged pass.  Leaves are settled inline and
  node statistics (class counts or target means) are computed for all
  children of a step at once.  A node costs a few Python operations
  plus its share of a few dozen numpy calls per step, instead of a few
  dozen numpy calls of its own.
* The ragged split search makes one segment per (node, candidate
  column).  One ``np.sort`` over packed int64 keys
  (segment | dense value rank | position in the node) orders every
  segment by value, ties in row order — exactly what a per-node stable
  ``argsort`` gives.  Gini prefix counts come from one flat cumsum per
  class minus each segment's base (exact: the counts are integers);
  variance prefix sums come from a zero-padded ``segments x rows``
  cumsum, so each prefix adds its rows sequentially as a per-column
  cumsum does.  The first maximum of each segment is found with
  ``np.maximum.reduceat``, and the winner is the first drawn column with
  the strictly largest positive gain.  Every other step is the same
  elementwise expression the per-node grower used, so trees are
  bit-identical to it (``tests/ml/test_tree_split_oracle.py`` keeps that
  grower as the reference).
* Memory stays flat: segments are scored in size-sorted chunks of at
  most ``_CHUNK_CELLS`` (segment x row) cells, and every tree reads one
  shared transposed matrix through row-index arrays.
* Prediction routes all rows through the tree level by level with boolean
  masks instead of per-row Python recursion, then reads every row's leaf
  value from one stacked table.

Both trees accept ``max_features`` so the forest can do per-node feature
subsampling, and an externally supplied seed so runs are reproducible.
"""

from __future__ import annotations

import numpy as np

from .base import BaseEstimator, check_matrix, check_X_y

__all__ = ["DecisionTreeClassifier", "DecisionTreeRegressor", "grow_trees"]

_LEAF = -1

#: Cells (segments x longest node) one split-search chunk scores at once.
_CHUNK_CELLS = 1 << 14


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


def _starts(lengths: np.ndarray) -> np.ndarray:
    """Offset of each consecutive segment of the given lengths."""
    starts = np.zeros(len(lengths), dtype=np.int64)
    np.cumsum(lengths[:-1], out=starts[1:])
    return starts


def _dense_ranks(columns: np.ndarray) -> np.ndarray:
    """Per column, each value's rank among the column's distinct values.

    Equal values (``-0.0`` and ``0.0`` included) share a rank, so ordering
    by rank is ordering by value.
    """
    ranks = np.zeros(columns.shape, dtype=np.int64)
    for column, rank in zip(columns, ranks):
        order = column.argsort()
        ordered = column[order]
        rank[order[1:]] = np.cumsum(ordered[1:] != ordered[:-1])
    return ranks


class _Gini:
    """Gini criterion over class codes shared by every tree of a growth.

    Node statistics are class counts over all classes of the target;
    each tree divides by its own classes only (a bootstrap can miss one).
    """

    def __init__(self, target: np.ndarray) -> None:
        self.classes, self.codes = np.unique(target, return_inverse=True)
        self.n_classes = len(self.classes)
        self._interned: dict[bytes, np.ndarray] = {}

    def tree_classes(self, counts: np.ndarray) -> np.ndarray:
        """The classes a tree's root counts hold, one shared array per set."""
        present = np.flatnonzero(counts)
        return self._interned.setdefault(present.tobytes(), present)

    def node_stats(self, rows: np.ndarray, lengths: np.ndarray):
        """Class counts and purity of consecutive row segments."""
        node = np.repeat(np.arange(len(lengths)), lengths)
        counts = np.bincount(
            node * self.n_classes + self.codes[rows],
            minlength=len(lengths) * self.n_classes,
        ).reshape(-1, self.n_classes)
        return counts, counts.max(axis=1) == lengths

    def values(self, stats: list, present: np.ndarray) -> np.ndarray:
        counts = np.vstack(stats)[:, present]
        return counts / counts.sum(axis=1, keepdims=True)

    def gains(self, chunk: "_Chunk", present: list) -> np.ndarray:
        codes = self.codes[chunk.rows]
        bseg, bpos = chunk.bseg, chunk.bpos
        bnode = bseg // chunk.k
        left_n, n = chunk.sizes()
        right_n = n - left_n
        prefix = np.zeros(len(codes) + 1)
        # Node totals per class, one row per node (its first segment).
        heads = chunk.seg_start[:: chunk.k]
        totals = np.empty((len(heads), self.n_classes))
        totals[:, 0] = chunk.lengths
        # Sums of squared per-class prefix counts; class 0 holds the rows
        # the other classes leave.  The counts are integer-valued floats,
        # so every sum is exact in any order.
        left_rest, left_sq, right_sq = left_n, 0.0, 0.0
        for c in range(1, self.n_classes):
            np.cumsum(codes == c, out=prefix[1:])
            left_counts = prefix[bpos + 1] - prefix[chunk.seg_start][bseg]
            totals[:, c] = prefix[heads + chunk.lengths] - prefix[heads]
            totals[:, 0] -= totals[:, c]
            total = totals[bnode, c]
            left_rest = left_rest - left_counts
            left_sq = left_sq + left_counts**2
            right_sq = right_sq + (total - left_counts) ** 2
        left_sq = left_sq + left_rest**2
        right_sq = right_sq + (totals[bnode, 0] - left_rest) ** 2
        left_gini = 1.0 - left_sq / left_n**2
        right_gini = 1.0 - right_sq / right_n**2
        # Each tree sums only its own classes, in their order.
        parent_gini = np.empty(len(heads))
        groups: dict[int, list[int]] = {}
        for node, classes in enumerate(present):
            groups.setdefault(id(classes), []).append(node)
        for nodes in groups.values():
            own = totals[nodes][:, present[nodes[0]]]
            parent_gini[nodes] = 1.0 - (
                (own / chunk.lengths[nodes, None]) ** 2
            ).sum(axis=1)
        return parent_gini[bnode] - (left_n * left_gini + right_n * right_gini) / n

    def clean(self, gains: np.ndarray) -> None:
        pass


class _Variance:
    """Variance (MSE) criterion over float targets."""

    def __init__(self, target: np.ndarray) -> None:
        self.target = target

    def tree_classes(self, stats) -> None:
        return None

    def node_stats(self, rows: np.ndarray, lengths: np.ndarray):
        """Target means and purity of consecutive row segments."""
        target = self.target[rows]
        starts = _starts(lengths)
        means = [target[s : s + n].mean() for s, n in zip(starts.tolist(), lengths.tolist())]
        spread = np.maximum.reduceat(target, starts) - np.minimum.reduceat(target, starts)
        return means, spread < 1e-12

    def values(self, stats: list, present) -> np.ndarray:
        return np.array(stats).reshape(-1, 1)

    def gains(self, chunk: "_Chunk", present: list) -> np.ndarray:
        ranked = self.target[chunk.rows]
        bseg = chunk.bseg
        left_n, n = chunk.sizes()
        # Zero padding after each segment's rows leaves its prefixes as a
        # per-row cumsum computes them.
        column = np.arange(chunk.width)
        cells = column < chunk.seg_lengths[:, None]
        # Boundaries in the same segment-major order as ``bseg``/``boff``.
        bounds = (column >= chunk.lo) & (
            column < (chunk.seg_lengths - chunk.lo - 1)[:, None]
        )
        padded = np.zeros(cells.shape)
        padded[cells] = ranked
        prefix_sum = padded.cumsum(axis=1)
        padded[cells] = ranked**2
        prefix_sq = padded.cumsum(axis=1)
        last = chunk.seg_lengths - 1
        each = np.arange(len(last))
        total_sum = prefix_sum[each, last][bseg]
        total_sq = prefix_sq[each, last][bseg]
        right_n = n - left_n
        left_sum = prefix_sum[bounds]
        right_sum = total_sum - left_sum
        left_sq = prefix_sq[bounds]
        right_sq = total_sq - left_sq
        # SSE of each side: sum(y^2) - (sum(y))^2 / n.
        left_sse = left_sq - left_sum**2 / left_n
        right_sse = right_sq - right_sum**2 / right_n
        parent_sse = total_sq - total_sum**2 / n
        return (parent_sse - left_sse - right_sse) / n

    def clean(self, gains: np.ndarray) -> None:
        # Rounding can leave a gain just below 0; a NaN gain (targets so
        # large their squares overflow) can never win a split either.
        gains[~(gains >= 0.0)] = 0.0


class _Chunk:
    """One chunk of segments, each sorted by its column's values.

    Segment ``s`` is candidate ``s % k`` of node ``s // k``; ``rows`` holds
    every segment's rows in sorted order, one segment after another.
    Boundary ``b`` sends the first ``boff[b] + 1`` sorted rows of segment
    ``bseg[b]`` left; only boundaries leaving ``min_samples_leaf`` rows on
    both sides exist.
    """

    def __init__(self, ranks, rows, candidates, min_samples_leaf):
        self.k = k = candidates.shape[1]
        self.lengths = lengths = np.array([len(r) for r in rows])
        node_rows = np.concatenate(rows)
        self.seg_lengths = seg_lengths = np.repeat(lengths, k)
        self.seg_start = seg_start = _starts(seg_lengths)
        self.width = width = int(lengths.max())
        # Segment and position in the segment of every cell.
        seg = np.repeat(np.arange(len(seg_lengths)), seg_lengths)
        offset = np.arange(len(seg)) - seg_start[seg]
        source = np.repeat(_starts(lengths), k)[seg]
        # Key: segment | dense value rank | position in the node.  Sorting
        # it orders each segment by value with ties in row order, in place.
        rank_bits = int(ranks.shape[1] - 1).bit_length()
        offset_bits = (width - 1).bit_length()
        if (len(seg_lengths) - 1).bit_length() + rank_bits + offset_bits > 63:
            raise ValueError("split search keys overflow int64")
        key = ranks[candidates.ravel()[seg], node_rows[source + offset]]
        key <<= offset_bits
        key |= offset
        seg <<= rank_bits + offset_bits
        key |= seg
        del seg, offset
        key.sort()
        source += key & ((1 << offset_bits) - 1)
        self.rows = node_rows[source]
        del source
        key >>= offset_bits
        self.lo = lo = min_samples_leaf - 1
        n_boundaries = seg_lengths - 2 * lo - 1
        self.bstart = _starts(n_boundaries)
        self.bseg = bseg = np.repeat(np.arange(len(seg_lengths)), n_boundaries)
        self.boff = boff = np.arange(len(bseg)) - self.bstart[bseg] + lo
        self.bpos = bpos = seg_start[bseg] + boff
        # A split between equal values (equal ranks) is not realizable.
        self.tied = key[bpos + 1] == key[bpos]

    def sizes(self) -> tuple[np.ndarray, np.ndarray]:
        """Rows left of, and rows of the segment at, every boundary."""
        left_n = (self.boff + 1).astype(np.float64)
        return left_n, self.seg_lengths[self.bseg].astype(np.float64)


def _chunks(lengths: np.ndarray, k: int):
    """Node indices in size order, cut into chunks of at most ``_CHUNK_CELLS``."""
    order = np.argsort(lengths, kind="stable")
    chunk: list[int] = []
    for node in order.tolist():
        if chunk and (len(chunk) + 1) * k * lengths[node] > _CHUNK_CELLS:
            yield chunk
            chunk = []
        chunk.append(node)
    yield chunk


def _search(criterion, columns, ranks, rows, candidates, present, min_samples_leaf):
    """Best ``(gains, thresholds)`` of every (node, candidate) segment.

    ``rows[i]`` holds node ``i``'s rows of ``columns`` (at least
    ``2 * min_samples_leaf``) and ``candidates[i]`` its drawn columns;
    the result is node-major.  A column without a realizable split scores
    ``(0.0, 0.0)``.
    """
    k = candidates.shape[1]
    lengths = np.array([len(r) for r in rows])
    gains = np.empty(len(rows) * k)
    thresholds = np.empty(len(rows) * k)
    for nodes in _chunks(lengths, k):
        chunk = _Chunk(
            ranks, [rows[i] for i in nodes], candidates[nodes], min_samples_leaf
        )
        gain = criterion.gains(chunk, [present[i] for i in nodes])
        gain[chunk.tied] = -np.inf
        best = np.maximum.reduceat(gain, chunk.bstart)
        # The first boundary reaching its segment's maximum; a NaN gain is
        # a maximum, as ``argmax`` treats it.
        hits = np.flatnonzero((gain == best[chunk.bseg]) | np.isnan(gain))
        split = chunk.bpos[hits[np.searchsorted(hits, chunk.bstart)]]
        features = candidates[nodes].ravel()
        threshold = (
            columns[features, chunk.rows[split]]
            + columns[features, chunk.rows[split + 1]]
        ) / 2.0
        unsplittable = best == -np.inf
        best[unsplittable] = 0.0
        threshold[unsplittable] = 0.0
        segments = (np.asarray(nodes)[:, None] * k + np.arange(k)).ravel()
        gains[segments] = best
        thresholds[segments] = threshold
    criterion.clean(gains)
    return gains, thresholds


class _Growing:
    """One tree's growth state: its RNG, DFS stack and node statistics."""

    __slots__ = ("tree", "rng", "stack", "stats", "present")

    def __init__(self, tree, rows, stats, pure, present) -> None:
        tree.n_features_ = None
        tree._feature, tree._threshold = [_LEAF], [0.0]
        tree._left, tree._right = [_LEAF], [_LEAF]
        self.tree = tree
        self.rng = np.random.default_rng(tree.seed)
        # Depth-first explicit stack: (node_id, rows, depth, pure).
        self.stack = [(0, rows, 0, pure)]
        self.stats = [stats]
        self.present = present


def _split(criterion, columns, nodes, features, cuts, min_leaf) -> None:
    """Split each of ``nodes`` at its winning cut and push its children.

    Children rows keep their parent's row order; a split leaving fewer
    than ``min_leaf`` rows on a side (the midpoint threshold can round onto
    a neighbour) leaves the node a leaf.
    """
    lengths = np.array([len(entry[2]) for entry in nodes])
    node_rows = np.concatenate([entry[2] for entry in nodes])
    goes_left = (
        columns[np.repeat(features, lengths), node_rows] <= np.repeat(cuts, lengths)
    )
    left_n = np.add.reduceat(goes_left, _starts(lengths), dtype=np.int64)
    right_n = lengths - left_n
    valid = (left_n >= min_leaf) & (right_n >= min_leaf)
    if not valid.all():
        keep = np.repeat(valid, lengths)
        node_rows, goes_left = node_rows[keep], goes_left[keep]
        nodes = [entry for entry, ok in zip(nodes, valid) if ok]
        features, cuts = features[valid], cuts[valid]
        left_n, right_n = left_n[valid], right_n[valid]
    left_rows, right_rows = node_rows[goes_left], node_rows[~goes_left]
    left_stats, left_pure = criterion.node_stats(left_rows, left_n)
    right_stats, right_pure = criterion.node_stats(right_rows, right_n)
    left_ends, right_ends = left_n.cumsum().tolist(), right_n.cumsum().tolist()
    left_at = right_at = 0
    for j, (state, node, _, depth, _) in enumerate(nodes):
        tree = state.tree
        left = len(tree._feature)
        tree._feature[node] = int(features[j])
        tree._threshold[node] = float(cuts[j])
        tree._left[node], tree._right[node] = left, left + 1
        tree._feature += [_LEAF, _LEAF]
        tree._threshold += [0.0, 0.0]
        tree._left += [_LEAF, _LEAF]
        tree._right += [_LEAF, _LEAF]
        state.stats += [left_stats[j], right_stats[j]]
        # Copies, so a waiting child holds only its own rows alive.
        state.stack.append((
            left, left_rows[left_at : left_ends[j]].copy(), depth + 1, left_pure[j]
        ))
        state.stack.append((
            left + 1, right_rows[right_at : right_ends[j]].copy(), depth + 1,
            right_pure[j],
        ))
        left_at, right_at = left_ends[j], right_ends[j]


def grow_trees(trees: list, X: np.ndarray, y: np.ndarray, samples: list) -> None:
    """Grow fresh ``trees`` together on rows of one matrix.

    ``trees`` share one class and one set of hyperparameters (their seeds
    may differ); tree ``i`` trains on ``X[samples[i]], y[samples[i]]``.
    ``X`` must be finite and ``y`` the float target of every row.  Each
    tree ends exactly as if fitted alone on its rows.
    """
    first = trees[0]
    columns = np.ascontiguousarray(X.T)
    ranks = _dense_ranks(columns)
    n_features = columns.shape[0]
    k = _resolve_max_features(first.max_features, n_features)
    min_split, max_depth = first.min_samples_split, first.max_depth
    min_leaf = first.min_samples_leaf
    criterion = first._criterion(y)
    live = []
    for tree, rows in zip(trees, samples):
        stats, pure = criterion.node_stats(rows, np.array([len(rows)]))
        live.append(
            _Growing(tree, rows, stats[0], pure[0], criterion.tree_classes(stats[0]))
        )
    finished = list(live)
    while live:
        # Every live tree pops nodes until one needs a split search.
        pending = []
        for state in live:
            stack = state.stack
            while stack:
                node, rows, depth, pure = stack.pop()
                if (
                    pure
                    or len(rows) < min_split
                    or (max_depth is not None and depth >= max_depth)
                ):
                    continue
                candidates = state.rng.choice(n_features, size=k, replace=False)
                # No boundary leaves min_samples_leaf rows on both sides.  The
                # draw above still happens, so the RNG stream stays the same.
                if len(rows) < 2 * min_leaf:
                    continue
                pending.append((state, node, rows, depth, candidates))
                break
        if not pending:
            break
        live = [entry[0] for entry in pending]
        candidates = np.array([entry[4] for entry in pending])
        gains, thresholds = _search(
            criterion, columns, ranks, [entry[2] for entry in pending],
            candidates, [state.present for state in live], min_leaf,
        )
        # The first drawn column with the strictly largest gain wins, and
        # only a positive gain splits.
        gains = gains.reshape(len(pending), k)
        best = gains.argmax(axis=1)
        each = np.arange(len(pending))
        splits = np.flatnonzero(gains[each, best] > 0.0)
        if not len(splits):
            continue
        features = candidates[splits, best[splits]]
        cuts = thresholds.reshape(len(pending), k)[splits, best[splits]]
        lengths = np.array([len(pending[i][2]) for i in splits])
        for group in _chunks(lengths, 1):
            _split(
                criterion, columns, [pending[i] for i in splits[group]],
                features[group], cuts[group], min_leaf,
            )
    for state in finished:
        tree = state.tree
        tree.n_features_ = n_features
        tree._value = criterion.values(state.stats, state.present)
        if state.present is not None:
            tree.classes_ = criterion.classes[state.present]


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
        # Flat node arrays filled by ``grow_trees``.
        self._feature: list[int] = []
        self._threshold: list[float] = []
        self._left: list[int] = []
        self._right: list[int] = []
        # One row per node.
        self._value: np.ndarray = np.empty((0, 0))
        self.n_features_: int | None = None

    @staticmethod
    def _criterion(y: np.ndarray):
        raise NotImplementedError

    def _fit(self, X, y) -> None:
        matrix, target = check_X_y(X, y)
        grow_trees([self], matrix, target, [np.arange(len(target))])

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

    _criterion = _Gini

    def fit(self, X, y) -> "DecisionTreeClassifier":
        self._fit(X, y)
        return self

    def predict_proba(self, X) -> np.ndarray:
        return self._value[self._leaf_of_rows(X)]

    def predict(self, X) -> np.ndarray:
        probabilities = self.predict_proba(X)
        return self.classes_[np.argmax(probabilities, axis=1)]


class DecisionTreeRegressor(_BaseTree):
    """CART regressor minimizing within-node variance (MSE criterion)."""

    _criterion = _Variance

    def fit(self, X, y) -> "DecisionTreeRegressor":
        self._fit(X, y)
        return self

    def predict(self, X) -> np.ndarray:
        return self._value[self._leaf_of_rows(X), 0]
