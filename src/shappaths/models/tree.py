"""Binary decision trees stored as flat node arrays.

The same structure serves two roles: a standalone Gini-trained classifier
whose leaves hold class-frequency vectors, and the regression trees inside
the boosted ensemble whose leaves hold a single Newton weight. Every node
records its training-sample count (cover); the per-leaf path weights of
the SHAP computation are built from those covers.

Routing convention: a sample goes left iff x[feature] < threshold.
Thresholds are midpoints of the separating gap, so training data never
sits on a boundary.

Growth starts from one stable per-column sort of the training matrix,
made by the caller: once per fit for the Gini tree, once per ensemble for
the boosted trees, which all grow on the same rows. Children partition
it. A child keeps its parent's per-column order minus the other child's
rows, which is a stable argsort of the child's own rows: ties stay in
row-index order. Children at the depth limit are leaves, so their orders
are never partitioned.

A split between two equal values is not a split. The tie mask is lazy:
the search takes the first maximum gain, and masks every position
between equal values, then looks again, only when that maximum sits
between equal values. Masking lowers gains and never raises one, so the
first maximum is the one the full mask gives, a nan included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DataError, InvalidSpecError

LEAF = -1


@dataclass
class DecisionTree:
    feature: np.ndarray    # (n_nodes,) int, LEAF at leaves
    threshold: np.ndarray  # (n_nodes,) float, nan at leaves
    left: np.ndarray       # (n_nodes,) int, LEAF at leaves
    right: np.ndarray      # (n_nodes,) int, LEAF at leaves
    cover: np.ndarray      # (n_nodes,) float, training samples through the node
    value: np.ndarray      # (n_nodes, value_dim) float, read at leaves
    n_features: int = 0    # width of the training matrix

    @property
    def n_nodes(self) -> int:
        return self.feature.shape[0]

    @property
    def n_classes(self) -> int:
        return self.value.shape[1]

    def leaf_ids(self, X: np.ndarray) -> np.ndarray:
        """Index of the unique leaf each row routes to."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        nodes = np.zeros(X.shape[0], dtype=int)
        active = self.feature[nodes] != LEAF
        while active.any():
            idx = np.flatnonzero(active)
            cur = nodes[idx]
            goes_left = X[idx, self.feature[cur]] < self.threshold[cur]
            nodes[idx] = np.where(goes_left, self.left[cur], self.right[cur])
            active[idx] = self.feature[nodes[idx]] != LEAF
        return nodes

    def predict_margin(self, X: np.ndarray) -> np.ndarray:
        """(n, value_dim) leaf values of the routed rows."""
        return self.value[self.leaf_ids(X)]

    def predict_class(self, X: np.ndarray) -> np.ndarray:
        return np.argmax(self.predict_margin(X), axis=1)

    def expected_value(self) -> np.ndarray:
        """Cover-weighted mean leaf value, i.e. the training-set mean output."""
        leaves = np.flatnonzero(self.feature == LEAF)
        weights = self.cover[leaves] / self.cover[0]
        return weights @ self.value[leaves]

    def validate(self) -> None:
        if (self.cover <= 0).any():
            raise DataError("tree has a zero-cover node")
        for node in range(self.n_nodes):
            if self.feature[node] != LEAF:
                kids = self.cover[self.left[node]] + self.cover[self.right[node]]
                if abs(kids - self.cover[node]) > 1e-9 * max(1.0, self.cover[node]):
                    raise DataError(f"cover mismatch at node {node}")


def best_split(X: np.ndarray, order: np.ndarray, gain_fn,
               min_leaf: int) -> tuple[int, float, float] | None:
    """Best (feature, threshold, gain) over all midpoint splits, or None.

    ``order`` is the node's (m, p) per-column sort order, as row indices
    of ``X``. ``gain_fn(order)`` returns the (m - 1, p) gains of splitting
    after each sorted position. Positions between equal values, or leaving
    fewer than ``min_leaf`` rows on a side, are masked here. Ties resolve
    to the lowest feature index, then the lowest threshold.
    """
    m = order.shape[0]
    if m < 2:
        return None
    gains = gain_fn(order)
    gains[: min_leaf - 1] = -np.inf
    gains[m - min_leaf:] = -np.inf
    # the first maximum in feature-major order; a nan anywhere is found first
    feat, pos = divmod(int(np.argmax(gains.T)), m - 1)
    lo, hi = X[order[pos:pos + 2, feat], feat]
    if lo == hi:  # between equal values: mask every such position, then look again
        sorted_x = X[order, np.arange(X.shape[1])]
        gains[sorted_x[:-1] == sorted_x[1:]] = -np.inf
        feat, pos = divmod(int(np.argmax(gains.T)), m - 1)
        lo, hi = sorted_x[pos:pos + 2, feat]
    best = gains[pos, feat]
    if not np.isfinite(best) or best <= 0.0:
        return None
    return feat, float(0.5 * (lo + hi)), float(best)


def check_growth(max_depth: int, min_leaf: int) -> None:
    """The limits :func:`grow_tree` needs; both tree kinds check them before fitting."""
    if max_depth < 0 or min_leaf < 1:
        raise InvalidSpecError("max_depth must be >= 0 and min_leaf >= 1")


def sort_columns(X: np.ndarray) -> np.ndarray:
    """The root order :func:`grow_tree` takes: each column's stable argsort,
    stored column-major so that a column's prefix sums run over contiguous
    memory."""
    return np.asfortranarray(np.argsort(X, axis=0, kind="stable"))


def grow_tree(X: np.ndarray, order: np.ndarray, node_value, node_gains, max_depth: int,
              min_leaf: int) -> DecisionTree:
    """Greedy preorder growth over the rows of ``X``.

    ``order`` is the root's per-column order, ``sort_columns(X)``, taken by
    the caller so that trees grown on the same ``X`` share one sort; growth
    only reads it.

    ``node_value(rows)`` is the value a node stores, asked for once per
    node in preorder; ``node_gains(rows)`` is
    the ``gain_fn`` of :func:`best_split` for those rows, or None to keep
    the node a leaf. A node also stays a leaf at ``max_depth``, below
    ``2 * min_leaf`` rows, or when no split has positive gain.
    """
    feature, threshold, left, right, cover, value = [], [], [], [], [], []
    goes_left = np.zeros(X.shape[0], dtype=bool)  # read only at the node being split

    def grow(rows: np.ndarray, order: np.ndarray, depth: int) -> int:
        node = len(feature)
        feature.append(LEAF)
        threshold.append(np.nan)
        left.append(LEAF)
        right.append(LEAF)
        cover.append(float(rows.size))
        value.append(node_value(rows))
        if depth >= max_depth or rows.size < 2 * min_leaf:
            return node
        gain_fn = node_gains(rows)
        found = None if gain_fn is None else best_split(X, order, gain_fn, min_leaf)
        if found is None:
            return node
        feat, thr, _ = found
        feature[node], threshold[node] = feat, thr
        split = X[rows, feat] < thr
        left_order = right_order = None  # children at max_depth never read theirs
        if depth + 1 < max_depth:
            goes_left[rows] = split
            columns = order.T.ravel()  # column after column: a view of the column-major order
            is_left = goes_left[columns]
            left_order = columns.compress(is_left).reshape(X.shape[1], -1).T
            right_order = columns.compress(~is_left).reshape(X.shape[1], -1).T
        left[node] = grow(rows.compress(split), left_order, depth + 1)
        right[node] = grow(rows.compress(~split), right_order, depth + 1)
        return node

    grow(np.arange(X.shape[0]), order, 0)
    return DecisionTree(feature=np.array(feature, dtype=int),
                        threshold=np.array(threshold, dtype=float),
                        left=np.array(left, dtype=int),
                        right=np.array(right, dtype=int),
                        cover=np.array(cover, dtype=float),
                        value=np.vstack(value),
                        n_features=X.shape[1])


def train_tree(train, max_depth: int = 7, min_leaf: int = 1) -> DecisionTree:
    """Greedy CART fit by Gini impurity; leaves hold class-frequency vectors.

    The reported margins are the leaf probability vectors themselves.
    Splitting stops on purity, depth, or when no split with positive gain
    keeps ``min_leaf`` samples on both sides.
    """
    check_growth(max_depth, min_leaf)
    if train.n < 2 * min_leaf:
        raise DataError(f"need at least {2 * min_leaf} rows, got {train.n}")
    X, y, k = train.features, train.labels, train.k

    def node_value(rows):
        return np.bincount(y[rows], minlength=k) / rows.size

    def gini_gains(rows):
        if np.count_nonzero(np.bincount(y[rows])) == 1:
            return None

        def gain_fn(order):
            m = rows.size
            n_left = np.arange(1, m, dtype=float)[:, None]
            n_right = m - n_left
            sq_left = np.zeros((m - 1, order.shape[1]))
            sq_right = np.zeros((m - 1, order.shape[1]))
            for c in range(k):
                cum = np.cumsum(y[order] == c, axis=0).astype(float)
                sq_left += cum[:-1] ** 2
                sq_right += (cum[-1] - cum[:-1]) ** 2
            child = (n_left - sq_left / n_left + n_right - sq_right / n_right) / m
            parent = 1.0 - np.sum((np.bincount(y[rows], minlength=k) / m) ** 2)
            return parent - child

        return gain_fn

    return grow_tree(X, sort_columns(X), node_value, gini_gains, max_depth, min_leaf)
