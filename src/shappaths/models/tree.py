"""Binary decision trees stored as flat node arrays.

The same structure serves two roles: a standalone Gini-trained classifier
whose leaves hold class-frequency vectors, and the regression trees inside
the boosted ensemble whose leaves hold a single Newton weight. Every node
records its training-sample count (cover); the per-leaf path weights of
the SHAP computation are built from those covers.

Routing convention: a sample goes left iff x[feature] < threshold.
Thresholds are midpoints of the separating gap, so training data never
sits on a boundary.
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

    @property
    def max_depth(self) -> int:
        depth = np.zeros(self.n_nodes, dtype=int)
        for node in range(self.n_nodes):  # parents precede children
            if self.feature[node] != LEAF:
                depth[self.left[node]] = depth[node] + 1
                depth[self.right[node]] = depth[node] + 1
        return int(depth.max())

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


def best_split(X: np.ndarray, gain_fn, min_leaf: int) -> tuple[int, float, float] | None:
    """Best (feature, threshold, gain) over all midpoint splits, or None.

    ``gain_fn(order)`` receives the per-column sort order and returns the
    (m - 1, p) gains of splitting after each sorted position. Positions
    between equal values, or leaving fewer than ``min_leaf`` rows on a
    side, are masked here. Ties resolve to the lowest feature index, then
    the lowest threshold.
    """
    m = X.shape[0]
    if m < 2:
        return None
    order = np.argsort(X, axis=0, kind="stable")
    sorted_x = np.take_along_axis(X, order, axis=0)
    distinct = sorted_x[:-1] != sorted_x[1:]
    if not distinct.any():
        return None
    gains = gain_fn(order)
    gains[~distinct] = -np.inf
    gains[: min_leaf - 1] = -np.inf
    gains[m - min_leaf:] = -np.inf
    # the first maximum in feature-major order; a nan anywhere is found first
    feat, pos = divmod(int(np.argmax(gains.T)), m - 1)
    best = gains[pos, feat]
    if not np.isfinite(best) or best <= 0.0:
        return None
    threshold = 0.5 * (sorted_x[pos, feat] + sorted_x[pos + 1, feat])
    return feat, float(threshold), float(best)


def grow_tree(X: np.ndarray, node_value, node_gains, max_depth: int,
              min_leaf: int) -> DecisionTree:
    """Greedy preorder growth over the rows of ``X``.

    ``node_value(rows)`` is the value a node stores; ``node_gains(rows)`` is
    the ``gain_fn`` of :func:`best_split` for those rows, or None to keep
    the node a leaf. A node also stays a leaf at ``max_depth``, below
    ``2 * min_leaf`` rows, or when no split has positive gain.
    """
    if max_depth < 0 or min_leaf < 1:
        raise InvalidSpecError("max_depth must be >= 0 and min_leaf >= 1")
    feature, threshold, left, right, cover, value = [], [], [], [], [], []

    def grow(rows: np.ndarray, depth: int) -> int:
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
        found = None if gain_fn is None else best_split(X[rows], gain_fn, min_leaf)
        if found is None:
            return node
        feat, thr, _ = found
        feature[node], threshold[node] = feat, thr
        goes_left = X[rows, feat] < thr
        left[node] = grow(rows[goes_left], depth + 1)
        right[node] = grow(rows[~goes_left], depth + 1)
        return node

    grow(np.arange(X.shape[0]), 0)
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
    if train.n < 2 * min_leaf:
        raise DataError(f"need at least {2 * min_leaf} rows, got {train.n}")
    X, y, k = train.features, train.labels, train.k

    def node_value(rows):
        return np.bincount(y[rows], minlength=k) / rows.size

    def gini_gains(rows):
        yr = y[rows]
        if np.unique(yr).size == 1:
            return None

        def gain_fn(order):
            m = rows.size
            n_left = np.arange(1, m, dtype=float)[:, None]
            n_right = m - n_left
            sq_left = np.zeros((m - 1, order.shape[1]))
            sq_right = np.zeros((m - 1, order.shape[1]))
            for c in range(k):
                cum = np.cumsum(yr[order] == c, axis=0).astype(float)
                sq_left += cum[:-1] ** 2
                sq_right += (cum[-1] - cum[:-1]) ** 2
            child = (n_left - sq_left / n_left + n_right - sq_right / n_right) / m
            parent = 1.0 - np.sum((np.bincount(yr, minlength=k) / m) ** 2)
            return parent - child

        return gain_fn

    return grow_tree(X, node_value, gini_gains, max_depth, min_leaf)
