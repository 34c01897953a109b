"""Gradient-boosted trees with a softmax objective and Newton leaf weights.

Each round fits one regression tree per class to the first- and
second-order statistics of the cross-entropy loss at the current margins:
split gain is the usual regularized score difference and a leaf's weight
is the Newton step -G / (H + lambda). Margins are raw logits:

    margin(x) = base_score + learning_rate * sum_r tree_{r,c}(x)

with base_score the log class frequencies of the training set.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import DataError, InvalidSpecError, NumericalError
# best_split is not called here; it stays importable because the benchmark's
# tracer (perfbench/launch.py) wraps it by name on this module too
from .tree import DecisionTree, best_split, check_growth, grow_tree, sort_columns  # noqa: F401


@dataclass
class BoostedEnsemble:
    base_score: np.ndarray            # (k,)
    rounds: list[list[DecisionTree]]  # rounds[r][c], scalar-leaf trees
    learning_rate: float
    lam: float
    max_depth: int
    n_features: int
    train_loss: list[float] = field(default_factory=list)

    @property
    def n_classes(self) -> int:
        return self.base_score.shape[0]

    def predict_margin(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        margins = np.tile(self.base_score, (X.shape[0], 1))
        for round_trees in self.rounds:
            for c, tree in enumerate(round_trees):
                margins[:, c] += self.learning_rate * tree.predict_margin(X)[:, 0]
        return margins

    def predict_class(self, X: np.ndarray) -> np.ndarray:
        return np.argmax(self.predict_margin(X), axis=1)


def softmax(margins: np.ndarray) -> np.ndarray:
    shifted = margins - margins.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def log_loss(margins: np.ndarray, labels: np.ndarray) -> float:
    shifted = margins - margins.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return float(-log_probs[np.arange(labels.size), labels].mean())


def _score(g_sum, h_sum, lam):
    """g^2 / (h + lam), and 0 where the denominator vanishes: h >= 0 and
    lam >= 0, so a denominator is either 0 or positive, and g^2 / inf is 0."""
    denom = h_sum + lam
    return g_sum ** 2 / np.where(denom > 0, denom, np.inf)


def _fit_newton_tree(X, order, g, h, lam, max_depth,
                     min_leaf) -> tuple[DecisionTree, np.ndarray]:
    """The tree, and its output on each training row.

    grow_tree asks for node values in preorder, so the last weight written
    to a row is its leaf's: the rows need no second routing through the tree.
    """
    fitted = np.empty(X.shape[0])

    def leaf_weight(rows):
        denom = h[rows].sum() + lam
        weight = -g[rows].sum() / denom if denom > 0 else 0.0
        fitted[rows] = weight
        return np.array([weight])

    # g and h as the real and imaginary parts of one array: one gather and one
    # prefix sum give both, each part the same float additions in the same order
    gh = np.empty(g.shape, dtype=complex)
    gh.real, gh.imag = g, h

    def gain_fn(order):
        cum = np.cumsum(gh[order], axis=0)
        left, total = cum[:-1], cum[-1]
        right = total - left
        # column 0's sums, kept an array: a float64 scalar is squared by
        # another routine, which can round differently
        parent = _score(total[:1].real, total[:1].imag, lam)
        gains = _score(left.real, left.imag, lam)
        gains += _score(right.real, right.imag, lam)
        gains -= parent
        gains *= 0.5
        return gains

    tree = grow_tree(X, order, leaf_weight, lambda rows: gain_fn, max_depth, min_leaf)
    return tree, fitted


def train_boosted(train, n_rounds: int = 80, learning_rate: float = 0.3,
                  lam: float = 1.0, max_depth: int = 3,
                  min_leaf: int = 1) -> BoostedEnsemble:
    """Boost k trees per round against softmax cross-entropy.

    Deterministic: there is no subsampling, and split ties resolve to the
    lowest feature index, then the lowest threshold. ``X`` is sorted once
    per ensemble, and every tree grows from that order (XGBoost's
    pre-sorted column blocks). Raises NumericalError naming the round if
    the loss goes non-finite.
    """
    if train.k < 2:
        raise DataError("boosting needs at least two classes")
    if not (0.0 < learning_rate <= 1.0):
        raise InvalidSpecError("learning_rate must lie in (0, 1]")
    if lam < 0:
        raise InvalidSpecError("lam must be nonnegative")
    if n_rounds < 0:
        raise InvalidSpecError("n_rounds must be >= 0")
    check_growth(max_depth, min_leaf)
    X, y, k, n = train.features, train.labels, train.k, train.n
    counts = np.maximum(train.class_counts(), 0.5)  # finite base for absent classes
    base_score = np.log(counts / n)

    order = sort_columns(X)
    margins = np.tile(base_score, (n, 1))
    onehot = np.eye(k)[y]
    rounds: list[list[DecisionTree]] = []
    losses = [log_loss(margins, y)]
    for r in range(n_rounds):
        probs = softmax(margins)
        round_trees = []
        for c in range(k):
            g = probs[:, c] - onehot[:, c]
            h = probs[:, c] * (1.0 - probs[:, c])
            tree, fitted = _fit_newton_tree(X, order, g, h, lam, max_depth, min_leaf)
            round_trees.append(tree)
            margins[:, c] += learning_rate * fitted
        rounds.append(round_trees)
        loss = log_loss(margins, y)
        if not np.isfinite(loss):
            raise NumericalError(f"training loss became non-finite at round {r}")
        losses.append(loss)
    return BoostedEnsemble(base_score=base_score, rounds=rounds,
                           learning_rate=learning_rate, lam=lam,
                           max_depth=max_depth, n_features=train.p,
                           train_loss=losses)
