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
from .tree import DecisionTree, best_split, grow_tree  # noqa: F401


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

    @property
    def n_rounds(self) -> int:
        return len(self.rounds)

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
    """g^2 / (h + lam), defined as 0 where the denominator vanishes."""
    denom = h_sum + lam
    return np.divide(g_sum ** 2, denom, out=np.zeros_like(denom + 0.0),
                     where=denom > 0)


def _fit_newton_tree(X, g, h, lam, max_depth, min_leaf) -> DecisionTree:
    def leaf_weight(rows):
        denom = h[rows].sum() + lam
        return np.array([-g[rows].sum() / denom if denom > 0 else 0.0])

    def newton_gains(rows):
        gr, hr = g[rows], h[rows]

        def gain_fn(order):
            g_cum = np.cumsum(gr[order], axis=0)
            h_cum = np.cumsum(hr[order], axis=0)
            g_left, g_total = g_cum[:-1], g_cum[-1]
            h_left, h_total = h_cum[:-1], h_cum[-1]
            parent = _score(np.asarray(g_total[0]), np.asarray(h_total[0]), lam)
            return 0.5 * (_score(g_left, h_left, lam)
                          + _score(g_total - g_left, h_total - h_left, lam) - parent)

        return gain_fn

    return grow_tree(X, leaf_weight, newton_gains, max_depth, min_leaf)


def train_boosted(train, n_rounds: int = 80, learning_rate: float = 0.3,
                  lam: float = 1.0, max_depth: int = 3,
                  min_leaf: int = 1) -> BoostedEnsemble:
    """Boost k trees per round against softmax cross-entropy.

    Deterministic: there is no subsampling, and split ties resolve to the
    lowest feature index, then the lowest threshold. Raises NumericalError
    naming the round if the loss goes non-finite.
    """
    if train.k < 2:
        raise DataError("boosting needs at least two classes")
    if not (0.0 < learning_rate <= 1.0):
        raise InvalidSpecError("learning_rate must lie in (0, 1]")
    if lam < 0:
        raise InvalidSpecError("lam must be nonnegative")
    X, y, k, n = train.features, train.labels, train.k, train.n
    counts = np.maximum(train.class_counts(), 0.5)  # finite base for absent classes
    base_score = np.log(counts / n)

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
            tree = _fit_newton_tree(X, g, h, lam, max_depth, min_leaf)
            round_trees.append(tree)
            margins[:, c] += learning_rate * tree.predict_margin(X)[:, 0]
        rounds.append(round_trees)
        loss = log_loss(margins, y)
        if not np.isfinite(loss):
            raise NumericalError(f"training loss became non-finite at round {r}")
        losses.append(loss)
    return BoostedEnsemble(base_score=base_score, rounds=rounds,
                           learning_rate=learning_rate, lam=lam,
                           max_depth=max_depth, n_features=train.p,
                           train_loss=losses)
