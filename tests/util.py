"""Shared helpers for building small fixtures."""

import os
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from shappaths.manifest import _replace
from shappaths.models.tree import LEAF, DecisionTree

# floats whose shortest repr is hard to round-trip: signed zeros, subnormals,
# the extremes, and 17-digit values
AWKWARD = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
           1e-300, -1e-300, 1.7976931348623157e308, -1.7976931348623157e308,
           0.1, 1 / 3, -2 / 3, 0.30000000000000004, 123456789.12345679, 9007199254740993.0]

# names that a CSV writer must quote: a delimiter, a quote and a line break,
# a lone carriage return included
QUOTED_FEATURES = ("a,b", 'say "hi"', "two\nlines", "lone\rreturn")
QUOTED_CLASSES = ('x,"y"', "multi\nline", "c")


def random_tree(rng, n_features=6, max_depth=4, value_dim=3,
                n_cover_samples=200, half_width=2.0) -> DecisionTree:
    """A random binary tree with covers from routing real rows through it.

    Guarantees every node has positive cover by resampling until the
    routing occupies the whole tree.
    """
    for _ in range(200):
        feature, threshold, left, right, value = [], [], [], [], []

        def grow(depth):
            node = len(feature)
            is_leaf = depth >= max_depth or (depth > 0 and rng.random() < 0.3)
            feature.append(LEAF)
            threshold.append(np.nan)
            left.append(LEAF)
            right.append(LEAF)
            value.append(rng.normal(size=value_dim))
            if not is_leaf:
                feature[node] = int(rng.integers(0, n_features))
                threshold[node] = float(rng.uniform(-half_width, half_width))
                left[node] = grow(depth + 1)
                right[node] = grow(depth + 1)
            return node

        grow(0)
        tree = DecisionTree(
            feature=np.array(feature), threshold=np.array(threshold),
            left=np.array(left), right=np.array(right),
            cover=np.zeros(len(feature)), value=np.vstack(value),
            n_features=n_features)
        X = rng.uniform(-half_width, half_width, size=(n_cover_samples, n_features))
        cover = np.zeros(len(feature))
        for x in X:
            node = 0
            cover[0] += 1
            while tree.feature[node] != LEAF:
                node = tree.left[node] if x[tree.feature[node]] < tree.threshold[node] \
                    else tree.right[node]
                cover[node] += 1
        if (cover > 0).all():
            tree.cover = cover
            return tree
    raise RuntimeError("could not draw a fully covered tree")


class LinearModel:
    """f(x) = x @ coef + intercept per class; margins only."""

    def __init__(self, coef, intercept=None):
        self.coef = np.atleast_2d(np.asarray(coef, dtype=float))  # (k, p)
        self.intercept = np.zeros(self.coef.shape[0]) if intercept is None \
            else np.asarray(intercept, dtype=float)
        self.n_features = self.coef.shape[1]
        self.n_classes = self.coef.shape[0]

    def predict_margin(self, X):
        return np.atleast_2d(X) @ self.coef.T + self.intercept

    def predict_class(self, X):
        return np.argmax(self.predict_margin(X), axis=1)


class ConstantModel:
    """Ignores every input."""

    def __init__(self, output):
        self.output = np.asarray(output, dtype=float)
        self.n_features = 0
        self.n_classes = self.output.shape[0]

    def predict_margin(self, X):
        return np.tile(self.output, (np.atleast_2d(X).shape[0], 1))

    def predict_class(self, X):
        return np.argmax(self.predict_margin(X), axis=1)


def to_file(path):
    """A writer for ``save_tensor``, ``write_csv`` or ``save_model`` that
    replaces the file ``path``, as a run's artifact writer does."""
    return partial(_replace, Path(path))


def assert_no_child_left():
    """No forked worker of this process is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
