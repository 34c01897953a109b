"""Cluster labelings, their contingency against the truth, and the
clusters' feature means."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DataError


@dataclass(frozen=True)
class ClusterLabeling:
    labels: np.ndarray      # (n,) int, -1 = noise
    n_clusters: int
    stability: np.ndarray   # (n_clusters,) selected-cluster stabilities

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=int)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "stability", np.asarray(self.stability, dtype=float))
        if labels.size and (labels.min() < -1 or labels.max() >= self.n_clusters):
            raise DataError("labels must lie in {-1} U [0, n_clusters)")

    @property
    def n_noise(self) -> int:
        return int((self.labels == -1).sum())


@dataclass(frozen=True)
class PurityReport:
    contingency: np.ndarray   # (n_clusters, n_truth_classes) counts
    purity: np.ndarray        # (n_clusters,) majority fraction per cluster
    majority_class: np.ndarray  # (n_clusters,) argmax truth class
    noise_count: int

    @property
    def n_clusters(self) -> int:
        return self.contingency.shape[0]


def cluster_purity(labeling, truth) -> PurityReport:
    """Majority fraction per cluster against integer truth labels.

    Noise points (cluster label -1) are excluded from the table and
    reported separately.
    """
    labels = np.asarray(getattr(labeling, "labels", labeling), dtype=int)
    truth = np.asarray(truth, dtype=int)
    if labels.shape != truth.shape:
        raise DataError("labels and truth must have the same length")
    if truth.min() < 0:
        raise DataError("truth labels must be nonnegative integers")
    n_classes = int(truth.max()) + 1
    clustered = labels[labels >= 0]
    n_clusters = int(clustered.max()) + 1 if clustered.size else 0
    table = np.zeros((n_clusters, n_classes), dtype=int)
    for c, t in zip(labels, truth):
        if c >= 0:
            table[c, t] += 1
    sizes = table.sum(axis=1)
    if n_clusters and (sizes == 0).any():
        raise DataError("labeling references an empty cluster id")
    purity = table.max(axis=1) / np.maximum(sizes, 1)
    return PurityReport(contingency=table,
                        purity=purity,
                        majority_class=table.argmax(axis=1),
                        noise_count=int((labels == -1).sum()))


def cluster_means(X, labels) -> dict:
    """The global mean of each column of ``X`` and its mean in each cluster,
    with the cluster ids present and the count of noise rows (label -1),
    as JSON.

    Each mean is taken over the rows' ``[:, list(range(p))]`` copy, which is
    Fortran-ordered: numpy sums each of its columns pairwise, so a column's
    mean has the bits it has in ``X[rows][:, subset]`` for any subset.
    """
    labels = np.asarray(labels, dtype=int)
    columns = list(range(X.shape[1]))
    ids = sorted(set(labels.tolist()) - {-1})
    return {"global": X[:, columns].mean(axis=0).tolist(),
            "cluster_ids": ids,
            "clusters": [X[labels == c][:, columns].mean(axis=0).tolist() for c in ids],
            "noise": int((labels == -1).sum())}
