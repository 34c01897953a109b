"""Property checks shared between the unit suite and the acceptance gate.

Each function returns quietly on success and raises AssertionError with a
diagnostic message on failure, so they can run standalone or under pytest.
"""

import numpy as np

from oracles import (dense_core_distances, dense_distances, dense_mutual_reachability,
                     finite_difference_grads, naive_mst_weight)
from shappaths import SimulationSpec, SplitSpec, hdbscan, simulate, train_boosted
from shappaths.data import split_indices
from shappaths.models.mlp import init_mlp, loss_and_grads
from shappaths.rng import generator
from shappaths.subgroup import (HdbscanParams, Points, core_distances, minimum_spanning_tree,
                                mutual_reachability, pairwise_distances, pca_fit,
                                pca_transform)


def check_pca_conservation(seed=0, n=80, d=7):
    rng = generator(seed, "props.pca")
    X = rng.normal(size=(n, d)) @ rng.normal(size=(d, d))
    model = pca_fit(X, r=d)
    gram = model.loadings.T @ model.loadings
    assert np.abs(gram - np.eye(d)).max() < 1e-10, "loadings are not orthonormal"
    centered = X - X.mean(axis=0)
    trace = (centered ** 2).sum() / (n - 1)
    assert abs(model.eigenvalues.sum() - trace) < 1e-10 * max(trace, 1.0), \
        f"eigenvalue sum {model.eigenvalues.sum()} != total variance {trace}"
    assert (model.eigenvalues >= -1e-10).all()
    # translation invariance of scores
    shifted = pca_fit(X + 3.7, r=2)
    s1 = pca_transform(pca_fit(X, r=2), X)
    s2 = pca_transform(shifted, X + 3.7)
    assert np.abs(s1 - s2).max() < 1e-8, "scores changed under translation"


def check_hdbscan_permutation_invariance(seed=0, n=120):
    rng = generator(seed, "props.hdbscan")
    centers = np.array([[0.0, 0.0], [8.0, 8.0], [-8.0, 8.0]])
    X = np.vstack([rng.normal(c, 0.6, size=(n // 3, 2)) for c in centers])
    params = HdbscanParams(min_cluster_size=10)
    base = hdbscan(X, params)
    perm = rng.permutation(X.shape[0])
    permuted = hdbscan(X[perm], params)
    back = np.full(X.shape[0], -1)
    back[perm] = permuted.labels
    assert _canonical(back).tolist() == _canonical(base.labels).tolist(), \
        "labels changed under row permutation"


def _canonical(labels):
    labels = np.asarray(labels)
    out = np.full(labels.shape, -1)
    next_id = 0
    for i, lab in enumerate(labels):
        if lab != -1 and out[i] == -1:
            out[labels == lab] = next_id
            next_id += 1
    return out


def check_mst_against_oracle(seed=0, n=60):
    rng = generator(seed, "props.mst")
    X = rng.normal(size=(n, 3))
    points = Points.of(X)
    mine = minimum_spanning_tree(points, core_distances(points, 5))[:, 2].sum()
    dist = dense_distances(X)
    reference = naive_mst_weight(dense_mutual_reachability(dist, dense_core_distances(dist, 5)))
    assert abs(mine - reference) < 1e-9 * max(1.0, reference), \
        f"MST weight {mine} != oracle {reference}"


def check_mutual_reachability_dominates(seed=0, n=50):
    rng = generator(seed, "props.mr")
    X = rng.normal(size=(n, 4))
    points = Points.of(X)
    core = core_distances(points, 6)
    dist = pairwise_distances(points, slice(0, n))
    mr = mutual_reachability(dist.copy(), core, core)
    off = ~np.eye(n, dtype=bool)
    assert (mr[off] >= dist[off] - 1e-12).all(), "mutual reachability below distance"


def check_mlp_gradients(seed=0, rel_tol=1e-4, n_points=10):
    rng = generator(seed, "props.grad")
    worst = 0.0
    for _ in range(n_points):
        model = init_mlp((4, 5, 3), rng)
        X = rng.normal(size=(8, 4))
        y = rng.integers(0, 3, size=8)
        _, grads_w, grads_b = loss_and_grads(model, X, y)
        fd = finite_difference_grads(lambda: loss_and_grads(model, X, y)[0],
                                     model.weights + model.biases)
        analytic = grads_w + grads_b
        for a, f in zip(analytic, fd):
            rel = np.abs(a - f) / np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-6)
            worst = max(worst, float(rel.max()))
    assert worst < rel_tol, f"gradient mismatch: max relative error {worst}"


def check_boosting_monotone(seed=0):
    ds = simulate(SimulationSpec(n_samples=400, n_features=6, seed=seed))
    train = ds.take(split_indices(ds.labels, SplitSpec(seed=seed))[0])
    model = train_boosted(train, n_rounds=40, learning_rate=0.3, max_depth=3)
    losses = np.array(model.train_loss)
    increases = np.diff(losses) > 1e-12
    assert not increases.any(), \
        f"log-loss increased at rounds {np.flatnonzero(increases).tolist()}"


ALL_CHECKS = [
    check_pca_conservation,
    check_hdbscan_permutation_invariance,
    check_mst_against_oracle,
    check_mutual_reachability_dominates,
    check_mlp_gradients,
    check_boosting_monotone,
]
