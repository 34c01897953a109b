import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import (condensed_stability, dense_core_distances, dense_distances,
                     dense_mutual_reachability, dense_prim, labels_by_walk,
                     single_linkage_two_clusters)
from props import (check_hdbscan_permutation_invariance, check_mst_against_oracle,
                   check_mutual_reachability_dominates)
from shappaths import HdbscanParams, cluster_purity, hdbscan
from shappaths.errors import DataError, InvalidSpecError
from shappaths.subgroup import (Points, condensed_tree, core_distances, minimum_spanning_tree,
                                pairwise_distances)
from shappaths.subgroup.hdbscan import BLOCK_ROWS, labels_from_tree
from shappaths.rng import generator


def test_params_validation():
    with pytest.raises(InvalidSpecError):
        HdbscanParams(min_cluster_size=1).validate()
    with pytest.raises(InvalidSpecError):
        HdbscanParams(min_samples=0).validate()
    assert HdbscanParams(min_cluster_size=8).effective_min_samples == 8
    assert HdbscanParams(min_cluster_size=8, min_samples=3).effective_min_samples == 3


def test_fewer_points_than_min_cluster_size_all_noise():
    rng = generator(0, "test.noise")
    X = rng.normal(size=(7, 3))
    result = hdbscan(X, HdbscanParams(min_cluster_size=10))
    assert (result.labels == -1).all()
    assert result.n_clusters == 0


def test_two_blobs_recovered_exactly():
    rng = generator(1, "test.blobs")
    sigma = 1.0
    a = rng.normal((0.0, 0.0), sigma, size=(100, 2))
    b = rng.normal((10.0 * sigma, 0.0), sigma, size=(100, 2))
    X = np.vstack([a, b])
    truth = np.repeat([0, 1], 100)
    result = hdbscan(X, HdbscanParams(min_cluster_size=10))
    assert result.n_clusters == 2
    # oracle: single linkage on exact distances, cut into two clusters
    oracle = single_linkage_two_clusters(X)
    assigned = result.labels != -1
    # align oracle labels with hdbscan labels via the first assigned point
    flip = oracle[assigned][0] != result.labels[assigned][0]
    aligned = 1 - oracle if flip else oracle
    assert (result.labels[assigned] == aligned[assigned]).all()
    assert (result.labels == -1).mean() <= 0.05
    # no points cross blobs
    for c in range(2):
        members = result.labels == c
        assert len(set(truth[members])) == 1


def test_all_identical_points_one_cluster():
    X = np.tile([1.5, -2.0, 0.25], (40, 1))
    result = hdbscan(X, HdbscanParams(min_cluster_size=15))
    assert result.n_clusters == 1
    assert (result.labels == 0).all()


def test_duplicates_within_structured_data():
    rng = generator(2, "test.dups")
    blob = rng.normal((0, 0), 0.5, size=(60, 2))
    dups = np.tile([20.0, 20.0], (30, 1))
    X = np.vstack([blob, dups])
    result = hdbscan(X, HdbscanParams(min_cluster_size=10))
    assert result.n_clusters == 2
    dup_labels = set(result.labels[60:])
    assert len(dup_labels) == 1 and -1 not in dup_labels


def test_core_distance_counts_self_and_duplicates():
    X = np.array([[0.0], [0.0], [0.0], [10.0]])
    core = core_distances(Points.of(X), 3)
    assert core[0] == 0.0  # three copies at zero: the 3rd nearest incl. self
    assert core[3] == 10.0


def _grid(seed: int, n: int, d: int) -> np.ndarray:
    """Points with small integer coordinates: every product and sum in the
    Gram form is exact, so no BLAS rounding can tell a row block from the
    full matrix, and equal distances (ties) and duplicates are common."""
    return generator(seed, "test.grid").integers(-3, 4, size=(n, d)).astype(float)


@pytest.mark.parametrize("n, d, min_samples", [
    (1, 3, 5), (2, 3, 1), (3, 2, 2),
    (BLOCK_ROWS + 1, 3, 5),   # a last block of one row
    (200, 2, 7),              # 49 grid cells: exact duplicates throughout
    (10, 3, 25),              # min_samples > n
])
def test_core_distances_and_mst_equal_the_dense_bytes(n, d, min_samples):
    X = _grid(n, n, d)
    points = Points.of(X)
    dist = dense_distances(X)
    core = core_distances(points, min_samples)
    assert core.tobytes() == dense_core_distances(dist, min_samples).tobytes()
    edges = minimum_spanning_tree(points, core)
    assert edges.tobytes() == dense_prim(dense_mutual_reachability(dist, core)).tobytes()


@pytest.mark.parametrize("n", [2, 3, BLOCK_ROWS + 1])
def test_one_row_distances_equal_the_dense_row(n):
    X = _grid(n + 1, n, 3)
    points, dist = Points.of(X), dense_distances(X)
    for i in range(n):  # the last row included
        assert pairwise_distances(points, slice(i, i + 1)).tobytes() == dist[i:i + 1].tobytes()


def test_one_row_distances_are_rounded_as_in_a_block():
    """numpy computes a one-row product with gemv, which rounds differently
    from gemm; a one-row request must give the bytes of the same row inside
    a two-row block (Gaussian points, where rounding shows)."""
    n = 300
    points = Points.of(generator(6, "test.one_row").normal(size=(n, 30)))
    for i in range(n):
        one = pairwise_distances(points, slice(i, i + 1))[0]
        two = pairwise_distances(points, slice(i, i + 2))[0] if i < n - 1 \
            else pairwise_distances(points, slice(n - 2, n))[1]
        assert one.tobytes() == two.tobytes(), f"row {i}"
        assert one[i] == 0.0
    # sq[i] + sq[i] - 2 x_i.x_i need not round to 0: self distances are set
    assert (core_distances(points, 1) == 0.0).all()


def test_stabilities_and_labels_equal_the_loop_oracles():
    rng = generator(7, "test.nested")
    centers = np.array([[0, 0], [3, 0], [0, 20], [3, 20], [20, 10]], dtype=float)
    X = np.vstack([rng.normal(c, 0.6, size=(30, 2)) for c in centers])
    X = np.vstack([X, np.tile([10.0, 10.0], (6, 1))])  # duplicates: infinite lambda
    for min_cluster_size in (4, 8, 20):
        tree = condensed_tree(X, HdbscanParams(min_cluster_size=min_cluster_size))
        assert len(tree.parent) > 3
        assert tree.stability.tobytes() == condensed_stability(tree, len(X)).tobytes()
        labeling = labels_from_tree(tree, len(X))
        labels, stability = labels_by_walk(tree, len(X))
        assert labeling.labels.tolist() == labels
        assert labeling.stability.tobytes() == np.array(stability).tobytes()


def test_non_finite_points_rejected():
    X = np.zeros((20, 2))
    X[3, 1] = np.nan
    with pytest.raises(DataError, match="finite"):
        hdbscan(X, HdbscanParams(min_cluster_size=5))


def test_memory_is_linear_in_n():
    """Clustering 5000 points of 30 dimensions stays far below one dense
    5000 x 5000 float64 matrix (200 MB)."""
    src = str(Path(sys.modules["shappaths"].__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import resource, numpy as np; from shappaths import HdbscanParams, hdbscan; "
            "X = np.random.default_rng(0).normal(size=(5000, 30)); "
            "hdbscan(X, HdbscanParams(min_cluster_size=15)); "
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=300)
    peak_mb = int(out.stdout) / 1024  # ru_maxrss is in KiB on Linux
    assert peak_mb < 150, f"peak RSS {peak_mb:.0f} MB"


def test_permutation_invariance_and_graph_oracles():
    check_hdbscan_permutation_invariance(seed=5)
    check_mst_against_oracle(seed=5, n=80)
    check_mutual_reachability_dominates(seed=5)


def test_stability_selection_optimality():
    rng = generator(3, "test.stab")
    centers = np.array([[0, 0], [12, 0], [0, 12], [12, 12]], dtype=float)
    X = np.vstack([rng.normal(c, 0.8, size=(40, 2)) for c in centers])
    tree = condensed_tree(X, HdbscanParams(min_cluster_size=10))
    for c in np.flatnonzero(tree.selected):
        # a selected cluster's stability beats its children's subtree total
        def subtree_total(cluster):
            if not tree.children[cluster]:
                return tree.stability[cluster]
            return sum(subtree_total(k) for k in tree.children[cluster])

        if tree.children[c]:
            child_sum = sum(subtree_total(k) for k in tree.children[c])
            assert tree.stability[c] >= child_sum - 1e-9


def test_labels_canonical_by_first_member():
    rng = generator(4, "test.canon")
    a = rng.normal((0, 0), 0.5, size=(30, 2))
    b = rng.normal((15, 0), 0.5, size=(30, 2))
    X = np.vstack([a, b])
    result = hdbscan(X, HdbscanParams(min_cluster_size=10))
    assert result.n_clusters == 2
    first_of = [np.flatnonzero(result.labels == c)[0] for c in range(2)]
    assert first_of[0] < first_of[1]


def test_single_point():
    result = hdbscan(np.zeros((1, 3)), HdbscanParams(min_cluster_size=2))
    assert result.labels.tolist() == [-1]


# ---------------------------------------------------------------------------
# purity

def test_purity_perfect():
    labels = np.array([0, 0, 1, 1, -1])
    truth = np.array([2, 2, 0, 0, 1])
    report = cluster_purity(labels, truth)
    assert np.allclose(report.purity, 1.0)
    assert report.noise_count == 1
    assert report.majority_class.tolist() == [2, 0]


def test_purity_single_cluster_over_balanced_truth():
    labels = np.zeros(10, dtype=int)
    truth = np.array([0, 1] * 5)
    report = cluster_purity(labels, truth)
    assert report.purity[0] == 0.5


def test_purity_hand_built_table():
    labels = np.array([0, 0, 0, 1, 1, 2, 2, 2, 2, -1])
    truth = np.array([0, 0, 1, 1, 1, 2, 2, 0, 2, 1])
    report = cluster_purity(labels, truth)
    assert report.contingency.tolist() == [[2, 1, 0], [0, 2, 0], [1, 0, 3]]
    assert np.allclose(report.purity, [2 / 3, 1.0, 3 / 4])
    assert report.noise_count == 1
