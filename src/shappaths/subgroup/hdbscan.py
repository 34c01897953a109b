"""Density-based hierarchical clustering with noise (full pipeline).

Stages, all deterministic:

1. core distances: for each point, the ``min_samples``-th smallest
   distance to the data including the point itself (duplicates count, so
   exact duplicates can have core distance zero), from blocks of
   ``BLOCK_ROWS`` distance rows;
2. mutual reachability: max(core(a), core(b), dist(a, b));
3. minimum spanning tree of the mutual-reachability graph (Prim), each
   vertex's row of weights computed from the points when it joins the tree
   (McInnes & Healy 2017, ``mst_linkage_core_vector``);
4. single-linkage hierarchy from the sorted MST edges;
5. condensation: walking the hierarchy top-down, a merge is a true split
   only if both sides hold at least ``min_cluster_size`` points and the
   merge distance is positive; otherwise small sides fall out of the
   current cluster as individual points at that level (lambda = 1/distance,
   infinite for exact duplicates, which are never separated);
6. selection by excess of mass: a cluster is kept when its stability
   (sum over members of their exit lambda minus the cluster's birth
   lambda) is at least the total stability of its selected descendants.

The hierarchy root is not a candidate cluster, with one exception: when
condensation produces no splits at all and the dataset itself reaches
``min_cluster_size``, the root is returned as a single all-points cluster
(this is what makes a pure-duplicate dataset one cluster instead of
noise). Points belonging to no selected cluster get label -1. Cluster ids
are canonical: sorted by each cluster's smallest member index.

No stage holds an n x n array: the distances take O(n * BLOCK_ROWS)
memory and the tree O(n).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ..errors import DataError, InvalidSpecError
from .purity import ClusterLabeling


@dataclass(frozen=True)
class HdbscanParams:
    min_cluster_size: int = 15
    min_samples: int | None = None  # defaults to min_cluster_size

    def validate(self):
        if self.min_cluster_size < 2:
            raise InvalidSpecError("min_cluster_size must be at least 2")
        if self.min_samples is not None and self.min_samples < 1:
            raise InvalidSpecError("min_samples must be at least 1")

    @property
    def effective_min_samples(self) -> int:
        return self.min_cluster_size if self.min_samples is None else self.min_samples


@dataclass
class CondensedTree:
    """Cluster hierarchy after condensation, plus selection bookkeeping.

    Cluster 0 is the root. ``member_*`` rows say at which lambda each point
    left which cluster; ``child_*`` rows are the true splits.
    """

    parent: np.ndarray          # (n_clusters,) parent id, -1 for root
    birth_lambda: np.ndarray    # (n_clusters,)
    member_cluster: np.ndarray  # (n,) cluster each point fell out of
    member_lambda: np.ndarray   # (n,) lambda at which it fell out
    stability: np.ndarray       # (n_clusters,)
    selected: np.ndarray        # (n_clusters,) bool
    children: list[list[int]] = field(default_factory=list)


# Rows of distances held at once by core_distances: 32 rows at n = 20k are 5 MB.
BLOCK_ROWS = 32


class Points(NamedTuple):
    """The rows to cluster, with what every distance row is computed from."""

    X: np.ndarray   # (n, d)
    XT: np.ndarray  # X.T laid out row-major: at n = 1600, d = 30 a two-row
    #                 product against it takes ~10 us, against the X.T view
    #                 ~26 us (OpenBLAS 0.3.31, 2-vCPU Xeon)
    sq: np.ndarray  # (n,) squared row norms

    @classmethod
    def of(cls, X) -> Points:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return cls(X, np.ascontiguousarray(X.T), (X ** 2).sum(axis=1))


def pairwise_distances(points: Points, rows: slice) -> np.ndarray:
    """Euclidean distances from the points in ``rows`` to every point, zero
    at self.

    The Gram form sq[a] + sq[b] - 2 x_a.x_b is evaluated in the order of the
    full-matrix form, so a row is byte-equal to that row of the full
    distance matrix wherever the BLAS rounds the block's product as it
    rounds ``X @ X.T`` (with OpenBLAS 0.3.31 every row does at n = 1600,
    d = 30; at other shapes a few entries differ in the last bit).
    """
    X, XT, sq = points
    start, stop, _ = rows.indices(X.shape[0])
    if stop - start == 1:
        # numpy sends a one-row product to gemv, which rounds differently
        # from the gemm behind longer blocks: multiply the row twice, keep one
        gram = (X[rows].repeat(2, axis=0) @ XT)[:1]
    else:
        gram = X[rows] @ XT
    d2 = sq[rows, None] + sq
    gram *= 2.0
    d2 -= gram
    np.maximum(d2, 0.0, out=d2)
    np.sqrt(d2, out=d2)
    np.fill_diagonal(d2[:, rows], 0.0)
    return d2


def core_distances(points: Points, min_samples: int) -> np.ndarray:
    """Distance of each point to its ``min_samples``-th nearest point, itself
    included, from distance rows taken ``BLOCK_ROWS`` at a time."""
    n = points.X.shape[0]
    k = min(min_samples, n)
    core = np.empty(n)
    for start in range(0, n, BLOCK_ROWS):
        rows = slice(start, min(start + BLOCK_ROWS, n))
        dist = pairwise_distances(points, rows)
        dist.partition(k - 1, axis=1)
        core[rows] = dist[:, k - 1]
    return core


def mutual_reachability(dist: np.ndarray, row_core: np.ndarray,
                        core: np.ndarray) -> np.ndarray:
    """Turn distance rows into mutual-reachability rows, in place:
    max(row_core[a], core[b], dist[a, b]) for row a and column b."""
    np.maximum(dist, row_core[:, None], out=dist)
    np.maximum(dist, core, out=dist)
    return dist


def minimum_spanning_tree(points: Points, core: np.ndarray) -> np.ndarray:
    """Prim's algorithm on the mutual-reachability graph -> (n-1, 3) edge rows
    (a, b, weight), in insertion order.

    Each vertex's row of weights is computed when it joins the tree and
    dropped after the update, so memory is O(n). A vertex in the tree has
    an infinite ``reach`` (so no weight to it beats ``best``) and an
    infinite ``best`` (so ``argmin`` picks the lowest-index nearest vertex
    outside the tree, as it would over a masked copy of ``best``)."""
    n = points.X.shape[0]
    edges = np.empty((n - 1, 3))
    reach = core.copy()
    best = np.full(n, np.inf)
    source = np.zeros(n, dtype=int)
    better = np.empty(n, dtype=bool)
    u = 0
    for i in range(n - 1):
        reach[u] = best[u] = np.inf
        rows = slice(u, u + 1)
        weights = mutual_reachability(pairwise_distances(points, rows), core[rows], reach)[0]
        np.less(weights, best, out=better)
        np.copyto(best, weights, where=better)
        source[better] = u
        u = int(np.argmin(best))
        edges[i] = (source[u], u, best[u])
    return edges


def single_linkage(edges: np.ndarray, n: int) -> np.ndarray:
    """Merge rows (left id, right id, distance, size); new node n + i.

    Edges are processed in ascending weight (stable on ties). Component
    roots in the union structure are always dendrogram node ids."""
    order = np.argsort(edges[:, 2], kind="stable")
    parent = np.arange(2 * n - 1)

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    size = np.ones(2 * n - 1)
    merges = np.empty((len(order), 4))
    for i, e in enumerate(order):
        a, b, w = int(edges[e, 0]), int(edges[e, 1]), edges[e, 2]
        ra, rb = find(a), find(b)
        node = n + i
        merges[i] = (ra, rb, w, size[ra] + size[rb])
        size[node] = size[ra] + size[rb]
        parent[ra] = node
        parent[rb] = node
    return merges


def condense(merges: np.ndarray, n: int, min_cluster_size: int) -> CondensedTree:
    if n == 1:
        return CondensedTree(parent=np.array([-1]), birth_lambda=np.zeros(1),
                             member_cluster=np.zeros(1, dtype=int),
                             member_lambda=np.full(1, np.inf),
                             stability=np.zeros(1),
                             selected=np.zeros(1, dtype=bool), children=[[]])
    n_merges = merges.shape[0]
    left = merges[:, 0].astype(int)
    right = merges[:, 1].astype(int)
    dist = merges[:, 2]

    def subtree_size(node: int) -> int:
        return 1 if node < n else int(merges[node - n, 3])

    def leaves_under(node: int):
        stack = [node]
        while stack:
            v = stack.pop()
            if v < n:
                yield v
            else:
                stack.append(left[v - n])
                stack.append(right[v - n])

    parent = [-1]
    birth = [0.0]
    children: list[list[int]] = [[]]
    member_cluster = np.zeros(n, dtype=int)
    member_lambda = np.zeros(n)

    root = n + n_merges - 1
    stack = [(root, 0)]
    while stack:
        node, cluster = stack.pop()
        i = node - n  # stack entries are merge nodes: both push sites require size >= 2
        lam = np.inf if dist[i] <= 0.0 else 1.0 / dist[i]
        kids = (left[i], right[i])
        sizes = (subtree_size(kids[0]), subtree_size(kids[1]))
        if np.isinf(lam):
            # exact duplicates are inseparable: everything stays put
            for pt in leaves_under(node):
                member_cluster[pt] = cluster
                member_lambda[pt] = np.inf
            continue
        if min(sizes) >= min_cluster_size:
            for kid in kids:
                child_id = len(parent)
                parent.append(cluster)
                birth.append(lam)
                children.append([])
                children[cluster].append(child_id)
                stack.append((kid, child_id))
            continue
        for kid, sz in zip(kids, sizes):
            if sz >= min_cluster_size:
                stack.append((kid, cluster))
            else:
                for pt in leaves_under(kid):
                    member_cluster[pt] = cluster
                    member_lambda[pt] = lam

    n_clusters = len(parent)
    parent_arr = np.array(parent)
    birth_arr = np.array(birth)
    stability = np.zeros(n_clusters)
    # np.add.at adds in index order, so the sums round as per-point, then
    # per-cluster loops would
    np.add.at(stability, member_cluster, member_lambda - birth_arr[member_cluster])
    # points inside each cluster or a descendant: a child's id exceeds its
    # parent's, so summing children into parents in reverse id order is complete
    inside = np.bincount(member_cluster, minlength=n_clusters)
    for c in range(n_clusters - 1, 0, -1):
        inside[parent_arr[c]] += inside[c]
    up = parent_arr[1:]
    np.add.at(stability, up, (birth_arr[1:] - birth_arr[up]) * inside[1:])
    return CondensedTree(parent=parent_arr, birth_lambda=birth_arr,
                         member_cluster=member_cluster, member_lambda=member_lambda,
                         stability=stability,
                         selected=np.zeros(n_clusters, dtype=bool), children=children)


def select_excess_of_mass(tree: CondensedTree) -> None:
    """Mark selected clusters in place; the root is never a candidate here."""
    n_clusters = tree.parent.shape[0]
    subtree_stability = tree.stability.copy()
    tree.selected[:] = True
    tree.selected[0] = False
    for c in range(n_clusters - 1, 0, -1):
        if tree.children[c]:
            child_total = sum(subtree_stability[k] for k in tree.children[c])
            if tree.stability[c] >= child_total:
                subtree_stability[c] = tree.stability[c]
                _deselect_descendants(tree, c)
            else:
                subtree_stability[c] = child_total
                tree.selected[c] = False


def _deselect_descendants(tree: CondensedTree, cluster: int) -> None:
    stack = list(tree.children[cluster])
    while stack:
        c = stack.pop()
        tree.selected[c] = False
        stack.extend(tree.children[c])


def labels_from_tree(tree: CondensedTree, n: int) -> ClusterLabeling:
    # nearest selected ancestor-or-self of every cluster, parents first
    nearest = np.full(tree.parent.shape[0], -1)
    for c, up in enumerate(tree.parent):
        nearest[c] = c if tree.selected[c] else (-1 if up == -1 else nearest[up])
    raw = nearest[tree.member_cluster]

    # the distinct ids, ascending, and where each first occurs
    order = np.argsort(raw, kind="stable")
    ids = raw[order]
    first = np.empty(ids.shape, dtype=bool)
    first[:1] = True
    first[1:] = ids[1:] != ids[:-1]
    chosen, first_member = ids[first], order[first]
    keep = chosen != -1
    chosen, first_member = chosen[keep], first_member[keep]
    if not chosen.size:
        return ClusterLabeling(labels=np.full(n, -1), n_clusters=0,
                               stability=np.zeros(0))
    canonical = chosen[np.argsort(first_member)]
    remap = np.full(tree.parent.shape[0] + 1, -1)  # the last slot maps noise (-1)
    remap[canonical] = np.arange(canonical.size)
    return ClusterLabeling(labels=remap[raw], n_clusters=canonical.size,
                           stability=tree.stability[canonical])


def condensed_tree(X: np.ndarray, params: HdbscanParams) -> CondensedTree:
    """The condensed hierarchy with stabilities and selection applied."""
    params.validate()
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n = X.shape[0]
    if n < 1:
        raise DataError("need at least one point")
    if not np.isfinite(X).all():
        raise DataError("points must be finite")
    points = Points.of(X)
    core = core_distances(points, params.effective_min_samples)
    mst = minimum_spanning_tree(points, core)
    merges = single_linkage(mst, n)
    tree = condense(merges, n, params.min_cluster_size)
    select_excess_of_mass(tree)
    if not tree.children[0] and n >= params.min_cluster_size:
        # no split survived condensation: the whole dataset is one cluster
        tree.selected[0] = True
    return tree


def hdbscan(X: np.ndarray, params: HdbscanParams = HdbscanParams()) -> ClusterLabeling:
    """Cluster rows of X; label -1 marks noise."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n = X.shape[0]
    params.validate()
    if n < params.min_cluster_size:
        return ClusterLabeling(labels=np.full(n, -1), n_clusters=0,
                               stability=np.zeros(0))
    tree = condensed_tree(X, params)
    return labels_from_tree(tree, n)
