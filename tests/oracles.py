"""Independent reference implementations used as test oracles.

Everything here is deliberately slow and simple: exponential Shapley
enumeration for both expectation conventions, naive graph algorithms, and
finite differences. None of it shares code with the library paths it
checks.
"""

import math
from itertools import combinations, permutations

import numpy as np

from shappaths.models.tree import LEAF


# ---------------------------------------------------------------------------
# Shapley values, path-dependent convention (cover-weighted tree descent)

def tree_coalition_value(tree, x, coalition: frozenset) -> np.ndarray:
    """E[tree | features in the coalition fixed to x], by cover weighting."""

    def walk(node):
        if tree.feature[node] == LEAF:
            return tree.value[node]
        f = tree.feature[node]
        left, right = tree.left[node], tree.right[node]
        if f in coalition:
            child = left if x[f] < tree.threshold[node] else right
            return walk(child)
        wl = tree.cover[left] / tree.cover[node]
        wr = tree.cover[right] / tree.cover[node]
        return wl * walk(left) + wr * walk(right)

    return walk(0)


def shapley_weight(p: int, s: int) -> float:
    return math.factorial(s) * math.factorial(p - s - 1) / math.factorial(p)


def brute_shapley_tree(tree, x, n_features: int) -> np.ndarray:
    """Exact Shapley values of the path-dependent value function, by
    enumerating all 2^p coalitions."""
    p = n_features
    values = {}
    for size in range(p + 1):
        for combo in combinations(range(p), size):
            key = frozenset(combo)
            values[key] = tree_coalition_value(tree, x, key)
    dim = tree.value.shape[1]
    phi = np.zeros((p, dim))
    for j in range(p):
        others = [f for f in range(p) if f != j]
        for size in range(p):
            w = shapley_weight(p, size)
            for combo in combinations(others, size):
                s = frozenset(combo)
                phi[j] += w * (values[s | {j}] - values[s])
    return phi


# ---------------------------------------------------------------------------
# Shapley values, interventional convention (background replacement)

def interventional_value(model, x, background, coalition: frozenset) -> np.ndarray:
    mixed = np.array(background, dtype=float, copy=True)
    for f in coalition:
        mixed[:, f] = x[f]
    return model.predict_margin(mixed).mean(axis=0)


def brute_shapley_interventional(model, x, background) -> np.ndarray:
    """Mean marginal contribution over all p! orderings; memoized values."""
    p = x.shape[0]
    cache = {}

    def value(coalition: frozenset) -> np.ndarray:
        if coalition not in cache:
            cache[coalition] = interventional_value(model, x, background, coalition)
        return cache[coalition]

    k = model.predict_margin(x[None, :]).shape[1]
    phi = np.zeros((p, k))
    orderings = list(permutations(range(p)))
    for order in orderings:
        seen = frozenset()
        for j in order:
            phi[j] += value(seen | {j}) - value(seen)
            seen = seen | {j}
    return phi / len(orderings)


def blocked_coalition_values(model, x, coalitions, background, block_rows):
    """(n_coalitions, k) mean margins, one model call per block of whole
    coalitions with the rows coalition-major and the mean taken per block:
    the evaluation loop Kernel SHAP used before its blocks became
    background-major. Kept as the byte-for-byte reference for that change."""
    n_coal, p = coalitions.shape
    m = background.shape[0]
    per_block = max(1, block_rows // m)
    outputs = []
    for start in range(0, n_coal, per_block):
        z = coalitions[start:start + per_block]
        mixed = np.where(z[:, None, :] == 1.0, x[None, None, :], background[None, :, :])
        margins = model.predict_margin(mixed.reshape(-1, p))
        outputs.append(margins.reshape(z.shape[0], m, -1).mean(axis=1))
    return np.vstack(outputs)


# ---------------------------------------------------------------------------
# Graph oracles

def dense_distances(X: np.ndarray) -> np.ndarray:
    """The full n x n Euclidean distance matrix from one Gram product,
    sq[a] + sq[b] - 2 x_a.x_b, zero on the diagonal."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    sq = (X ** 2).sum(axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (X @ X.T)
    np.maximum(d2, 0.0, out=d2)
    d = np.sqrt(d2)
    np.fill_diagonal(d, 0.0)
    return d


def dense_core_distances(dist: np.ndarray, min_samples: int) -> np.ndarray:
    """Each row's min_samples-th smallest entry, itself included."""
    k = min(min_samples, dist.shape[0])
    return np.partition(dist, k - 1, axis=1)[:, k - 1]


def dense_mutual_reachability(dist: np.ndarray, core: np.ndarray) -> np.ndarray:
    mr = np.maximum(dist, np.maximum(core[:, None], core[None, :]))
    np.fill_diagonal(mr, 0.0)
    return mr


def dense_prim(weights: np.ndarray) -> np.ndarray:
    """Prim's algorithm on a dense symmetric matrix -> (n-1, 3) edge rows
    (a, b, weight) in insertion order; ties go to the lowest index, and a
    vertex's source changes only on a strictly smaller weight."""
    n = weights.shape[0]
    if n == 1:
        return np.zeros((0, 3))
    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True
    best = weights[0].copy()
    source = np.zeros(n, dtype=int)
    edges = np.empty((n - 1, 3))
    for i in range(n - 1):
        u = int(np.argmin(np.where(in_tree, np.inf, best)))
        edges[i] = (source[u], u, best[u])
        in_tree[u] = True
        better = ~in_tree & (weights[u] < best)
        best[better] = weights[u][better]
        source[better] = u
    return edges


def naive_mst_weight(weights: np.ndarray) -> float:
    """Kruskal over all pairs with a quadratic-scan union-find."""
    n = weights.shape[0]
    edges = sorted((weights[i, j], i, j) for i in range(n) for j in range(i + 1, n))
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    total, used = 0.0, 0
    for w, i, j in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            total += w
            used += 1
            if used == n - 1:
                break
    return total


def condensed_stability(tree, n: int) -> np.ndarray:
    """Cluster stabilities by per-point and per-cluster loops: each point adds
    its exit lambda minus its cluster's birth lambda, then each child cluster
    adds (its birth - its parent's birth) x its points, descendants included,
    to its parent."""
    stability = np.zeros(len(tree.parent))
    for pt in range(n):
        c = tree.member_cluster[pt]
        stability[c] += tree.member_lambda[pt] - tree.birth_lambda[c]
    for c in range(1, len(tree.parent)):
        inside, stack = 0, [c]
        while stack:
            k = stack.pop()
            inside += int((tree.member_cluster == k).sum())
            stack.extend(tree.children[k])
        up = tree.parent[c]
        stability[up] += (tree.birth_lambda[c] - tree.birth_lambda[up]) * inside
    return stability


def labels_by_walk(tree, n: int) -> tuple[list[int], list[float]]:
    """Labels from walking each point up to its nearest selected cluster,
    numbered by smallest member; and the stabilities of those clusters."""
    raw = []
    for pt in range(n):
        c = tree.member_cluster[pt]
        while c != -1 and not tree.selected[c]:
            c = tree.parent[c]
        raw.append(int(c))
    order = []
    for c in raw:
        if c != -1 and c not in order:
            order.append(c)
    return ([-1 if c == -1 else order.index(c) for c in raw],
            [float(tree.stability[c]) for c in order])


def single_linkage_two_clusters(X: np.ndarray) -> np.ndarray:
    """Agglomerative single linkage on Euclidean distances, stopped at two
    clusters; returns 0/1 membership."""
    n = X.shape[0]
    dist = np.sqrt(((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2))
    clusters = [{i} for i in range(n)]
    while len(clusters) > 2:
        best = (np.inf, None, None)
        for a in range(len(clusters)):
            for b in range(a + 1, len(clusters)):
                d = min(dist[i, j] for i in clusters[a] for j in clusters[b])
                if d < best[0]:
                    best = (d, a, b)
        _, a, b = best
        clusters[a] |= clusters[b]
        del clusters[b]
    labels = np.zeros(n, dtype=int)
    for i in clusters[1]:
        labels[i] = 1
    return labels


# ---------------------------------------------------------------------------
# Calculus oracles

def finite_difference_grads(loss_fn, arrays, h=1e-6):
    """Central finite differences of loss_fn() w.r.t. each array, in place."""
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            keep = arr[idx]
            arr[idx] = keep + h
            up = loss_fn()
            arr[idx] = keep - h
            down = loss_fn()
            arr[idx] = keep
            g[idx] = (up - down) / (2 * h)
            it.iternext()
        grads.append(g)
    return grads


def perceptron_separable(X: np.ndarray, y: np.ndarray, max_iters: int = 10_000) -> bool:
    """Whether a perceptron converges on binary labels in {0, 1}."""
    signs = np.where(y == 1, 1.0, -1.0)
    Xb = np.column_stack([X, np.ones(X.shape[0])])
    w = np.zeros(Xb.shape[1])
    for _ in range(max_iters):
        wrong = np.flatnonzero(signs * (Xb @ w) <= 0)
        if wrong.size == 0:
            return True
        w += signs[wrong[0]] * Xb[wrong[0]]
    return False
