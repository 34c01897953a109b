"""Independent reference implementations used as test oracles.

Everything here is deliberately slow and simple: exponential Shapley
enumeration for both expectation conventions, naive graph algorithms,
finite differences, and training loops that redo every pass at every node
or step. None of it shares code with the library paths it checks; the
training oracles build the library's model containers and draw from its
seeded streams, so that their results compare byte for byte.
"""

import math
from itertools import combinations, permutations

import numpy as np

from shappaths.errors import NumericalError
from shappaths.models.boosted import BoostedEnsemble
from shappaths.models.mlp import Mlp
from shappaths.models.tree import LEAF, DecisionTree
from shappaths.rng import generator


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


# ---------------------------------------------------------------------------
# Training oracles: growth that sorts every node afresh and masks every tie
# before its argmax, and SGD that rebuilds everything at every step

def reference_best_split(X, order, gain_fn, min_leaf):
    """(feature, threshold) of the first maximum gain in feature-major order,
    with every position between equal values and every position leaving
    fewer than ``min_leaf`` rows on a side masked first; or None."""
    m = order.shape[0]
    if m < 2:
        return None
    sorted_x = X[order, np.arange(X.shape[1])]
    distinct = sorted_x[:-1] != sorted_x[1:]
    if not distinct.any():
        return None
    gains = gain_fn(order)
    gains[~distinct] = -np.inf
    gains[: min_leaf - 1] = -np.inf
    gains[m - min_leaf:] = -np.inf
    feat, pos = divmod(int(np.argmax(gains.T)), m - 1)
    best = gains[pos, feat]
    if not np.isfinite(best) or best <= 0.0:
        return None
    return feat, float(0.5 * (sorted_x[pos, feat] + sorted_x[pos + 1, feat]))


def reference_grow(X, node_value, node_gains, max_depth, min_leaf) -> DecisionTree:
    """Preorder growth in which every node sorts its own rows (a stable
    argsort: ties in row order) and children are split by routing."""
    nodes = []  # [feature, threshold, left, right, cover, value]

    def grow(rows, depth):
        node = len(nodes)
        nodes.append([LEAF, np.nan, LEAF, LEAF, float(rows.size), node_value(rows)])
        if depth >= max_depth or rows.size < 2 * min_leaf:
            return node
        gain_fn = node_gains(rows)
        order = rows[np.argsort(X[rows], axis=0, kind="stable")]
        found = None if gain_fn is None else reference_best_split(X, order, gain_fn, min_leaf)
        if found is None:
            return node
        feat, thr = found
        goes_left = X[rows, feat] < thr
        nodes[node][:2] = feat, thr
        nodes[node][2] = grow(rows[goes_left], depth + 1)
        nodes[node][3] = grow(rows[~goes_left], depth + 1)
        return node

    grow(np.arange(X.shape[0]), 0)
    feature, threshold, left, right, cover, value = zip(*nodes)
    return DecisionTree(feature=np.array(feature, dtype=int),
                        threshold=np.array(threshold, dtype=float),
                        left=np.array(left, dtype=int), right=np.array(right, dtype=int),
                        cover=np.array(cover, dtype=float), value=np.vstack(value),
                        n_features=X.shape[1])


def reference_tree(X, y, k, max_depth, min_leaf) -> DecisionTree:
    """The Gini tree: class frequencies at every node, Gini decrease as gain."""

    def node_value(rows):
        return np.bincount(y[rows], minlength=k) / rows.size

    def node_gains(rows):
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

    return reference_grow(X, node_value, node_gains, max_depth, min_leaf)


def _reference_softmax(margins):
    shifted = margins - margins.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _reference_log_loss(margins, labels):
    shifted = margins - margins.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return float(-log_probs[np.arange(labels.size), labels].mean())


def _reference_score(g_sum, h_sum, lam):
    denom = h_sum + lam
    return np.divide(g_sum ** 2, denom, out=np.zeros_like(denom + 0.0), where=denom > 0)


def reference_boosted(X, y, k, n_rounds, learning_rate, lam, max_depth,
                      min_leaf) -> BoostedEnsemble:
    """Softmax boosting with Newton leaves; each tree's output on the
    training rows comes from routing them through it."""
    n = X.shape[0]
    base_score = np.log(np.maximum(np.bincount(y, minlength=k), 0.5) / n)
    margins = np.tile(base_score, (n, 1))
    onehot = np.eye(k)[y]
    rounds, losses = [], [_reference_log_loss(margins, y)]
    for r in range(n_rounds):
        probs = _reference_softmax(margins)
        round_trees = []
        for c in range(k):
            g = probs[:, c] - onehot[:, c]
            h = probs[:, c] * (1.0 - probs[:, c])

            def leaf_weight(rows, g=g, h=h):
                denom = h[rows].sum() + lam
                return np.array([-g[rows].sum() / denom if denom > 0 else 0.0])

            def gain_fn(order, g=g, h=h):
                g_cum = np.cumsum(g[order], axis=0)
                h_cum = np.cumsum(h[order], axis=0)
                g_left, g_total = g_cum[:-1], g_cum[-1]
                h_left, h_total = h_cum[:-1], h_cum[-1]
                parent = _reference_score(np.asarray(g_total[0]), np.asarray(h_total[0]), lam)
                return 0.5 * (_reference_score(g_left, h_left, lam)
                              + _reference_score(g_total - g_left, h_total - h_left, lam)
                              - parent)

            tree = reference_grow(X, leaf_weight, lambda rows, f=gain_fn: f, max_depth, min_leaf)
            round_trees.append(tree)
            margins[:, c] += learning_rate * tree.predict_margin(X)[:, 0]
        rounds.append(round_trees)
        loss = _reference_log_loss(margins, y)
        if not np.isfinite(loss):
            raise NumericalError(f"training loss became non-finite at round {r}")
        losses.append(loss)
    return BoostedEnsemble(base_score=base_score, rounds=rounds, learning_rate=learning_rate,
                           lam=lam, max_depth=max_depth, n_features=X.shape[1],
                           train_loss=losses)


def reference_mlp(X, y, layer_sizes, epochs, batch_size, learning_rate, seed) -> Mlp:
    """Minibatch SGD that gathers each batch, builds its one-hot labels,
    computes the loss and the softmax apart, and updates layer by layer."""
    rng = generator(seed, "train.mlp")
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        limit = np.sqrt(6.0 / fan_in)
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    k, n, last = layer_sizes[-1], X.shape[0], len(weights) - 1
    for epoch in range(epochs):
        perm = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, batch_size):
            batch = perm[start:start + batch_size]
            activations = [X[batch]]
            for i, (W, b) in enumerate(zip(weights, biases)):
                a = activations[-1] @ W + b
                activations.append(np.maximum(a, 0.0) if i < last else a)
            epoch_loss += _reference_log_loss(activations[-1], y[batch]) * batch.size
            delta = (_reference_softmax(activations[-1]) - np.eye(k)[y[batch]]) / batch.size
            grads = [None] * len(weights)
            for i in range(last, -1, -1):
                grads[i] = (activations[i].T @ delta, delta.sum(axis=0))
                if i > 0:
                    delta = (delta @ weights[i].T) * (activations[i] > 0.0)
            for W, b, (gw, gb) in zip(weights, biases, grads):
                W -= learning_rate * gw
                b -= learning_rate * gb
        if not np.isfinite(epoch_loss):
            raise NumericalError(f"training loss became non-finite at epoch {epoch}")
    return Mlp(tuple(layer_sizes), weights, biases)
