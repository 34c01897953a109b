"""Exact path-dependent TreeSHAP, vectorised over root-to-leaf paths.

The value function is the cover-weighted (path-dependent) expectation of
Lundberg et al. 2020, Alg. 2: a coalition is evaluated by walking the tree,
following the sample at nodes whose feature is in the coalition and
blending both children by cover elsewhere. A leaf's share depends only on
its own path, so, as in GPUTreeShap (Mitchell et al. 2022):

1. Decompose: each root-to-leaf path gets one element per distinct
   feature. Repeated splits merge: the zero fraction z is the product of
   the cover ratios and [lo, hi) the intersection of the split intervals,
   so a sample's one fraction is o = (lo <= x[f] < hi) (x == t goes right).
2. Pack: the paths behind one output (a tree, or one class of a boosted
   ensemble) fill padded (D, P) arrays with the root in row 0. The root
   and the padding are null players (z = 1, o = 1 on (-inf, inf)), so the
   result stays exact. Leaf values carry the learning rate.
3. Compute: a path's weights depend only on its z and on the sample's
   one fractions o in {0, 1}, so a path of depth D has at most 2 ** (D - 1)
   distinct weight columns (Fast TreeSHAP v2, Yang 2021). Where those
   patterns number no more than the rows of a call and of a chunk, each
   pack gets a table: the path-weight polynomial is extended once per
   depth on (P, patterns) arrays, each element unwound to read off its
   weight, and weight * (o - z) stored per pattern. Each chunk of rows
   then reads its (path, row) entries from the table at the pattern its
   lo <= x < hi tests spell. Deeper packs run the same extend and unwind
   on (P, rows) arrays, per chunk. Either way every element takes the
   same float operations, so the two give the same bytes. The sum of
   weight * (o - z) * leaf value per feature is a stable sort-and-reduceat
   scatter. Nothing sums across rows or calls BLAS, so
   the bytes depend neither on the chunking nor on the thread count, nor
   on the process: the rows are split into contiguous ranges, one per
   worker, through the package's one row-split helper
   (``shappaths.workers.fill_rows``, which Kernel SHAP uses too), and
   each worker writes every output of its rows into one shared anonymous
   mmap that becomes the tensor's values. The packs and their tables are
   built before the fork, so a boosted ensemble forks once per call, and
   a call whose rows fit one chunk never forks.

Base values are cover-weighted expectations plus the ensemble's base
score: the training-set mean margins, because covers are training counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..errors import DataError
from ..workers import fill_rows
from .tensor import ShapTensor

# The model layer is imported where a model is explained, not here, so that
# a command that only reads a saved tensor loads none of it.
if TYPE_CHECKING:
    from ..models.tree import DecisionTree

# rows per chunk make the (D, P, rows) weight array about this many floats,
# and bound a pattern table the same way; 1 MB keeps a chunk's arrays in
# cache and each process near its idle size
_CHUNK_FLOATS = 2 ** 17


@dataclass(frozen=True)
class _Packed:
    feature: np.ndarray  # (D, P) int; -1 for the root and the padding
    z: np.ndarray        # (D, P) zero fractions
    lo: np.ndarray       # (D, P) one fraction is lo <= x[feature] < hi
    hi: np.ndarray       # (D, P)
    width: int           # values per leaf: the outputs this pack fills
    groups: list         # per row d >= 1: (d, real paths sorted by feature,
                         # group starts, group features, their leaf values)


def _leaf_paths(tree: DecisionTree):
    """(leaf, {feature: (z, lo, hi)}) for every root-to-leaf path, in preorder."""
    from ..models.tree import LEAF

    stack = [(0, {})]
    while stack:
        node, elems = stack.pop()
        f = int(tree.feature[node])
        if f == LEAF:
            yield node, elems
            continue
        t = tree.threshold[node]
        for child, lo, hi in ((tree.right[node], t, np.inf), (tree.left[node], -np.inf, t)):
            z0, lo0, hi0 = elems.get(f, (1.0, -np.inf, np.inf))
            z1 = z0 * tree.cover[child] / tree.cover[node]
            stack.append((child, {**elems, f: (z1, max(lo0, lo), min(hi0, hi))}))


def _pack(trees, scale: float = 1.0) -> _Packed:
    paths, values = [], []
    for tree in trees:
        tree.validate()
        for leaf, elems in _leaf_paths(tree):
            paths.append(list(elems.items()))
            values.append(tree.value[leaf] * scale)
    shape = (1 + max(map(len, paths), default=0), len(paths))
    feature, z = np.full(shape, -1), np.ones(shape)
    lo, hi = np.full(shape, -np.inf), np.full(shape, np.inf)
    for j, elems in enumerate(paths):
        for d, (f, (zf, lf, hf)) in enumerate(elems, start=1):
            feature[d, j], z[d, j], lo[d, j], hi[d, j] = f, zf, lf, hf
    values, groups = np.array(values), []
    for d in range(1, shape[0]):
        real = np.flatnonzero(feature[d] >= 0)
        real = real[np.argsort(feature[d, real], kind="stable")]
        starts = np.flatnonzero(np.r_[True, np.diff(feature[d, real]) != 0])
        groups.append((d, real, starts, feature[d, real[starts]], values[real]))
    # no trees (an ensemble of no rounds): one output, as each class's trees fill
    return _Packed(feature, z, lo, hi, values.shape[1] if paths else 1, groups)


def _shap_packed(packs: list, X: np.ndarray, p: int) -> np.ndarray:
    """(n, p, outputs) attributions summed over each pack's paths; the packs
    fill consecutive outputs, ``width`` each."""
    if not np.isfinite(X).all():
        raise DataError("TreeSHAP needs finite feature values")
    n, outputs, work = X.shape[0], 0, []  # work: (pack, first output, rows per chunk, table)
    for packed in packs:
        if packed.groups:  # a pack with no split adds nothing
            step = max(1, _CHUNK_FLOATS // packed.z.size)
            table = _pattern_table(packed, min(n, step))
            work.append((packed, outputs, step, table))
        outputs += packed.width

    def fill(out: np.ndarray, lo: int, hi: int) -> None:
        for packed, c, step, table in work:
            for start in range(lo, hi, step):  # a call frees its chunk's arrays
                stop = min(start + step, hi)
                _shap_chunk(packed, table, X[start:stop], out[start:stop, :, c:c + packed.width])

    chunks = max((-(-n // step) for _, _, step, _ in work), default=0)
    return fill_rows("TreeSHAP worker", (n, p, outputs), chunks, fill)


def _contributions(packed: _Packed, o: np.ndarray) -> list:
    """weight * (o - z) of each group's paths, (paths, columns) per group, for
    the one fractions o (D, P, columns): one column per row or per pattern."""
    D = packed.z.shape[0]
    last = D - 1
    z = packed.z[:, :, None]
    # extend: w[i] weighs coalitions of i elements among those seen so far
    w = np.zeros(o.shape)
    w[0] = 1.0
    for l in range(1, D):
        for i in range(l - 1, -1, -1):
            w[i + 1] += o[l] * w[i] * (i + 1) / (l + 1)
            w[i] = z[l] * w[i] * (l - i) / (l + 1)
    # unwind each element; with o = 0 the sum factors out its z
    zero_sum = sum(w[j] / (last - j) for j in range(last))
    contributions = []
    for d, paths, *_ in packed.groups:
        rest, total = w[last], 0.0
        for j in range(last - 1, -1, -1):
            tmp = rest / (j + 1)
            total = total + tmp
            rest = w[j] - tmp * z[d] * (last - j)
        weight = np.where(o[d], total, zero_sum / z[d]) * (last + 1)
        contributions.append((weight * (o[d] - z[d]))[paths])
    return contributions


def _pattern_table(packed: _Packed, rows: int) -> list | None:
    """The contributions at every pattern of one fractions, or None where the
    2 ** (D - 1) patterns outnumber ``rows``. Column b sets o[d] to bit d - 1
    of b (o[0] = 1). With ``rows`` at most a chunk's, the table is no larger
    than one chunk's weight array."""
    D, P = packed.z.shape
    if 2 ** (D - 1) > rows:
        return None
    o = np.ones((D, P, 2 ** (D - 1)), dtype=bool)
    o[1:] = (np.arange(2 ** (D - 1)) >> np.arange(D - 1)[:, None, None]) & 1
    return _contributions(packed, o)


def _shap_chunk(packed: _Packed, table: list | None, X: np.ndarray, out: np.ndarray) -> None:
    """Add the attributions of the rows of X into out: read from the pattern
    table, or computed for the rows themselves where there is none."""
    D = packed.z.shape[0]
    xt = np.ascontiguousarray(X.T)
    o = np.empty((*packed.z.shape, X.shape[0]), dtype=bool)
    for d in range(D):
        xd = xt[packed.feature[d]]  # the root and padding read any column
        o[d] = (packed.lo[d, :, None] <= xd) & (xd < packed.hi[d, :, None])
    if table is None:
        contributions = _contributions(packed, o)
    else:  # bit d - 1 is o[d]; the root, always 1, takes no bit
        pattern = sum(o[d].astype(np.intp) << (d - 1) for d in range(1, D))
        # row r of a group's table starts at r * 2 ** (D - 1) in its flat order
        contributions = (t.take(pattern[paths] + np.arange(0, t.size, t.shape[1])[:, None])
                         for t, (_, paths, *_) in zip(table, packed.groups))
    for (_, _, starts, feats, leaf_value), contrib in zip(packed.groups, contributions):
        for c in range(out.shape[2]):
            sums = np.add.reduceat(contrib * leaf_value[:, c, None], starts, axis=0)
            out[:, feats, c] += sums.T


def shap_values_tree(tree: DecisionTree, X: np.ndarray,
                     n_features: int | None = None) -> np.ndarray:
    """(n, p, value_dim) attributions of a single tree."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    p = X.shape[1] if n_features is None else n_features
    return _shap_packed([_pack([tree])], X, p)


def tree_shap(model, X: np.ndarray, feature_names=None, class_names=None,
              sample_ids=None) -> ShapTensor:
    """Exact path-dependent SHAP tensor for a tree or boosted ensemble."""
    from ..models.io import kind_of
    from ..models.tree import DecisionTree

    X = np.atleast_2d(np.asarray(X, dtype=float))
    p = X.shape[1]
    is_tree = isinstance(model, DecisionTree)
    if not is_tree:
        from ..models.boosted import BoostedEnsemble  # a tree loads no boosting

        if not isinstance(model, BoostedEnsemble):
            raise DataError(f"tree_shap supports trees and boosted ensembles, "
                            f"not {type(model).__name__}")
    if model.n_features != p:
        raise DataError(f"model expects {model.n_features} features, data has {p}")
    if is_tree:
        values = shap_values_tree(model, X, n_features=p)
        base = model.expected_value()
    else:
        eta = model.learning_rate
        values = _shap_packed([_pack([trees[c] for trees in model.rounds], eta)
                               for c in range(model.n_classes)], X, p)
        base = model.base_score.copy()
        for round_trees in model.rounds:
            base += eta * np.array([tree.expected_value()[0] for tree in round_trees])
    return ShapTensor(values=values, base=base, sample_ids=sample_ids,
                      feature_names=feature_names, class_names=class_names,
                      method="tree_shap", model_kind=kind_of(model))
