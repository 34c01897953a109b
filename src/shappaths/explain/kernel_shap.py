"""Model-agnostic Shapley estimation by kernel-weighted least squares.

A coalition z in {0,1}^p is valued interventionally: masked-off features
are replaced by background rows and the model outputs averaged over the
background. The attributions solve the Shapley-kernel-weighted regression
over sampled coalitions subject to two exact constraints, eliminated by
substitution: the intercept equals the empty-coalition value (the mean
background margin, stored as the tensor's base) and the attributions sum
to margin(x) - base. When the budget covers all 2^p - 2 proper coalitions
they are enumerated and the result is the exact interventional Shapley
value.

One generator makes every coalition set, exact or sampled: complete size
strata are enumerated from the outside in while the budget allows, and
the remainder is sampled by kernel weight, each coalition paired with
its complement. The normal matrix of the regression depends only on the
coalitions and weights, so it is built once and solved for every sample
and class in one call.

A sample's coalition values come from blocks of whole coalitions, each
walked in chunks of background rows, background-major within a chunk; a
coalition's sum over the background is added up chunk by chunk. The
boolean coalition mask is built once per call, before any worker forks,
and every model masks a chunk by broadcasting its background rows over
the block's coalitions. Masking is affine in the input (a masked row is
z*x + (1-z)*bg), so an MLP's first layer splits into a shared term s,
the masked-off background times the layer, built once per chunk for a
group of samples, and the sample's own term o, its kept features times
the layer plus the bias, which is constant over the background. The two
are never added: ReLU(s + o) = max(s, -o) + o, so the first hidden
activation is one maximum against -o, each further hidden layer a
product and a maximum against its offset c = c_prev W + b, carried per
sample and coalition with no background axis, and the last offset is
added to the background means just before the last layer. An MLP's
chunks are a few background rows under many coalitions, so each of those
passes runs over long rows. Every other model has identity ends around
predict_margin and one whole-background chunk per block: per sample and
block one np.where, the model call and one sum over the background, with
values byte-identical to a coalition-major loop that took a mean per
block; the MLP's differ from it by rounding only.

The right-hand side of that solve is one column block per sample, filled
by the same per-sample code through the package's one row-split helper
(``shappaths.workers.fill_rows``): the parent fills the first contiguous
chunk of samples and forked children the others, each writing its
samples' blocks into one shared anonymous mmap. The worker count is the CPUs
this process may run on, capped at ``workers.MAX_WORKERS`` and at n, and
1 where fork or CPU affinity is unavailable. It changes which process
computes a column, never how, so the values are byte-identical for any
worker count and the count is not configurable.
"""

from __future__ import annotations

import logging
import math
from itertools import combinations

import numpy as np

from ..errors import DataError, InvalidSpecError, NumericalError
from ..rng import generator
from ..workers import fill_rows
from .tensor import Background, ShapTensor

log = logging.getLogger(__name__)

DEFAULT_COALITIONS = 2048
DEFAULT_BACKGROUND = 100
# masked rows per model call or MLP chunk (whole coalitions), background-major:
# row i * nz + j is background row i under the block's coalition j. Blocks this
# small keep the activations in cache and each matrix product below
# OpenBLAS's multithreading size, so each worker's model evaluation runs on
# its own core without page faults or BLAS threads competing with the others.
_BLOCK_ROWS = 512
# background rows per chunk of an MLP's block, whose _BLOCK_ROWS // _CHUNK
# coalitions make each element-wise pass run over long rows of them
_CHUNK = 10
# coalition values one process holds at once (384 KB): the samples that share
# each chunk's masked-off background times an MLP's first layer number
# _GROUP_VALUES // (coalitions * classes)
_GROUP_VALUES = 3 << 14
# samples whose blocks go through the model in one call
_STACK = 4
# model evaluations one explanation may make: (coalitions + 1) * background * rows
MAX_MODEL_EVALS = 50_000_000


def kernel_weight(p: int, size: int) -> float:
    """Shapley kernel weight of a proper coalition of the given size."""
    return (p - 1) / (math.comb(p, size) * size * (p - size))


def _enumerate_size(p: int, size: int) -> np.ndarray:
    """All coalitions of one size as a (count, p) 0/1 matrix, lexicographic."""
    rows = np.zeros((math.comb(p, size), p))
    for i, combo in enumerate(combinations(range(p), size)):
        rows[i, list(combo)] = 1.0
    return rows


def sample_coalitions(p: int, budget: int, rng: np.random.Generator):
    """(coalitions, weights): enumerated strata get exact kernel weights,
    the sampled remainder splits the leftover kernel mass evenly. A budget
    of 2^p - 2 or more enumerates every proper coalition and draws nothing."""
    blocks, weights = [], []
    remaining = budget
    leftover = list(range(1, p))
    for s in range(1, p // 2 + 1):
        pair = (s,) if 2 * s == p else (s, p - s)
        count = sum(math.comb(p, t) for t in pair)
        if count > remaining:
            break
        for t in pair:
            block = _enumerate_size(p, t)
            blocks.append(block)
            weights.append(np.full(block.shape[0], kernel_weight(p, t)))
            leftover.remove(t)
        remaining -= count

    if leftover and remaining >= 2:
        mass = np.array([kernel_weight(p, s) * math.comb(p, s) for s in leftover])
        probs = mass / mass.sum()
        drawn = []
        for _ in range(remaining // 2):
            s = int(rng.choice(leftover, p=probs))
            members = rng.choice(p, size=s, replace=False)
            z = np.zeros(p)
            z[members] = 1.0
            drawn.append(z)
            drawn.append(1.0 - z)
        # the distinct draws in lexicographic order (column 0 first) and
        # their counts, as np.unique(axis=0) gives them without loading numpy.ma
        drawn = np.array(drawn)
        drawn = drawn[np.lexsort(drawn.T[::-1])]
        first = np.flatnonzero(np.concatenate(([True], (drawn[1:] != drawn[:-1]).any(axis=1))))
        counts = np.diff(np.append(first, len(drawn)))
        blocks.append(drawn[first])
        weights.append(mass.sum() * counts / counts.sum())
    if not blocks:
        raise InvalidSpecError(f"coalition budget {budget} cannot cover the smallest "
                               f"stratum pair for p={p} (needs {2 * p} rows)")
    return np.vstack(blocks), np.concatenate(weights)


class _CoalitionValues:
    """The mean margins of samples under every coalition (see the module
    docstring): an MLP's from its layers, with each sample's own
    first-layer term carried as an offset; identity ends around
    ``predict_margin`` for every other model.

    Each block takes the next ``width`` coalitions and walks the background
    in chunks, row i * nz + j of a chunk being its background row i under
    the block's coalition j, so a coalition's mean is a sum over the outer
    axis, added up chunk by chunk. An MLP's chunks are _CHUNK rows, every
    other model's the whole background. A call fills the values of a group
    of samples block by block, _STACK samples at a time. Each sample's
    blocks are multiplied on their own (numpy's matmul makes one product
    per slice of a stack), so its values do not depend on which samples
    share its group or its stack.
    """

    def __init__(self, model, coalitions: np.ndarray, background: np.ndarray):
        from ..models.mlp import Mlp  # here, so loading this module loads no models layer

        m = background.shape[0]
        if isinstance(model, Mlp) and len(model.weights) > 1:
            self.layers = layers = list(zip(model.weights, model.biases))
            self.chunk = min(m, _CHUNK)
        else:  # a network with no hidden layer is affine, so predict_margin serves
            self.layers = layers = None
            self.predict, self.chunk = model.predict_margin, m
        self.width = min(max(1, _BLOCK_ROWS // self.chunk), coalitions.shape[0])
        self.mask = coalitions == 1.0
        self.background = background

    def __call__(self, xs: np.ndarray, out: np.ndarray) -> None:
        """Fill out[s] (n_coalitions, k) with the mean margins of xs[s]."""
        chunk, layers, width = self.chunk, self.layers, self.width
        m, p = self.background.shape
        n = len(xs)
        # each sample tiled like the mask, so np.where runs whole blocks
        xt = np.repeat(xs[:, None, :], width, axis=1)
        if layers:
            # the background sums of the last hidden layer, and the stacks'
            # first hidden activations, refilled per chunk
            sums = np.empty((n, width, layers[-1][0].shape[0]))
            buf = np.empty(_STACK * chunk * width * layers[0][0].shape[1])
        for start in range(0, self.mask.shape[0], width):
            z = self.mask[start:start + width]
            nz = z.shape[0]
            v = out[:n, start:start + nz]
            if layers:
                # ReLU(s + c) = max(s, -c) + c: each hidden layer's
                # activations are kept less their offset c, which the
                # sample's kept features and the biases give per coalition
                c, negs = np.where(z, xt[:, :nz], 0.0), []
                for W, b in layers[:-1]:
                    c = c @ W
                    c += b
                    negs.append(np.negative(c))
                acc = sums[:, :nz]
            else:
                acc = v
            for lo in range(0, m, chunk):
                rows = min(chunk, m - lo)
                bg = self.background[lo:lo + rows, None, :]
                if layers:
                    shared = np.where(z, 0.0, bg)
                    shared = (shared.reshape(-1, p) @ layers[0][0]).reshape(rows, nz, -1)
                for s in range(0, n, _STACK):
                    ns = min(_STACK, n - s)
                    if layers:
                        acts = np.maximum(shared, negs[0][s:s + ns, None],
                                          out=buf[:ns * shared.size].reshape(ns, *shared.shape))
                        for (W, _), neg in zip(layers[1:-1], negs[1:]):
                            acts = (acts.reshape(ns, rows * nz, -1) @ W).reshape(ns, rows, nz, -1)
                            np.maximum(acts, neg[s:s + ns, None], out=acts)
                    else:
                        masked = np.where(z, xt[s:s + ns, None, :nz], bg).reshape(ns, -1, p)
                        acts = np.stack([self.predict(r) for r in masked])
                    acts = acts.reshape(ns, rows, nz, -1)
                    if lo:
                        acc[s:s + ns] += np.add.reduce(acts, axis=1)
                    else:
                        np.add.reduce(acts, axis=1, out=acc[s:s + ns])
            acc /= m
            if layers:
                acc -= negs[-1]
                np.add(acc @ layers[-1][0], layers[-1][1], out=v)


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a^-1 b, with a small ridge when a is singular."""
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        scale = float(np.trace(a)) / max(a.shape[0], 1)
        log.warning("singular kernel regression; adding ridge %.1e", 1e-6 * scale)
        try:
            return np.linalg.solve(a + 1e-6 * scale * np.eye(a.shape[0]), b)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"kernel regression is singular: {exc}") from exc


def kernel_shap(model, X: np.ndarray, background: Background,
                n_coalitions: int = DEFAULT_COALITIONS, seed: int = 0,
                feature_names=None, class_names=None,
                sample_ids=None) -> ShapTensor:
    """Sampled (or fully enumerated) Kernel SHAP tensor for any margin model.

    The base values are the mean background margins -- the exact quantity
    the attributions sum against. Deterministic given the seed and budget.
    """
    from ..models.io import kind_of

    X = np.atleast_2d(np.asarray(X, dtype=float))
    n, p = X.shape
    if p < 1:
        raise DataError("need at least one feature")
    if background.data.shape[1] != p:
        raise DataError(f"background has {background.data.shape[1]} features, data has {p}")
    exact = 2 ** p - 2 <= n_coalitions
    coalitions, weights = (sample_coalitions(p, n_coalitions, generator(seed, "shap.kernel"))
                           if p > 1 else (np.zeros((0, p)), np.zeros(0)))
    evals = (coalitions.shape[0] + 1) * background.m * n
    if evals > MAX_MODEL_EVALS:
        raise InvalidSpecError(
            f"kernel explanation needs {evals} model evaluations, over the "
            f"budget of {MAX_MODEL_EVALS}; lower n_coalitions or the background size")

    base = model.predict_margin(background.data).mean(axis=0)
    k = base.shape[0]
    delta = model.predict_margin(X) - base         # (n, k)
    values = np.empty((n, p, k))
    if p == 1:
        # additivity pins the single attribution down exactly
        values[:, 0, :] = delta
    else:
        # the sum constraint is eliminated on the last feature: regress the
        # first p-1 attributions on z[:-1] - z[-1] with weights w
        z_last = coalitions[:, -1:]                # (C, 1)
        design = coalitions[:, :-1] - z_last       # (C, p-1)
        w = (weights / weights.sum())[:, None]
        a = design.T @ (design * w)

        # built before any fork, shared by every sample
        values_of = _CoalitionValues(model, coalitions, background.data)
        group = max(1, _GROUP_VALUES // (coalitions.shape[0] * k))

        def fill(b: np.ndarray, lo: int, hi: int) -> None:
            v = np.empty((min(group, hi - lo), coalitions.shape[0], k))
            for start in range(lo, hi, group):
                xs = X[start:min(start + group, hi)]
                values_of(xs, v)
                for i, vi in zip(range(start, start + len(xs)), v):
                    b[i] = design.T @ ((vi - base - z_last * delta[i]) * w)

        b = fill_rows("kernel SHAP worker", (n, p - 1, k), n, fill)
        head = _solve(a, b.transpose(1, 0, 2).reshape(p - 1, n * k)).reshape(p - 1, n, k)
        if not np.isfinite(head).all():
            raise NumericalError("kernel regression produced non-finite attributions")
        values[:, :-1, :] = head.transpose(1, 0, 2)
        values[:, -1, :] = delta - head.sum(axis=0)
    return ShapTensor(
        values=values, base=base, sample_ids=sample_ids,
        feature_names=feature_names, class_names=class_names,
        method="kernel_shap_exact" if exact else "kernel_shap",
        model_kind=kind_of(model),
        background=background.label or f"rows:{background.m}")


def sample_background(X: np.ndarray, size: int = DEFAULT_BACKGROUND,
                      seed: int = 0) -> Background:
    """A seeded row subsample (all rows when there are fewer than ``size``)."""
    if size < 1:
        raise InvalidSpecError(f"background size must be at least 1, got {size}")
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[0] <= size:
        return Background(X, label=f"all:{X.shape[0]}")
    rng = generator(seed, "shap.background")
    rows = np.sort(rng.choice(X.shape[0], size=size, replace=False))
    return Background(X[rows], label=f"sample:{size}:seed{seed}")
