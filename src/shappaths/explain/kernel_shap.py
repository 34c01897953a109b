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

A sample's coalition values come from blocks of masked rows,
background-major within a block; the boolean coalition mask and the
background repeated to a block's shape are built once per call, before
any worker forks. One evaluator reads every model as three stages: an
affine input stage, a nonlinear body and an affine head. Masking is
affine in the input (a masked row is z*x + (1-z)*bg), so the evaluator
splits an MLP into its first layer, its rectified middle and its last
layer itself: the masked-off background times the first layer is built
once per block for a group of samples, each sample adds its own kept
features times that layer, the body runs on the block's rows and the
last layer on the background means. Every other model has identity ends
around predict_margin: per sample and block one np.where, the model call
and one sum over the background, with values byte-identical to a
coalition-major loop that took a mean per block; the MLP's differ from
it by rounding only.

The right-hand side of that solve is one column block per sample, filled
by the same per-sample code in up to MAX_WORKERS processes through the
package's one fork helper (``shappaths.workers.run_forked``): the parent
fills the first contiguous chunk of samples and forked children the
others, each writing its columns into one shared anonymous mmap. The
worker count is the CPUs this process may run on, capped at MAX_WORKERS
and at n, and 1 where fork or CPU affinity is unavailable. It changes
which process computes a column, never how, so the values are
byte-identical for any worker count and the count is not configurable.
"""

from __future__ import annotations

import logging
import math
import mmap
from functools import partial
from itertools import combinations

import numpy as np

from ..errors import DataError, InvalidSpecError, NumericalError
from ..rng import generator
from ..workers import cpu_count, run_forked
from .tensor import Background, ShapTensor

log = logging.getLogger(__name__)

DEFAULT_COALITIONS = 2048
DEFAULT_BACKGROUND = 100
# masked rows per model call (whole coalitions), background-major: row
# i * nz + j is background row i under the block's coalition j. Blocks this
# small keep the activations in cache and each matrix product below
# OpenBLAS's multithreading size, so each worker's model evaluation runs on
# its own core without page faults or BLAS threads competing with the others.
# Also the rows of each bias and zero tile an MLP's body uses.
_BLOCK_ROWS = 512
# coalition values one process holds at once (384 KB): the samples that share
# each block's masked-off background times an MLP's first layer number
# _GROUP_VALUES // (coalitions * classes)
_GROUP_VALUES = 3 << 14
# samples whose blocks go through the model's body in one call
_STACK = 2
# processes that fill the right-hand side at once, the parent included
MAX_WORKERS = 4
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
        uniq, counts = np.unique(np.array(drawn), axis=0, return_counts=True)
        blocks.append(uniq)
        weights.append(mass.sum() * counts / counts.sum())
    if not blocks:
        raise InvalidSpecError(f"coalition budget {budget} cannot cover the smallest "
                               f"stratum pair for p={p} (needs {2 * p} rows)")
    return np.vstack(blocks), np.concatenate(weights)


def _mlp_stages(mlp):
    """An MLP as (first, body, last): the first layer's (W, b); the
    rectified middle, a function of the first layer's outputs (rows, or a
    stack of row blocks, each multiplied on its own) that overwrites them;
    and the last layer's (W, b), None when the first layer is also the last.

    The body is ReLU, then each hidden layer ``a @ W + b`` and its ReLU. It
    adds each bias from a tile of _BLOCK_ROWS rows and takes each ReLU as
    the maximum against a zero tile, in place: the same operations and
    bytes as the MLP's own forward pass, which broadcasts, at a fraction of
    the cost on the small blocks evaluated here. The tiles are built once
    per call of this function.
    """
    weights, biases = mlp.weights, mlp.biases
    hidden = biases[:-1]
    tiles = [np.tile(b, (_BLOCK_ROWS, 1)) for b in hidden[1:]]
    zero = np.zeros(_BLOCK_ROWS * max((b.shape[0] for b in hidden), default=0))
    zeros = [zero[:_BLOCK_ROWS * b.shape[0]].reshape(_BLOCK_ROWS, -1) for b in hidden]

    def body(a: np.ndarray) -> np.ndarray:
        for i, zero in enumerate(zeros):
            if i:
                a = a @ weights[i]
            for start in range(0, a.shape[-2], _BLOCK_ROWS):
                rows = a[..., start:start + _BLOCK_ROWS, :]
                if i:
                    rows += tiles[i - 1][:rows.shape[-2]]
                np.maximum(rows, zero[:rows.shape[-2]], out=rows)
        return a

    last = None if len(weights) == 1 else (weights[-1], biases[-1])
    return (weights[0], biases[0]), body, last


class _CoalitionValues:
    """The mean margins of samples under every coalition, from the model's
    three stages (see the module docstring): an MLP's from ``_mlp_stages``,
    identity ends around ``predict_margin`` for every other model.

    Each block takes the next ``width`` coalitions, row i * nz + j being
    background row i under the block's coalition j, so a coalition's mean
    is a sum over the outer axis. A call fills the values of a group of
    samples block by block, and the body takes the blocks of _STACK
    samples at a time. Each sample's blocks are multiplied on their own
    (numpy's matmul makes one product per slice of a stack), so its values
    do not depend on which samples share its group or its stack.
    """

    def __init__(self, model, coalitions: np.ndarray, background: np.ndarray):
        from ..models.mlp import Mlp  # here, so loading this module loads no models layer

        if isinstance(model, Mlp):
            self.first, self.body, self.last = _mlp_stages(model)
        else:
            predict = model.predict_margin
            self.first, self.last = None, None
            self.body = lambda blocks: np.stack([predict(rows) for rows in blocks])
        m = background.shape[0]
        width = min(max(1, _BLOCK_ROWS // m), coalitions.shape[0])
        self.mask = coalitions == 1.0
        self.rep = np.repeat(background[:, None, :], width, axis=1)
        if self.first is not None:
            # the input-stage rows of a stack of samples, refilled per block
            self.rows = np.empty(_STACK * m * width * self.first[0].shape[1])
            self.mean = np.full(m, 1.0 / m)

    def __call__(self, xs: np.ndarray, out: np.ndarray) -> None:
        """Fill out[s] (n_coalitions, k) with the mean margins of xs[s]."""
        rep, body, first, last = self.rep, self.body, self.first, self.last
        m, width, p = rep.shape
        # each sample tiled like the mask, so np.where runs whole blocks
        xt = np.repeat(xs[:, None, :], width, axis=1)
        for start in range(0, self.mask.shape[0], width):
            z = self.mask[start:start + width]
            nz = z.shape[0]
            if first is not None:
                W, b = first
                shared = np.where(z, 0.0, rep[:, :nz]).reshape(-1, p) @ W
                shared += b
                shared = shared.reshape(m, nz, -1)
                summed = self.rows[:_STACK * shared.size].reshape(_STACK, *shared.shape)
                # numpy multiplies each sample's (nz, p) slice on its own
                own = np.where(z, xt[:, :nz], 0.0) @ W
            for lo in range(0, len(xs), _STACK):
                v = out[lo:min(lo + _STACK, len(xs)), start:start + nz]
                ns = v.shape[0]
                if first is None:
                    rows = np.where(z, xt[lo:lo + ns, None, :nz], rep[:, :nz])
                else:
                    rows = np.add(shared, own[lo:lo + ns, None], out=summed[:ns])
                acts = body(rows.reshape(ns, m * nz, -1)).reshape(ns, m, -1)
                if last is None:
                    np.add.reduce(acts.reshape(ns, m, nz, -1), axis=1, out=v)
                    v /= m
                else:
                    means = (self.mean @ acts).reshape(ns, nz, -1)
                    np.add(means @ last[0], last[1], out=v)


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
        # shared with the forked workers, each of which fills its own columns
        shared = mmap.mmap(-1, (p - 1) * n * k * 8 or 1)
        b = np.frombuffer(shared, count=(p - 1) * n * k).reshape(p - 1, n, k)

        # built before any fork, shared by every sample
        values_of = _CoalitionValues(model, coalitions, background.data)
        group = max(1, _GROUP_VALUES // (coalitions.shape[0] * k))

        def fill(lo: int, hi: int) -> None:
            v = np.empty((min(group, hi - lo), coalitions.shape[0], k))
            for start in range(lo, hi, group):
                xs = X[start:min(start + group, hi)]
                values_of(xs, v)
                for i, vi in zip(range(start, start + len(xs)), v):
                    b[:, i, :] = design.T @ ((vi - base - z_last * delta[i]) * w)

        # contiguous, balanced chunks of samples: the first in this process
        workers = max(1, min(cpu_count(), MAX_WORKERS, n))
        bounds = [n * j // workers for j in range(workers + 1)]
        for failed in run_forked("kernel SHAP worker",
                                 {f"rows {lo}-{hi - 1}": partial(fill, lo, hi)
                                  for lo, hi in zip(bounds, bounds[1:])}):
            if failed is not None:
                raise failed
        head = _solve(a, b.reshape(p - 1, n * k)).reshape(p - 1, n, k)
        if not np.isfinite(head).all():
            raise NumericalError("kernel regression produced non-finite attributions")
        values[:, :-1, :] = head.transpose(1, 0, 2)
        values[:, -1, :] = delta - head.sum(axis=0)
    return ShapTensor(
        values=values, base=base, sample_ids=sample_ids,
        feature_names=feature_names, class_names=class_names,
        method="kernel_shap_exact" if exact else "kernel_shap",
        model_kind=type(model).__name__.lower(),
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
