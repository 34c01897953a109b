"""A rectifier feedforward network trained by minibatch gradient descent.

Hidden layers use ReLU, the output layer is linear, and the margins are
the raw logits of a softmax cross-entropy objective. Weight gradients come
from standard backpropagation; ``loss_and_grads`` is exposed separately so
the analytic gradients can be checked against finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import DataError, InvalidSpecError, NumericalError
from ..rng import generator
from .boosted import log_loss, softmax


# rows of each bias and zero tile; longer inputs are biased and rectified in
# chunks of this many rows, so the tiles stay small and in cache
_TILE_ROWS = 512


@dataclass
class Mlp:
    layer_sizes: tuple[int, ...]
    weights: list[np.ndarray]  # (fan_in, fan_out) per layer
    biases: list[np.ndarray]   # (fan_out,) per layer
    # (the bytes of the biases the body adds, each of those biases tiled to
    # (_TILE_ROWS, fan_out), a zero tile per hidden layer viewed from one
    # buffer); never saved, compared or printed
    _tiles: tuple = field(default=(), init=False, repr=False, compare=False)

    @property
    def n_features(self) -> int:
        return self.layer_sizes[0]

    @property
    def n_classes(self) -> int:
        return self.layer_sizes[-1]

    def predict_margin(self, X: np.ndarray) -> np.ndarray:
        """The logits, (n, n_classes): the three ``stages`` in turn."""
        (W, b), body, last = self.stages()
        a = body(np.atleast_2d(np.asarray(X, dtype=float)) @ W + b)
        return a if last is None else a @ last[0] + last[1]

    def stages(self):
        """The network as (first, body, last): the first layer's (W, b); the
        rectified middle, a function of the first layer's outputs (rows,
        or a stack of row blocks, each multiplied on its own) that may
        overwrite them; and the last layer's (W, b), None when the first
        layer is also the last. Kernel SHAP evaluates the same stages.

        The body is ReLU, then each hidden layer ``a @ W + b`` and its ReLU.
        It adds each bias from a tile and takes each ReLU as the maximum
        against a zero tile, in place: the same operations and bytes as
        broadcasting, at a fraction of the cost on the small blocks Kernel
        SHAP evaluates. The tiles are the ones current when ``stages`` is
        called.
        """
        biases, zeros = self._current_tiles()
        weights = self.weights

        def body(a: np.ndarray) -> np.ndarray:
            for i, zero in enumerate(zeros):
                if i:
                    a = a @ weights[i]
                for start in range(0, a.shape[-2], _TILE_ROWS):
                    rows = a[..., start:start + _TILE_ROWS, :]
                    if i:
                        rows += biases[i - 1][:rows.shape[-2]]
                    np.maximum(rows, zero[:rows.shape[-2]], out=rows)
            return a

        last = None if len(weights) == 1 else (weights[-1], self.biases[-1])
        return (weights[0], self.biases[0]), body, last

    def _current_tiles(self):
        """The tiles of the biases after the first hidden layer's and the
        zero tiles, rebuilt whenever one of those biases has changed since
        they were made."""
        # a list: a tuple built on every call grew CPython's tuple free list by ~100 KB
        hidden = self.biases[:-1]
        key = [b.tobytes() for b in hidden[1:]]
        if not self._tiles or self._tiles[0] != key:
            zero = np.zeros(_TILE_ROWS * max((b.shape[0] for b in hidden), default=0))
            self._tiles = (key, [np.tile(b, (_TILE_ROWS, 1)) for b in hidden[1:]],
                           [zero[:_TILE_ROWS * b.shape[0]].reshape(_TILE_ROWS, -1)
                            for b in hidden])
        return self._tiles[1], self._tiles[2]

    def predict_class(self, X: np.ndarray) -> np.ndarray:
        return np.argmax(self.predict_margin(X), axis=1)


def init_mlp(layer_sizes, rng: np.random.Generator) -> Mlp:
    """Scaled uniform fan-in init (limit sqrt(6 / fan_in)), zero biases."""
    sizes = tuple(int(s) for s in layer_sizes)
    if len(sizes) < 2 or any(s < 1 for s in sizes):
        raise InvalidSpecError(f"bad layer sizes {sizes}")
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        limit = np.sqrt(6.0 / fan_in)
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return Mlp(sizes, weights, biases)


def loss_and_grads(model: Mlp, X: np.ndarray, y: np.ndarray):
    """Mean cross-entropy over the batch and its weight/bias gradients."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n = X.shape[0]
    last = len(model.weights) - 1
    activations = [X]
    a = X
    for i, (W, b) in enumerate(zip(model.weights, model.biases)):
        z = a @ W + b
        a = np.maximum(z, 0.0) if i < last else z
        activations.append(a)
    loss = log_loss(activations[-1], y)

    delta = (softmax(activations[-1]) - np.eye(model.n_classes)[y]) / n
    grads_w = [None] * len(model.weights)
    grads_b = [None] * len(model.biases)
    for i in range(last, -1, -1):
        grads_w[i] = activations[i].T @ delta
        grads_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ model.weights[i].T) * (activations[i] > 0.0)
    return loss, grads_w, grads_b


def train_mlp(train, layer_sizes, epochs: int = 150, batch_size: int = 32,
              learning_rate: float = 0.05, seed: int = 0) -> Mlp:
    """Fit by plain SGD on shuffled minibatches; deterministic in the seed.

    ``layer_sizes`` must start at the feature count and end at the class
    count. Raises NumericalError naming the epoch if the loss diverges.
    """
    sizes = tuple(int(s) for s in layer_sizes)
    if sizes[0] != train.p:
        raise InvalidSpecError(f"first layer must have {train.p} units, got {sizes[0]}")
    if sizes[-1] != train.k:
        raise InvalidSpecError(f"last layer must have {train.k} units, got {sizes[-1]}")
    if epochs < 1 or batch_size < 1 or learning_rate <= 0:
        raise InvalidSpecError("epochs, batch_size and learning_rate must be positive")
    if train.n < 1:
        raise DataError("empty training set")

    rng = generator(seed, "train.mlp")
    model = init_mlp(sizes, rng)
    X, y = train.features, train.labels
    for epoch in range(epochs):
        perm = rng.permutation(train.n)
        epoch_loss = 0.0
        for start in range(0, train.n, batch_size):
            batch = perm[start:start + batch_size]
            loss, grads_w, grads_b = loss_and_grads(model, X[batch], y[batch])
            epoch_loss += loss * batch.size
            for W, b, gw, gb in zip(model.weights, model.biases, grads_w, grads_b):
                W -= learning_rate * gw
                b -= learning_rate * gb
        if not np.isfinite(epoch_loss):
            raise NumericalError(f"training loss became non-finite at epoch {epoch}")
    return model
