"""A rectifier feedforward network trained by minibatch gradient descent.

Hidden layers use ReLU, the output layer is linear, and the margins are
the raw logits of a softmax cross-entropy objective. Weight gradients come
from standard backpropagation; ``loss_and_grads`` is exposed separately so
the analytic gradients can be checked against finite differences. Both it
and ``predict_margin`` run the one forward pass, ``_forward``; Kernel SHAP
evaluates the layers itself (explain/kernel_shap.py).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DataError, InvalidSpecError, NumericalError
from ..rng import generator
from .boosted import log_loss, softmax


@dataclass
class Mlp:
    layer_sizes: tuple[int, ...]
    weights: list[np.ndarray]  # (fan_in, fan_out) per layer
    biases: list[np.ndarray]   # (fan_out,) per layer

    @property
    def n_features(self) -> int:
        return self.layer_sizes[0]

    @property
    def n_classes(self) -> int:
        return self.layer_sizes[-1]

    def predict_margin(self, X: np.ndarray) -> np.ndarray:
        """The logits, (n, n_classes)."""
        return _forward(self, X)[-1]

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


def _forward(model: Mlp, X: np.ndarray) -> list[np.ndarray]:
    """The input and every layer's output: ``a @ W + b``, rectified after
    each hidden layer, the last one left linear."""
    a = np.atleast_2d(np.asarray(X, dtype=float))
    activations = [a]
    last = len(model.weights) - 1
    for i, (W, b) in enumerate(zip(model.weights, model.biases)):
        a = a @ W + b
        if i < last:
            a = np.maximum(a, 0.0)
        activations.append(a)
    return activations


def loss_and_grads(model: Mlp, X: np.ndarray, y: np.ndarray):
    """Mean cross-entropy over the batch and its weight/bias gradients."""
    activations = _forward(model, X)
    n = activations[0].shape[0]
    last = len(model.weights) - 1
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
