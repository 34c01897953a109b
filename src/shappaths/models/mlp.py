"""A rectifier feedforward network trained by minibatch gradient descent.

Hidden layers use ReLU, the output layer is linear, and the margins are
the raw logits of a softmax cross-entropy objective. Weight gradients come
from standard backpropagation; ``loss_and_grads`` is exposed separately so
the analytic gradients can be checked against finite differences. Both it
and ``predict_margin`` run the one forward pass, ``_forward``; Kernel SHAP
evaluates the layers itself (explain/kernel_shap.py).

During training every weight matrix and bias is a view of one flat
parameter vector, and every gradient a view of one flat buffer of the
same layout (``_flat_views``), so a step updates the whole network with
``grads *= lr; params -= grads``. The one-hot labels are built once per
fit and shuffled with the rows once per epoch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DataError, InvalidSpecError, NumericalError
from ..rng import generator


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
        a = a @ W
        a += b
        if i < last:
            np.maximum(a, 0.0, out=a)
        activations.append(a)
    return activations


def _flat_views(sizes: tuple[int, ...], flat: np.ndarray):
    """Every layer's (fan_in, fan_out) weights and (fan_out,) biases as
    views of the one vector ``flat``: layer by layer, weights first."""
    weights, biases, at = [], [], 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(flat[at:at + fan_in * fan_out].reshape(fan_in, fan_out))
        at += fan_in * fan_out
        biases.append(flat[at:at + fan_out])
        at += fan_out
    return weights, biases


def loss_and_grads(model: Mlp, X: np.ndarray, y: np.ndarray, onehot=None, out=None):
    """Mean cross-entropy over the batch and its weight/bias gradients.

    ``onehot`` is ``y`` as one-hot rows, and ``out`` a (weights, biases)
    pair of lists of arrays that the gradients are written into; both are
    made here when not given. The loss is ``models.boosted.log_loss``'s
    expression, and it shares its ``exp`` with the softmax of the output delta.
    """
    activations = _forward(model, X)
    n = activations[0].shape[0]
    last = len(model.weights) - 1
    logits = activations.pop()  # the backward pass reads only the layer inputs
    logits -= np.maximum.reduce(logits, axis=1, keepdims=True)
    e = np.exp(logits)
    total = np.add.reduce(e, axis=1, keepdims=True)
    log_probs = logits - np.log(total)
    loss = float(-log_probs[np.arange(n), y].mean())

    delta = e
    delta /= total
    delta -= np.eye(model.n_classes)[y] if onehot is None else onehot
    delta /= n
    grads_w, grads_b = ([None] * len(model.weights), [None] * len(model.biases)) \
        if out is None else out
    for i in range(last, -1, -1):
        grads_w[i] = np.matmul(activations[i].T, delta, out=grads_w[i])
        grads_b[i] = np.add.reduce(delta, axis=0, out=grads_b[i])
        if i > 0:
            delta = delta @ model.weights[i].T
            delta *= activations[i] > 0.0
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
    init = init_mlp(sizes, rng)
    params = np.concatenate([np.append(W, b) for W, b in zip(init.weights, init.biases)])
    model = Mlp(sizes, *_flat_views(sizes, params))
    grads = np.empty_like(params)
    out = _flat_views(sizes, grads)
    X, y = train.features, train.labels
    onehot = np.eye(train.k)[y]
    for epoch in range(epochs):
        perm = rng.permutation(train.n)
        X_perm, y_perm, onehot_perm = X[perm], y[perm], onehot[perm]
        epoch_loss = 0.0
        for start in range(0, train.n, batch_size):
            batch = slice(start, start + batch_size)
            X_batch = X_perm[batch]
            loss, _, _ = loss_and_grads(model, X_batch, y_perm[batch], onehot_perm[batch], out)
            epoch_loss += loss * X_batch.shape[0]
            grads *= learning_rate
            params -= grads
        if not np.isfinite(epoch_loss):
            raise NumericalError(f"training loss became non-finite at epoch {epoch}")
    return model
