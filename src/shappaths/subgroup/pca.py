"""Principal components by one thin SVD, with a fixed sign convention."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DataError, InvalidSpecError


@dataclass(frozen=True)
class PcaModel:
    mean: np.ndarray         # (d,)
    loadings: np.ndarray     # (d, r), orthonormal columns
    eigenvalues: np.ndarray  # (r,), descending
    degenerate: bool = False  # all-constant input: loadings are arbitrary

    @property
    def d(self) -> int:
        return self.loadings.shape[0]


def _fix_signs(loadings: np.ndarray) -> np.ndarray:
    for j in range(loadings.shape[1]):
        col = loadings[:, j]
        if col[np.argmax(np.abs(col))] < 0:
            loadings[:, j] = -col
    return loadings


def pca_fit(X: np.ndarray, r: int) -> PcaModel:
    """Top-r principal directions of the sample covariance.

    Requires n >= 2 and r <= min(n - 1, d). One thin SVD of the centred
    data, U S Vᵀ, gives both: the loadings are the first r right singular
    vectors and the eigenvalues s² / (n - 1), for tall and wide X alike.
    Each loading is oriented so its largest-magnitude coordinate is
    positive. All-constant input yields zero eigenvalues, an arbitrary
    orthonormal basis, and ``degenerate=True``.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n, d = X.shape
    if n < 2:
        raise InvalidSpecError("PCA needs at least two rows")
    if not (1 <= r <= min(n - 1, d)):
        raise InvalidSpecError(f"r must lie in [1, min(n-1, d)] = [1, {min(n - 1, d)}]")
    mean = X.mean(axis=0)
    _, s, vt = np.linalg.svd(X - mean, full_matrices=False)
    return PcaModel(mean=mean, loadings=_fix_signs(vt[:r].T.copy()),
                    eigenvalues=s[:r] ** 2 / (n - 1), degenerate=not s.any())


def pca_transform(model: PcaModel, X: np.ndarray) -> np.ndarray:
    """Centered projection (X - mean) @ loadings -> (n, r) scores."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != model.d:
        raise DataError(f"model was fit on {model.d} dims, got {X.shape[1]}")
    return (X - model.mean) @ model.loadings
