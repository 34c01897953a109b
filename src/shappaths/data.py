"""Datasets: synthetic generation, CSV and IDX ingestion, scaling, splitting.

The synthetic generator draws points uniformly from a hyperrectangle and
assigns one of three classes through a multinomial-logit link whose first
two coordinates carry all the signal; the remaining coordinates enter only
through small random linear terms. Class indices are zero-based: the
generator's classes 1/2/3 are stored as labels 0/1/2, and label 2 is the
reference class of the logit (its margin is identically zero).
"""

from __future__ import annotations

import csv
import logging
import math
import struct
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError, InvalidSpecError
from .rng import generator

log = logging.getLogger(__name__)

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


@dataclass(frozen=True)
class Dataset:
    """An immutable feature matrix with integer class labels.

    features : (n, p) float array
    labels   : (n,) int array with values in [0, k)
    feature_names / class_names : unique display names, lengths p and k
    """

    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple[str, ...]
    class_names: tuple[str, ...]

    def __post_init__(self):
        features = np.array(self.features, dtype=float)
        labels = np.array(self.labels, dtype=int)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        object.__setattr__(self, "class_names", tuple(self.class_names))
        if features.ndim != 2 or features.shape[0] < 1 or features.shape[1] < 1:
            raise DataError(f"features must be a nonempty 2-D matrix, got shape {features.shape}")
        if labels.shape != (features.shape[0],):
            raise DataError("labels must be one integer per row")
        if len(self.class_names) < 2:
            raise DataError("need at least two classes")
        if labels.min() < 0 or labels.max() >= len(self.class_names):
            raise DataError("labels out of range [0, k)")
        if len(self.feature_names) != features.shape[1]:
            raise DataError("feature_names length must match feature count")
        if len(set(self.feature_names)) != len(self.feature_names):
            raise DataError("feature_names contains duplicates")
        features.flags.writeable = False
        labels.flags.writeable = False

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def p(self) -> int:
        return self.features.shape[1]

    @property
    def k(self) -> int:
        return len(self.class_names)

    def take(self, indices) -> "Dataset":
        """Row subset, preserving names."""
        idx = np.asarray(indices, dtype=int)
        return Dataset(self.features[idx], self.labels[idx],
                       self.feature_names, self.class_names)

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.k)


@dataclass(frozen=True)
class SimulationSpec:
    """Parameters of the synthetic three-class generator.

    ``noise_coefficients`` is the 2 x (p - 2) matrix of linear terms for the
    signal-free features. When absent it is drawn i.i.d. standard normal
    from the seed's ``sim.coefficients`` stream, so a spec with only a seed
    is exactly replayable.
    """

    n_samples: int = 1500
    n_features: int = 10
    domain_half_width: float = 5.0
    noise_coefficients: np.ndarray | None = None
    seed: int = 0

    def validate(self):
        if self.n_samples < 1:
            raise InvalidSpecError("n_samples must be positive")
        if self.n_features < 2:
            raise InvalidSpecError("n_features must be at least 2: the class "
                                   "link references the first two coordinates")
        if self.domain_half_width <= 0:
            raise InvalidSpecError("domain_half_width must be positive")
        if self.noise_coefficients is not None:
            beta = np.asarray(self.noise_coefficients, dtype=float)
            if beta.shape != (2, self.n_features - 2):
                raise InvalidSpecError(
                    f"noise_coefficients must have shape (2, {self.n_features - 2})")

    def resolved(self) -> "SimulationSpec":
        """Return a copy with noise coefficients materialized from the seed."""
        self.validate()
        if self.noise_coefficients is not None:
            return self
        rng = generator(self.seed, "sim.coefficients")
        beta = rng.standard_normal((2, self.n_features - 2))
        return replace(self, noise_coefficients=beta)


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float = 0.7
    stratified: bool = False
    seed: int = 0

    def validate(self):
        if not (0.0 < self.train_fraction < 1.0):
            raise InvalidSpecError("train_fraction must lie strictly between 0 and 1")


def class_logits(X: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Margins (f1, f2, 0) of the generator's multinomial logit, one row per sample."""
    X = np.asarray(X, dtype=float)
    x1, x2 = X[:, 0], X[:, 1]
    noise = X[:, 2:] @ beta.T if X.shape[1] > 2 else np.zeros((X.shape[0], 2))
    f1 = 4.0 * x1 * x2 + 4.0 * x1 + 4.0 * x2 + noise[:, 0]
    f2 = 4.0 * x1 * x2 - 4.0 * x1 - 4.0 * x2 + noise[:, 1]
    return np.column_stack([f1, f2, np.zeros_like(f1)])


def class_probabilities(X: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Per-class probabilities under the generator's logistic link."""
    logits = class_logits(X, beta)
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def simulate(spec: SimulationSpec) -> Dataset:
    """Draw a synthetic dataset: uniform points, logit-linked noisy labels.

    Deterministic in ``spec.seed``; points, labels and (absent) noise
    coefficients each come from their own named stream.
    """
    spec = spec.resolved()
    w = spec.domain_half_width
    rng_x = generator(spec.seed, "sim.points")
    X = rng_x.uniform(-w, w, size=(spec.n_samples, spec.n_features))
    probs = class_probabilities(X, spec.noise_coefficients)
    u = generator(spec.seed, "sim.labels").random(spec.n_samples)
    cum = np.cumsum(probs, axis=1)
    labels = (u >= cum[:, 0]).astype(int) + (u >= cum[:, 1]).astype(int)
    feature_names = tuple(f"feature_{j}" for j in range(spec.n_features))
    return Dataset(X, labels, feature_names, ("class_1", "class_2", "class_3"))


def load_csv(path, target_column_name: str) -> Dataset:
    """Read a headered CSV into a dataset; complete-case rows only.

    Rows containing any empty cell are dropped (the count is logged); a
    non-numeric or non-finite (nan, inf) feature cell is a DataError
    naming the file and line.
    Target values are factor-encoded in first-appearance order.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file, expected a header row")
        rows = list(reader)
    if target_column_name not in header:
        raise DataError(f"{path}: target column {target_column_name!r} not in header")
    target_idx = header.index(target_column_name)
    feature_names = tuple(h for i, h in enumerate(header) if i != target_idx)

    features, raw_labels, dropped = [], [], 0
    for lineno, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise DataError(f"{path}:{lineno}: expected {len(header)} cells, got {len(row)}")
        if any(cell.strip() == "" for cell in row):
            dropped += 1
            continue
        values = []
        for i, cell in enumerate(row):
            if i == target_idx:
                continue
            try:
                value = float(cell)
            except ValueError:
                raise DataError(f"{path}:{lineno}: non-numeric feature cell {cell!r}")
            if not math.isfinite(value):
                raise DataError(f"{path}:{lineno}: non-finite feature cell {cell!r}")
            values.append(value)
        features.append(values)
        raw_labels.append(row[target_idx].strip())
    if dropped:
        log.info("%s: dropped %d row(s) with missing cells", path, dropped)
    if not features:
        raise DataError(f"{path}: no complete rows left after filtering")

    class_names: list[str] = []
    labels = []
    for value in raw_labels:
        if value not in class_names:
            class_names.append(value)
        labels.append(class_names.index(value))
    if len(class_names) < 2:
        raise DataError(f"{path}: need at least two target classes, found {class_names}")
    return Dataset(np.array(features), np.array(labels), feature_names, tuple(class_names))


def write_csv(ds: Dataset, path, target_column_name: str = "target") -> None:
    """Write a dataset as CSV; floats use shortest round-trip formatting."""
    if target_column_name in ds.feature_names:
        raise DataError(f"target column name {target_column_name!r} collides with a feature")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(ds.feature_names) + [target_column_name])
        for i in range(ds.n):
            writer.writerow([repr(float(v)) for v in ds.features[i]]
                            + [ds.class_names[ds.labels[i]]])


def _read_idx(path, expected_magic: int) -> np.ndarray:
    with open(path, "rb") as fh:
        head = fh.read(4)
        if len(head) != 4:
            raise DataError(f"{path}: truncated IDX header")
        (magic,) = struct.unpack(">I", head)
        if magic != expected_magic:
            raise DataError(f"{path}: IDX magic mismatch: got {magic:#010x}, "
                            f"expected {expected_magic:#010x}")
        n_dims = magic & 0xFF
        dims = struct.unpack(f">{n_dims}I", fh.read(4 * n_dims))
        data = np.frombuffer(fh.read(), dtype=np.uint8)
    if data.size != int(np.prod(dims)):
        raise DataError(f"{path}: payload size {data.size} does not match header dims {dims}")
    return data.reshape(dims)


def load_idx_images(images_path, labels_path) -> Dataset:
    """Read an IDX image/label file pair; images are flattened row-major.

    Pixel intensities are kept on their original [0, 255] scale.
    """
    images = _read_idx(images_path, IDX_IMAGES_MAGIC)
    labels = _read_idx(labels_path, IDX_LABELS_MAGIC)
    if images.shape[0] != labels.shape[0]:
        raise DataError(f"image/label count mismatch: {images.shape[0]} images "
                        f"vs {labels.shape[0]} labels")
    n = images.shape[0]
    flat = images.reshape(n, -1).astype(float)
    digits = sorted(int(d) for d in np.unique(labels))
    if len(digits) < 2:
        raise DataError("need at least two distinct labels")
    remap = {d: i for i, d in enumerate(digits)}
    encoded = np.array([remap[int(v)] for v in labels])
    feature_names = tuple(f"pixel_{j}" for j in range(flat.shape[1]))
    return Dataset(flat, encoded, feature_names, tuple(str(d) for d in digits))


@dataclass(frozen=True)
class ScalingMeta:
    """Per-column min and range of a min-max rescaling.

    Constant columns keep their true range (zero) but are mapped with a
    divisor of one, so they land at 0 and the inverse map is still exact.
    """

    mins: np.ndarray
    ranges: np.ndarray

    def _divisors(self) -> np.ndarray:
        return np.where(self.ranges > 0, self.ranges, 1.0)

    def transform(self, X: np.ndarray) -> np.ndarray:
        return (np.asarray(X, dtype=float) - self.mins) / self._divisors()

    def inverse(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(X, dtype=float) * self._divisors() + self.mins

    def to_dict(self) -> dict:
        return {"mins": self.mins.tolist(), "ranges": self.ranges.tolist()}


def min_max_scale(ds: Dataset) -> tuple[Dataset, ScalingMeta]:
    """Rescale every column to [0, 1]; constant columns map to 0."""
    mins = ds.features.min(axis=0)
    ranges = ds.features.max(axis=0) - mins
    meta = ScalingMeta(mins, ranges)
    scaled = Dataset(meta.transform(ds.features), ds.labels,
                     ds.feature_names, ds.class_names)
    return scaled, meta


def split_indices(labels: np.ndarray, spec: SplitSpec) -> tuple[np.ndarray, np.ndarray]:
    """Disjoint, exhaustive train/test row indices, sorted within each side.

    |train| = floor(fraction * n + 0.5). A stratified split allocates
    floor(fraction * n_c) per class and hands out the remainder by largest
    fractional part (ties to the lower class index), so each class is within
    one sample of its exact proportion.
    """
    spec.validate()
    labels = np.asarray(labels)
    n = labels.shape[0]
    n_train = int(np.floor(spec.train_fraction * n + 0.5))
    if n_train < 1 or n_train >= n:
        raise InvalidSpecError(f"split of {n} rows at {spec.train_fraction} leaves an empty side")
    rng = generator(spec.seed, "split")
    if not spec.stratified:
        perm = rng.permutation(n)
        train = np.sort(perm[:n_train])
        test = np.sort(perm[n_train:])
        return train, test

    counts = np.bincount(labels)
    if (counts[counts > 0] < 2).any():
        raise InvalidSpecError("stratified split needs at least 2 samples per class")
    classes = np.flatnonzero(counts)
    exact = spec.train_fraction * counts[classes]
    base = np.floor(exact).astype(int)
    remainder = n_train - base.sum()
    order = np.lexsort((classes, -(exact - base)))
    take = base.copy()
    for i in range(remainder):
        take[order[i % len(classes)]] += 1
    train_parts = []
    for cls, t in zip(classes, take):
        members = np.flatnonzero(labels == cls)
        perm = rng.permutation(len(members))
        train_parts.append(members[perm[:t]])
    train = np.sort(np.concatenate(train_parts))
    mask = np.ones(n, dtype=bool)
    mask[train] = False
    return train, np.flatnonzero(mask)


def split(ds: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Split a dataset into train and test parts."""
    train_idx, test_idx = split_indices(ds.labels, spec)
    return ds.take(train_idx), ds.take(test_idx)
