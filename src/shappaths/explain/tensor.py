"""The per-class SHAP value tensor and its matrix flattening.

For n explained samples, p features and k classes the attributions form
an (n, p, k) tensor plus a k-vector of base values; for every sample i and
class c the attributions satisfy

    sum_j values[i, j, c] = margin(x_i)_c - base_c

up to the producing algorithm's tolerance. Flattening collapses the last
two axes feature-major: column j*k + c holds feature j's contribution to
class c.

A saved tensor is read through one streaming reader, ``TensorReader``.
The summaries the plots draw from it (``mean_abs``, ``rank_features``)
are plain Python that adds in numpy's order, so they give numpy's exact
bits without loading it; numpy is imported only where an array is built.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from itertools import chain, islice
from operator import add
from typing import TYPE_CHECKING

from ..errors import DataError

if TYPE_CHECKING:
    import numpy as np

TENSOR_SCHEMA_VERSION = 1


def _names(given, prefix: str, count: int) -> tuple[str, ...]:
    """The given names, or ``prefix_0 .. prefix_{count-1}`` when none are given."""
    names = () if given is None else tuple(given)
    return names or tuple(f"{prefix}_{i}" for i in range(count))


@dataclass(frozen=True)
class ShapTensor:
    values: np.ndarray              # (n, p, k)
    base: np.ndarray                # (k,)
    sample_ids: np.ndarray | None = None           # (n,) int; default 0..n-1
    feature_names: tuple[str, ...] | None = None   # default feature_{j}
    class_names: tuple[str, ...] | None = None     # default class_{c}
    method: str = ""                # producing algorithm
    model_kind: str = ""            # explained model
    background: str = ""            # background provenance (kernel method only)

    def __post_init__(self):
        import numpy as np

        values = np.asarray(self.values, dtype=float)
        base = np.asarray(self.base, dtype=float)
        n, p, k = values.shape
        ids = np.arange(n) if self.sample_ids is None \
            else np.asarray(self.sample_ids, dtype=int)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "sample_ids", ids)
        object.__setattr__(self, "feature_names", _names(self.feature_names, "feature", p))
        object.__setattr__(self, "class_names", _names(self.class_names, "class", k))
        if base.shape != (k,):
            raise DataError(f"base must have shape ({k},), got {base.shape}")
        if ids.shape != (n,):
            raise DataError("sample_ids must have one entry per explained sample")
        if len(self.feature_names) != p or len(self.class_names) != k:
            raise DataError("feature/class name lengths must match the tensor")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]

    @property
    def k(self) -> int:
        return self.values.shape[2]


@dataclass(frozen=True)
class Background:
    """Reference rows used for interventional expectations."""

    data: np.ndarray  # (m, p)
    label: str = ""

    def __post_init__(self):
        import numpy as np

        data = np.atleast_2d(np.asarray(self.data, dtype=float))
        if data.shape[0] < 1:
            raise DataError("background needs at least one row")
        object.__setattr__(self, "data", data)

    @property
    def m(self) -> int:
        return self.data.shape[0]


def flatten(t: ShapTensor) -> np.ndarray:
    """(n, p*k) matrix; column j*k + c = feature j, class c."""
    return t.values.reshape(t.n, t.p * t.k)


def unflatten_values(flat: np.ndarray, n_classes: int) -> np.ndarray:
    """Inverse of :func:`flatten` for the values array."""
    import numpy as np

    flat = np.asarray(flat, dtype=float)
    if flat.shape[1] % n_classes != 0:
        raise DataError(f"cannot unflatten {flat.shape[1]} columns into {n_classes} classes")
    return flat.reshape(flat.shape[0], flat.shape[1] // n_classes, n_classes)


def flat_column_names(t: ShapTensor) -> list[str]:
    return [f"{f}|{c}" for f in t.feature_names for c in t.class_names]


def save_tensor(t: ShapTensor, json_path, csv_path) -> None:
    """Manifest JSON plus a CSV of the flattened values (exact floats)."""
    manifest = {
        "schema_version": TENSOR_SCHEMA_VERSION,
        "n": t.n, "p": t.p, "k": t.k,
        "base": t.base.tolist(),
        "feature_names": list(t.feature_names),
        "class_names": list(t.class_names),
        "method": t.method,
        "model_kind": t.model_kind,
        "background": t.background,
        "layout": "column j*k+c = feature j, class c",
    }
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, separators=(",", ":"))
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(["sample_id"] + flat_column_names(t))
        # each row as csv.writer writes it: the repr of every cell, then \r\n
        fh.writelines(f"{sid},{repr(row)[1:-1].replace(', ', ',')}\r\n"
                      for sid, row in zip(t.sample_ids.tolist(), flatten(t).tolist()))


class TensorReader:
    """A tensor written by :func:`save_tensor`: its manifest, read at once,
    and its CSV body, parsed one row at a time and only as far as asked.

    The files are parsed as written; the CLI checks their digests first.
    """

    def __init__(self, json_path, csv_path):
        with open(json_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
        version = manifest.get("schema_version")
        if version != TENSOR_SCHEMA_VERSION:
            raise DataError(f"unsupported tensor schema version {version}")
        self.csv_path = csv_path
        self.n, self.p, self.k = manifest["n"], manifest["p"], manifest["k"]
        self.base = [float(b) for b in manifest["base"]]
        self.feature_names = tuple(manifest["feature_names"])
        self.class_names = tuple(manifest["class_names"])
        self.method = manifest.get("method", "")
        self.model_kind = manifest.get("model_kind", "")
        self.background = manifest.get("background", "")

    def _lines(self, start: int = 0):
        with open(self.csv_path, newline="", encoding="utf-8") as fh:
            next(csv.reader(fh), None)  # a quoted name may span lines
            yield from islice(fh, start, None)

    def rows(self, start: int = 0):
        """The body rows from position ``start`` on, each a list of floats:
        the sample id, then the p*k values in :func:`flatten`'s layout."""
        width = 1 + self.p * self.k
        for i, line in enumerate(self._lines(start), start):
            try:
                row = list(map(float, line.split(",")))
            except ValueError:
                row = []
            if len(row) != width:
                raise DataError(f"{self.csv_path}: row {i} does not hold {width} numbers")
            yield row

    def sample(self, i: int, class_index: int) -> tuple[int, list[float]]:
        """Row i's sample id and its p attributions to one class; no later
        row is parsed."""
        for row in self.rows(i):
            return int(row[0]), row[1 + class_index::self.k]
        raise DataError(f"{self.csv_path} has no row {i}")

    def sample_ids(self) -> list[int]:
        """Every body row's sample id; no value is parsed."""
        return [int(line.split(",", 1)[0]) for line in self._lines()]


def load_tensor(json_path, csv_path) -> ShapTensor:
    """Read a tensor written by :func:`save_tensor` into arrays."""
    import numpy as np

    t = TensorReader(json_path, csv_path)
    width = 1 + t.p * t.k
    try:
        table = np.fromiter(chain.from_iterable(t.rows()), float, t.n * width)
    except ValueError:  # the iterator stopped short
        raise DataError(f"{csv_path} holds fewer than {t.n} rows") from None
    table = table.reshape(t.n, width)
    return ShapTensor(values=unflatten_values(table[:, 1:], t.k),
                      base=np.array(t.base, dtype=float),
                      sample_ids=table[:, 0],
                      feature_names=t.feature_names, class_names=t.class_names,
                      method=t.method, model_kind=t.model_kind, background=t.background)


# ---------------------------------------------------------------------------
# summaries in numpy's order

def _pairwise(a: list[float], lo: int, n: int) -> float:
    """numpy's pairwise sum of ``a[lo:lo + n]``."""
    if n < 8:
        total = 0.0
        for x in a[lo:lo + n]:
            total += x
        return total
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise(a, lo, half) + _pairwise(a, lo + half, n - half)
    acc = a[lo:lo + 8]
    stop = lo + n - n % 8
    for i in range(lo + 8, stop, 8):
        acc = list(map(add, acc, a[i:i + 8]))
    total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
    for x in a[stop:lo + n]:
        total += x
    return total


def pairwise_sum(values: list[float]) -> float:
    """The sum of a 1-D float64 array as numpy takes it, to the bit.

    numpy adds a pairwise sum to its identity 0.0: a running total under 8
    terms, eight interleaved accumulators up to 128, and above that the two
    halves, split at a multiple of 8. ``sum()`` rounds differently.
    """
    return 0.0 + _pairwise(values, 0, len(values))


def descending(keys: list[float]) -> list[int]:
    """Positions by descending key, ties to the lower position and NaN last:
    ``np.lexsort((np.arange(len(keys)), -keys))``."""
    return sorted(range(len(keys)), key=lambda j: (keys[j] == keys[j], keys[j]), reverse=True)


def mean_abs(t: TensorReader) -> list[list[float]]:
    """(p, k) mean absolute attribution per feature and class, in one pass
    over the rows, with the bits of numpy's ``np.abs(values).mean(axis=0)``:
    numpy adds the rows from the first down when p*k >= 2, and sums its one
    column pairwise when p*k == 1."""
    if t.p * t.k == 1:
        sums = [pairwise_sum([abs(row[1]) for row in t.rows()])]
    else:
        sums = [0.0] * (t.p * t.k)
        for row in t.rows():
            sums = list(map(add, sums, map(abs, row[1:])))
    means = [s / t.n if t.n else float("nan") for s in sums]
    return [means[j * t.k:(j + 1) * t.k] for j in range(t.p)]


def rank_features(meanabs: list[list[float]]) -> tuple[list[float], list[int]]:
    """Each feature's total over classes (numpy's ``meanabs.sum(axis=1)``),
    and the features by descending total, ties to the lower index."""
    totals = [pairwise_sum(row) for row in meanabs]
    return totals, descending(totals)
