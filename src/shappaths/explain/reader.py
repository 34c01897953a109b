"""A saved SHAP tensor read without numpy, and the summaries drawn from it.

``save_tensor`` writes each tensor three times over: a manifest JSON
(n, p, k, base values, names), a CSV export, and a body of raw
little-endian float64, n rows of 1 + p*k values, the sample id first and
then the values in ``flatten``'s layout. The commands after ``explain``
read the body; none parses the CSV.

The summaries the plots draw (``mean_abs``, ``rank_features``,
``column_means``) are plain Python that adds in numpy's order, so they give
numpy's exact bits without loading it. Neither numpy nor ``dataclasses``
is imported here.
"""

from __future__ import annotations

import json
import os
import sys
from array import array
from functools import cached_property
from operator import add

from ..errors import DataError

TENSOR_SCHEMA_VERSION = 1


class TensorReader:
    """A tensor written by :func:`save_tensor`: its manifest, read at once,
    and its float64 body, read whole on first use of ``table``.

    The files are read as written; the CLI checks their digests first. A
    body whose length is not n * (1 + p*k) values is a DataError.
    """

    def __init__(self, json_path, body_path):
        with open(json_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
        version = manifest.get("schema_version")
        if version != TENSOR_SCHEMA_VERSION:
            raise DataError(f"unsupported tensor schema version {version}")
        self.path = body_path
        self.n, self.p, self.k = manifest["n"], manifest["p"], manifest["k"]
        self.width = 1 + self.p * self.k
        self.base = [float(b) for b in manifest["base"]]
        self.feature_names = tuple(manifest["feature_names"])
        self.class_names = tuple(manifest["class_names"])
        self.method = manifest.get("method", "")
        self.model_kind = manifest.get("model_kind", "")
        self.background = manifest.get("background", "")

    def check_size(self, size: int) -> None:
        """A DataError unless ``size`` bytes are the body's n rows."""
        expected = self.n * self.width * 8
        if size != expected:
            raise DataError(f"{self.path} holds {size} bytes, not the {expected} of "
                            f"{self.n} rows of {self.width} float64 values; "
                            f"re-run `shappaths explain`")

    def _read(self, start: int, count: int) -> array:
        """Body rows ``start`` to ``start + count``, as one flat array."""
        body = array("d")
        with open(self.path, "rb") as fh:
            self.check_size(os.fstat(fh.fileno()).st_size)
            fh.seek(start * self.width * body.itemsize)
            body.fromfile(fh, count * self.width)
        if sys.byteorder == "big":
            body.byteswap()
        return body

    @cached_property
    def table(self) -> array:
        """The whole body, row after row."""
        return self._read(0, self.n)

    def rows(self):
        """The body rows, each a list of floats: the sample id, then the p*k
        values in :func:`flatten`'s layout."""
        table, width = self.table, self.width
        return (table[i:i + width].tolist() for i in range(0, len(table), width))

    def sample(self, i: int, class_index: int) -> tuple[int, list[float]]:
        """Row i's sample id and its p attributions to one class; only that
        row is read."""
        if not 0 <= i < self.n:
            raise DataError(f"{self.path} has no row {i}")
        row = self._read(i, 1)
        return int(row[0]), row[1 + class_index::self.k].tolist()

    def sample_ids(self) -> list[int]:
        """Every body row's sample id."""
        return [int(sid) for sid in self.table[::self.width]]


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


def column_means(columns: list[list[float]]) -> list[float]:
    """numpy's ``X[:, subset].mean(axis=0)`` over the columns of that table.

    Indexing columns with a list gives a Fortran-ordered array, whose
    columns numpy sums pairwise, however many there are; each sum is then
    divided by the row count (NaN for none).
    """
    return [pairwise_sum(column) / len(column) if column else float("nan")
            for column in columns]


def rank_features(meanabs: list[list[float]]) -> tuple[list[float], list[int]]:
    """Each feature's total over classes (numpy's ``meanabs.sum(axis=1)``),
    and the features by descending total, ties to the lower index."""
    totals = [pairwise_sum(row) for row in meanabs]
    return totals, descending(totals)
