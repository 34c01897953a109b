"""The per-class SHAP value tensor and its matrix flattening.

For n explained samples, p features and k classes the attributions form
an (n, p, k) tensor plus a k-vector of base values; for every sample i and
class c the attributions satisfy

    sum_j values[i, j, c] = margin(x_i)_c - base_c

up to the producing algorithm's tolerance. Flattening collapses the last
two axes feature-major: column j*k + c holds feature j's contribution to
class c.

A saved tensor is a manifest JSON, a CSV export of the flattened values
and the same table as raw float64 (see ``reader``). The commands after
``explain`` read the float64 body, through ``TensorReader`` or, where they
need arrays, ``load_tensor``; ``load_tensor`` also parses the CSV.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING

from ..errors import DataError
from .reader import TENSOR_SCHEMA_VERSION, TensorReader

if TYPE_CHECKING:
    import numpy as np


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


def save_tensor(t: ShapTensor, json_path, csv_path, f64_path) -> None:
    """Manifest JSON, a CSV of the flattened values (exact floats), and the
    CSV's table as raw little-endian float64: n rows of the sample id, then
    the values in :func:`flatten`'s layout."""
    import numpy as np

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
    flat = flatten(t)
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(["sample_id"] + flat_column_names(t))
        # each row as csv.writer writes it: the repr of every cell, then \r\n
        fh.writelines(f"{sid},{repr(row)[1:-1].replace(', ', ',')}\r\n"
                      for sid, row in zip(t.sample_ids.tolist(), flat.tolist()))
    np.column_stack([t.sample_ids, flat]).astype("<f8").tofile(f64_path)


def _csv_rows(csv_path, width: int):
    """The CSV body's rows, each a list of ``width`` floats, parsed one at a time."""
    with open(csv_path, newline="", encoding="utf-8") as fh:
        next(csv.reader(fh), None)  # a quoted name may span lines
        for i, line in enumerate(fh):
            try:
                row = list(map(float, line.split(",")))
            except ValueError:
                row = []
            if len(row) != width:
                raise DataError(f"{csv_path}: row {i} does not hold {width} numbers")
            yield row


def load_tensor(json_path, body_path) -> ShapTensor:
    """Read a tensor written by :func:`save_tensor` into arrays, from its
    float64 body (a ``.f64`` file) or from its CSV."""
    import numpy as np

    t = TensorReader(json_path, body_path)
    if str(body_path).endswith(".f64"):
        t.check_size(os.path.getsize(body_path))
        table = np.fromfile(body_path, dtype="<f8")
    else:
        try:
            table = np.fromiter(chain.from_iterable(_csv_rows(body_path, t.width)), float,
                                t.n * t.width)
        except ValueError:  # the iterator stopped short
            raise DataError(f"{body_path} holds fewer than {t.n} rows") from None
    table = table.reshape(t.n, t.width)
    return ShapTensor(values=unflatten_values(table[:, 1:], t.k),
                      base=np.array(t.base, dtype=float),
                      sample_ids=table[:, 0],
                      feature_names=t.feature_names, class_names=t.class_names,
                      method=t.method, model_kind=t.model_kind, background=t.background)
