"""The per-class SHAP value tensor and its matrix flattening.

For n explained samples, p features and k classes the attributions form
an (n, p, k) tensor plus a k-vector of base values; for every sample i and
class c the attributions satisfy

    sum_j values[i, j, c] = margin(x_i)_c - base_c

up to the producing algorithm's tolerance. Flattening collapses the last
two axes feature-major: column j*k + c holds feature j's contribution to
class c.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, replace

import numpy as np

from ..errors import DataError

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

    def take(self, indices) -> "ShapTensor":
        idx = np.asarray(indices, dtype=int)
        return replace(self, values=self.values[idx], sample_ids=self.sample_ids[idx])


@dataclass(frozen=True)
class Background:
    """Reference rows used for interventional expectations."""

    data: np.ndarray  # (m, p)
    label: str = ""

    def __post_init__(self):
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
    flat = np.asarray(flat, dtype=float)
    if flat.shape[1] % n_classes != 0:
        raise DataError(f"cannot unflatten {flat.shape[1]} columns into {n_classes} classes")
    return flat.reshape(flat.shape[0], flat.shape[1] // n_classes, n_classes)


def flat_column_names(t: ShapTensor) -> list[str]:
    return [f"{f}|{c}" for f in t.feature_names for c in t.class_names]


def mean_abs(t: ShapTensor) -> np.ndarray:
    """(p, k) mean absolute attribution per feature and class."""
    return np.abs(t.values).mean(axis=0)


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
    flat = flatten(t)
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_id"] + flat_column_names(t))
        for i in range(t.n):
            writer.writerow([int(t.sample_ids[i])] + [repr(float(v)) for v in flat[i]])


def _ends_with_line_break(path) -> bool:
    with open(path, "rb") as fh:
        fh.seek(max(0, os.path.getsize(path) - 1))
        return fh.read(1) == b"\n"


def load_tensor(json_path, csv_path) -> ShapTensor:
    """Read a tensor written by :func:`save_tensor`; a damaged file is a DataError."""
    try:
        with open(json_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataError(f"{json_path} is not valid JSON: {exc}")
    version = manifest.get("schema_version")
    if version != TENSOR_SCHEMA_VERSION:
        raise DataError(f"unsupported tensor schema version {version}")
    with open(csv_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    expected_cols = 1 + manifest["p"] * manifest["k"]
    # save_tensor ends every row with a line break, so a file without a
    # final one was cut, possibly inside a number that still parses
    if len(rows) != 1 + manifest["n"] or not _ends_with_line_break(csv_path) \
            or any(len(r) != expected_cols for r in rows):
        raise DataError(f"{csv_path} is truncated or damaged: expected a header and "
                        f"{manifest['n']} rows of {expected_cols} cells")
    try:
        sample_ids = np.array([int(r[0]) for r in rows[1:]])
        flat = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
    except ValueError as exc:
        raise DataError(f"{csv_path}: {exc}")
    values = unflatten_values(flat, manifest["k"])
    return ShapTensor(values=values,
                      base=np.array(manifest["base"], dtype=float),
                      sample_ids=sample_ids,
                      feature_names=tuple(manifest["feature_names"]),
                      class_names=tuple(manifest["class_names"]),
                      method=manifest.get("method", ""),
                      model_kind=manifest.get("model_kind", ""),
                      background=manifest.get("background", ""))
