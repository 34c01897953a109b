"""A saved SHAP tensor read without numpy.

``save_tensor`` writes each tensor three times over: a manifest JSON
(n, p, k, base values, names), a CSV export, and a body of raw
little-endian float64, n rows of 1 + p*k values, the sample id first and
then the values in ``flatten``'s layout. The commands after ``explain``
read the body; none parses the CSV. Neither numpy nor ``dataclasses`` is
imported here.
"""

from __future__ import annotations

import json
import os
import sys
from array import array

from ..errors import DataError

TENSOR_SCHEMA_VERSION = 1


class TensorReader:
    """A tensor written by :func:`save_tensor`: its manifest, read at once,
    and its float64 body, read a row at a time.

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
        """Body rows ``start`` to ``start + count``, as one flat array of
        native floats; ``load_tensor`` reads the whole body through it."""
        body = array("d")
        with open(self.path, "rb") as fh:
            self.check_size(os.fstat(fh.fileno()).st_size)
            fh.seek(start * self.width * body.itemsize)
            body.fromfile(fh, count * self.width)
        if sys.byteorder == "big":
            body.byteswap()
        return body

    def sample(self, i: int, class_index: int) -> tuple[int, list[float]]:
        """Row i's sample id and its p attributions to one class; only that
        row is read."""
        if not 0 <= i < self.n:
            raise DataError(f"{self.path} has no row {i}")
        row = self._read(i, 1)
        return int(row[0]), row[1 + class_index::self.k].tolist()

