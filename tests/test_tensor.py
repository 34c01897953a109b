import csv
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shappaths import ShapTensor, flatten, load_tensor, mean_abs, save_tensor, unflatten_values
from shappaths.errors import DataError
from shappaths.explain.tensor import flat_column_names
from util import AWKWARD, QUOTED_CLASSES, QUOTED_FEATURES


def make_tensor(values, base=None, method="tree_shap"):
    values = np.asarray(values, dtype=float)
    n, p, k = values.shape
    return ShapTensor(values=values,
                      base=np.zeros(k) if base is None else base,
                      sample_ids=np.arange(n),
                      feature_names=tuple(f"f{j}" for j in range(p)),
                      class_names=tuple(f"c{c}" for c in range(k)),
                      method=method, model_kind="tree")


def test_flatten_layout():
    t = make_tensor([[[1, 2, 3], [4, 5, 6]]])  # n=1, p=2, k=3
    flat = flatten(t)
    assert flat.shape == (1, 6)
    assert flat[0].tolist() == [1, 2, 3, 4, 5, 6]  # feature-major: j*k + c
    assert flat_column_names(t) == ["f0|c0", "f0|c1", "f0|c2", "f1|c0", "f1|c1", "f1|c2"]


def test_flatten_identity_for_single_class():
    values = np.arange(12, dtype=float).reshape(3, 4, 1)
    t = make_tensor(values)
    assert np.array_equal(flatten(t), values[:, :, 0])


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 6), st.integers(1, 5), st.integers(1, 4), st.integers(0, 9999))
def test_unflatten_round_trip(n, p, k, seed):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(n, p, k))
    t = make_tensor(values)
    assert np.array_equal(unflatten_values(flatten(t), k), values)


def test_mean_abs():
    t = make_tensor(np.zeros((4, 3, 2)))
    assert np.array_equal(mean_abs(t), np.zeros((3, 2)))
    one = make_tensor([[[-2.0, 1.0], [0.5, -0.5]]])
    assert np.array_equal(mean_abs(one), [[2.0, 1.0], [0.5, 0.5]])


def test_tensor_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    t = make_tensor(rng.normal(size=(5, 4, 3)), base=rng.normal(size=3))
    jp, cp = tmp_path / "t.json", tmp_path / "t.csv"
    save_tensor(t, jp, cp)
    loaded = load_tensor(jp, cp)
    assert np.array_equal(loaded.values, t.values)
    assert np.array_equal(loaded.base, t.base)
    assert loaded.feature_names == t.feature_names
    assert loaded.class_names == t.class_names
    assert loaded.method == t.method


def _loop_save(t, csv_path):
    """The per-cell writer that save_tensor replaced, kept as its oracle."""
    flat = flatten(t)
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_id"] + flat_column_names(t))
        for i in range(t.n):
            writer.writerow([int(t.sample_ids[i])] + [repr(float(v)) for v in flat[i]])


def _loop_load(csv_path):
    """The per-cell parser that load_tensor replaced, kept as its oracle."""
    with open(csv_path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    return np.array([[float(v) for v in r[1:]] for r in rows]).reshape(len(rows), len(header) - 1)


def test_bulk_tensor_io_matches_the_per_cell_loop(tmp_path):
    rng = np.random.default_rng(11)
    random = rng.standard_normal(312) * 10.0 ** rng.integers(-300, 300, 312)
    random[[5, 50, 100]] = np.nan, np.inf, -np.inf
    t = make_tensor(np.concatenate([AWKWARD * 3, random]).reshape(30, 4, 3))
    quoted = replace(t, sample_ids=np.arange(30) * 7 + 3,
                     feature_names=QUOTED_FEATURES, class_names=QUOTED_CLASSES)
    no_rows = make_tensor(np.zeros((0, 4, 3)))  # the header alone
    for i, tensor in enumerate([t, quoted, no_rows]):
        jp, cp, oracle = (tmp_path / f"{i}_{name}" for name in ("t.json", "t.csv", "oracle.csv"))
        save_tensor(tensor, jp, cp)
        _loop_save(tensor, oracle)
        assert cp.read_bytes() == oracle.read_bytes()
        loaded = load_tensor(jp, cp)
        flat = flatten(loaded)
        assert np.array_equal(flat.view(np.uint64), _loop_load(cp).view(np.uint64))
        assert np.array_equal(flat.view(np.uint64), flatten(tensor).view(np.uint64))
        assert np.array_equal(loaded.sample_ids, tensor.sample_ids)
        assert (loaded.feature_names, loaded.class_names) == \
            (tensor.feature_names, tensor.class_names)


def test_default_ids_and_names():
    t = ShapTensor(values=np.zeros((3, 2, 2)), base=np.zeros(2))
    assert t.sample_ids.tolist() == [0, 1, 2]
    assert t.feature_names == ("feature_0", "feature_1")
    assert t.class_names == ("class_0", "class_1")


def test_tensor_validation():
    with pytest.raises(DataError):
        ShapTensor(values=np.zeros((2, 2, 2)), base=np.zeros(3),
                   sample_ids=np.arange(2), feature_names=("a", "b"),
                   class_names=("x", "y"))
    with pytest.raises(DataError):
        ShapTensor(values=np.zeros((2, 2, 2)), base=np.zeros(2),
                   sample_ids=np.arange(3), feature_names=("a", "b"),
                   class_names=("x", "y"))
