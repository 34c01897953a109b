import csv
import importlib
import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shappaths import (ShapTensor, TensorReader, flatten, load_tensor, save_tensor, shap_summary,
                       unflatten_values)
from shappaths.errors import DataError
from shappaths.explain.tensor import flat_column_names
from shappaths.viz import waterfall_entries
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


def saved(tmp_path, t: ShapTensor, name: str = "t") -> TensorReader:
    """The reader of ``t`` saved under ``name``; its CSV export lies beside it."""
    jp, cp, fp = (tmp_path / f"{name}.{ext}" for ext in ("json", "csv", "f64"))
    save_tensor(t, jp, cp, fp)
    return TensorReader(jp, fp)


def test_mean_abs():
    zeros = shap_summary(make_tensor(np.zeros((4, 3, 2))))
    assert np.array_equal(zeros["mean_abs"], np.zeros((3, 2)))
    one = shap_summary(make_tensor([[[-2.0, 1.0], [0.5, -0.5]]]))
    assert np.array_equal(one["mean_abs"], [[2.0, 1.0], [0.5, 0.5]])
    assert (one["totals"], one["order"]) == ([3.0, 1.0], [0, 1])
    assert (one["feature_names"], one["class_names"]) == (["f0", "f1"], ["c0", "c1"])


# ---------------------------------------------------------------------------
# the summaries the plots draw, and the waterfall's pure-Python tail

def bits(values) -> list:
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


def running_total(values) -> float:
    total = 0.0
    for v in values:
        total += v
    return total


def test_mean_abs_of_no_rows_is_nan():
    """As numpy's mean of no rows is; the NaN totals keep the features in order."""
    with pytest.warns(RuntimeWarning), np.errstate(all="ignore"):
        summary = shap_summary(make_tensor(np.zeros((0, 3, 2))))
    got = np.array(summary["mean_abs"])
    assert got.shape == (3, 2) and np.isnan(got).all() and summary["order"] == [0, 1, 2]


def test_summary_ties_go_to_the_lower_index():
    """Equal totals keep the lower feature first."""
    meanabs = np.array([[1.0, 2.0], [0.0, 0.0], [2.0, 1.0], [3.0, 0.0], [0.5, 0.5]])
    summary = shap_summary(make_tensor(meanabs[None]))
    assert summary["totals"] == [3.0, 0.0, 3.0, 3.0, 1.0]
    assert summary["order"] == [0, 2, 3, 4, 1]


def _tail_cases(seed: int) -> list[np.ndarray]:
    """Attributions over many magnitudes, with every magnitude tied, and AWKWARD's values."""
    rng = np.random.default_rng(seed)
    cases = [rng.standard_normal(p) * 10.0 ** rng.integers(-5, 6, p) for p in range(4, 24)]
    cases += [rng.standard_normal(p) * 10.0 ** rng.integers(-5, 6, p) for p in (40, 140, 300)]
    tied = rng.standard_normal(24)
    tied[1::2] = -tied[::2]  # every magnitude twice, with both signs
    return cases + [tied, np.array(AWKWARD[:14] + [-0.0, 0.0, -0.0])]


def test_waterfall_tail_is_added_left_to_right():
    """The head follows np.lexsort by descending magnitude (ties to the lower
    index); the tail is its running total from 0.0 in that order, which is
    numpy's sum, to the bit, for a tail of fewer than 8 values."""
    short_tails = long_misses = 0
    for phi in _tail_cases(10):
        order = np.lexsort((np.arange(phi.size), -np.abs(phi)))
        names = [f"f{j}" for j in range(phi.size)]
        entries = waterfall_entries(phi.tolist(), names, top_n=3)
        tail = phi[order[3:]]
        assert [name for name, _ in entries[:3]] == [names[j] for j in order[:3]]
        assert bits([v for _, v in entries]) == bits([*phi[order[:3]], running_total(tail)])
        with np.errstate(all="ignore"):  # AWKWARD's extremes overflow to inf and nan
            numpy_bits = bits(tail.sum())
        if tail.size < 8:
            short_tails += 1
            assert bits(entries[-1][1]) == numpy_bits
        else:
            long_misses += bits(entries[-1][1]) != numpy_bits
    # the data hold short tails, and long ones on which numpy's pairwise order differs
    assert short_tails == 7 and long_misses


def test_wide_waterfall_tip_lands_on_the_margin():
    """784 features at top_n 9: a tail of 775 added left to right ends within
    1e-12 of base + sum(phi)."""
    for seed in range(5):
        rng = np.random.default_rng(seed)
        phi = (rng.standard_normal(784) * 10.0 ** rng.integers(-4, 0, 784)).tolist()
        entries = waterfall_entries(phi, [f"f{j}" for j in range(784)], top_n=9)
        assert len(entries) == 10 and entries[-1][0] == "other (775 features)"
        tip = 0.25
        for _, v in entries:
            tip += v
        assert abs(tip - (0.25 + math.fsum(phi))) <= 1e-12


@pytest.mark.parametrize("tail, expected", [([1e308, 1e308, -1e308], math.inf),
                                            ([1e308, -1e308, 1e308], 1e308),
                                            ([math.inf, -math.inf], math.nan)],
                         ids=["overflow", "cancel-first", "inf-minus-inf"])
def test_waterfall_tail_that_overflows_is_a_float(tail, expected):
    """Where math.fsum raises, the running total gives IEEE's answer."""
    (name, other), = waterfall_entries(tail, ["a", "b", "c"][:len(tail)], top_n=0)
    assert name == f"other ({len(tail)} features)"
    assert isinstance(other, float)
    assert other == expected or (math.isnan(other) and math.isnan(expected))


# ---------------------------------------------------------------------------
# the float64 body and its reader

def test_reader_streams_rows_as_floats(tmp_path):
    rng = np.random.default_rng(12)
    t = replace(make_tensor(rng.normal(size=(5, 4, 3)), base=rng.normal(size=3)),
                sample_ids=np.arange(5) * 7 + 3,
                feature_names=QUOTED_FEATURES, class_names=QUOTED_CLASSES)
    reader = saved(tmp_path, t)
    assert (reader.n, reader.p, reader.k) == (5, 4, 3)
    assert (reader.feature_names, reader.class_names) == (QUOTED_FEATURES, QUOTED_CLASSES)
    assert bits(reader.base) == bits(t.base)
    expected = [[float(sid), *row] for sid, row in zip(t.sample_ids, flatten(t).tolist())]
    assert [(sid, bits(phi)) for i in range(5) for sid, phi in (reader.sample(i, c)
                                                                for c in range(3))] == \
        [(int(row[0]), bits(row[1 + c::3])) for row in expected for c in range(3)]


class _CountingFile:
    """A binary file that records each seek and read made through it."""

    def __init__(self, path, mode, calls: list):
        self.file, self.calls = open(path, mode), calls

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.file.close()

    def fileno(self):
        return self.file.fileno()

    def seek(self, offset):
        self.calls.append(("seek", offset))
        return self.file.seek(offset)

    def read(self, size):
        self.calls.append(("read", size))
        return self.file.read(size)


def test_reader_stops_at_the_row_asked_for(tmp_path, monkeypatch):
    """`sample` seeks to its row and reads those 8 * (1 + p*k) bytes alone."""
    reader = saved(tmp_path, make_tensor(np.arange(12.0).reshape(3, 2, 2)))
    calls = []
    monkeypatch.setattr(importlib.import_module("shappaths.explain.reader"), "open",
                        lambda path, mode: _CountingFile(path, mode, calls), raising=False)
    assert reader.sample(1, 1) == (1, [5.0, 7.0])
    assert calls == [("seek", 40), ("read", 40)]


def test_reader_of_a_tensor_with_no_rows(tmp_path):
    t = make_tensor(np.zeros((0, 4, 3)))
    reader = saved(tmp_path, t)
    assert reader.n == 0
    assert reader.path.read_bytes() == b""
    with pytest.raises(DataError, match="has no row 0"):
        reader.sample(0, 0)
    for body in ("t.csv", "t.f64"):
        loaded = load_tensor(tmp_path / "t.json", tmp_path / body)
        assert loaded.values.shape == (0, 4, 3) and loaded.sample_ids.shape == (0,)


def test_load_tensor_of_a_short_body_is_a_data_error(tmp_path):
    saved(tmp_path, make_tensor(np.ones((3, 2, 1))))
    csv_path = tmp_path / "t.csv"
    body = csv_path.read_text(encoding="utf-8").splitlines(keepends=True)
    csv_path.write_text("".join(body[:3]), encoding="utf-8")
    with pytest.raises(DataError, match="fewer than 3 rows"):
        load_tensor(tmp_path / "t.json", csv_path)


def test_load_tensor_of_a_long_csv_body_is_a_data_error(tmp_path):
    """Three rows appended to a 2-row body: an error that names the file."""
    saved(tmp_path, make_tensor(np.ones((2, 2, 1))))
    csv_path = tmp_path / "t.csv"
    body = csv_path.read_text(encoding="utf-8").splitlines(keepends=True)
    csv_path.write_text("".join(body + body[1:] + body[1:2]), encoding="utf-8")
    with pytest.raises(DataError, match=re.escape(f"{csv_path} holds more than 2 rows")):
        load_tensor(tmp_path / "t.json", csv_path)


@pytest.mark.parametrize("change", [-24, -3, 1, 24], ids=["row-short", "3-short",
                                                          "1-long", "row-long"])
def test_a_float64_body_of_the_wrong_length_is_a_data_error(tmp_path, change):
    """Each reader of the body checks its length before it reads a value."""
    reader = saved(tmp_path, make_tensor(np.ones((3, 2, 1))))
    body = reader.path.read_bytes()
    reader.path.write_bytes(body[:change] if change < 0 else body + b"\0" * change)
    message = re.escape(f"{reader.path} holds {len(body) + change} bytes, not the 72 of "
                        "3 rows of 3 float64 values")
    for read in (lambda: load_tensor(tmp_path / "t.json", reader.path),
                 lambda: reader.sample(2, 0)):
        with pytest.raises(DataError, match=message):
            read()


def test_tensor_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    t = make_tensor(rng.normal(size=(5, 4, 3)), base=rng.normal(size=3))
    saved(tmp_path, t)
    for body in ("t.csv", "t.f64"):
        loaded = load_tensor(tmp_path / "t.json", tmp_path / body)
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
        jp, cp, fp, oracle = (tmp_path / f"{i}_{name}"
                              for name in ("t.json", "t.csv", "t.f64", "oracle.csv"))
        save_tensor(tensor, jp, cp, fp)
        _loop_save(tensor, oracle)
        assert cp.read_bytes() == oracle.read_bytes()
        for body in (cp, fp):
            loaded = load_tensor(jp, body)
            flat = flatten(loaded)
            assert np.array_equal(flat.view(np.uint64), _loop_load(cp).view(np.uint64))
            assert np.array_equal(flat.view(np.uint64), flatten(tensor).view(np.uint64))
            assert np.array_equal(loaded.sample_ids, tensor.sample_ids)
            assert (loaded.feature_names, loaded.class_names) == \
                (tensor.feature_names, tensor.class_names)


def _csv_table(csv_path) -> list[list[float]]:
    """Each CSV body row, its sample id included, parsed cell by cell."""
    with open(csv_path, newline="", encoding="utf-8") as fh:
        return [[float(v) for v in row] for row in list(csv.reader(fh))[1:]]


def test_float64_body_loads_the_bits_of_the_csv(tmp_path):
    """Extreme values, both zeros, subnormals and sample ids up to 2**53 read
    back from the float64 body with the bits the CSV's text parses to."""
    extremes = AWKWARD + [5e-310, -5e-310, 1e308, -1e308, 2.0 ** -1074, -(2.0 ** -1074),
                          np.nextafter(0.0, 1.0), 1e-320, -0.0, 0.0]
    values = np.array(extremes * 3).reshape(13, 2, 3)
    t = replace(make_tensor(values, base=np.array(AWKWARD[8:11])),
                sample_ids=[0, 1, 2 ** 53, 2 ** 53 - 1, 2 ** 52 + 1, *range(7, 15)],
                feature_names=QUOTED_FEATURES[:2], class_names=QUOTED_CLASSES)
    reader = saved(tmp_path, t)
    from_csv, from_f64 = (load_tensor(tmp_path / "t.json", tmp_path / body)
                          for body in ("t.csv", "t.f64"))
    for name in ("values", "base", "sample_ids"):
        assert getattr(from_csv, name).tobytes() == getattr(from_f64, name).tobytes(), name
    assert from_f64.values.tobytes() == t.values.tobytes()
    assert from_f64.sample_ids.tolist() == t.sample_ids.tolist()
    table = _csv_table(tmp_path / "t.csv")
    for i in range(13):
        for c in range(3):
            sid, phi = reader.sample(i, c)
            assert (sid, bits(phi)) == (int(table[i][0]), bits(table[i][1 + c::3]))


@pytest.mark.parametrize("kind", ["tree", "boosted", "mlp"])
def test_each_models_float64_body_loads_the_bits_of_its_csv(three_kinds_run, kind):
    json_path = three_kinds_run / f"shap_{kind}.json"
    from_csv, from_f64 = (load_tensor(json_path, three_kinds_run / f"shap_{kind}.{ext}")
                          for ext in ("csv", "f64"))
    for name in ("values", "base", "sample_ids"):
        assert getattr(from_csv, name).tobytes() == getattr(from_f64, name).tobytes(), name
    reader = TensorReader(json_path, three_kinds_run / f"shap_{kind}.f64")
    table = _csv_table(three_kinds_run / f"shap_{kind}.csv")
    assert [(sid, bits(phi)) for i in range(reader.n) for sid, phi in (reader.sample(i, c)
                                                                       for c in range(3))] == \
        [(int(row[0]), bits(row[1 + c::3])) for row in table for c in range(3)]


@pytest.mark.parametrize("kind", ["tree", "boosted", "mlp"])
def test_each_models_summary_has_numpys_bits(three_kinds_run, kind):
    """`explain` writes the summary from the array it holds: numpy's mean
    |SHAP|, its totals over classes and their lexsort, to the bit."""
    values = load_tensor(three_kinds_run / f"shap_{kind}.json",
                         three_kinds_run / f"shap_{kind}.f64").values
    mean_abs = np.abs(values).mean(axis=0)
    totals = mean_abs.sum(axis=1)
    order = np.lexsort((np.arange(values.shape[1]), -totals)).tolist()
    written = json.loads((three_kinds_run / f"summary_{kind}.json").read_text(encoding="utf-8"))
    assert (bits(written["mean_abs"]), bits(written["totals"]), written["order"]) == \
        (bits(mean_abs), bits(totals), order)


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
