import csv
import importlib
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shappaths import (ShapTensor, TensorReader, column_means, flatten, load_tensor, mean_abs,
                       pairwise_sum, rank_features, save_tensor, unflatten_values)
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


def test_mean_abs(tmp_path):
    t = saved(tmp_path, make_tensor(np.zeros((4, 3, 2))), "zeros")
    assert np.array_equal(mean_abs(t), np.zeros((3, 2)))
    one = saved(tmp_path, make_tensor([[[-2.0, 1.0], [0.5, -0.5]]]), "one")
    assert np.array_equal(mean_abs(one), [[2.0, 1.0], [0.5, 0.5]])


# ---------------------------------------------------------------------------
# the pure-Python summaries give numpy's exact bits

def bits(values) -> list:
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


def running_total(values) -> float:
    total = 0.0
    for v in values:
        total += v
    return total


def _arrays(seed: int, lengths) -> list[np.ndarray]:
    """Random arrays over many magnitudes, plus signed zeros and AWKWARD's values."""
    rng = np.random.default_rng(seed)
    arrays = [rng.standard_normal(n) * 10.0 ** rng.integers(-6, 7, n) for n in lengths]
    return arrays + [np.array(AWKWARD), np.array(AWKWARD[::-1]), np.array(AWKWARD * 9),
                     np.full(9, -0.0), np.array([-0.0]), np.array([-0.0, 0.0]), np.array([])]


def test_pairwise_sum_has_numpy_bits():
    arrays = _arrays(5, [n for n in range(300) for _ in range(4)] + [1000, 4097, 9000])
    with np.errstate(all="ignore"):  # AWKWARD's extremes overflow to inf and nan
        expected = [bits(a.sum()) for a in arrays]
    assert [bits(pairwise_sum(a.tolist())) for a in arrays] == expected
    # the data tell numpy's order apart from a running total and from sum()
    assert any(bits(running_total(a.tolist())) != e for a, e in zip(arrays, expected))
    assert any(bits(sum(a.tolist())) != e for a, e in zip(arrays, expected))


def _mean_abs_cases() -> list[np.ndarray]:
    rng = np.random.default_rng(8)
    cases = [rng.standard_normal((n, p, k)) * 10.0 ** rng.integers(-4, 5, (n, p, k))
             for n, p, k in [(300, 1, 1), (37, 1, 1), (9, 1, 1), (1, 1, 1), (40, 3, 4),
                             (25, 1, 2), (25, 2, 1), (30, 10, 10), (150, 4, 3)]]
    cases += [rng.standard_normal((int(rng.integers(1, 40)), int(rng.integers(1, 6)),
                                   int(rng.integers(1, 6)))) for _ in range(40)]
    awkward = np.array(AWKWARD * 2)
    return cases + [awkward.reshape(32, 1, 1), awkward.reshape(8, 2, 2)]


def test_mean_abs_has_numpy_bits(tmp_path):
    """numpy's mean over rows adds them one after another when p*k >= 2,
    and pairwise when p*k == 1; a running total or a pairwise sum used for
    both cases each misses one of them."""
    misses = {"running": 0, "pairwise": 0}
    for i, values in enumerate(_mean_abs_cases()):
        with np.errstate(all="ignore"):
            expected = np.abs(values).mean(axis=0)
        got = mean_abs(saved(tmp_path, make_tensor(values), f"t{i}"))
        assert bits(got) == bits(expected), values.shape
        n, p, k = values.shape
        columns = np.abs(values).reshape(n, p * k).T.tolist()
        misses["running"] += bits([running_total(c) / n for c in columns]) != bits(expected.ravel())
        misses["pairwise"] += bits([pairwise_sum(c) / n for c in columns]) != bits(expected.ravel())
    assert misses["running"] and misses["pairwise"]


def test_mean_abs_of_no_rows_is_nan(tmp_path):
    """As numpy's mean of no rows is (its NaN may carry the other sign bit)."""
    got = np.array(mean_abs(saved(tmp_path, make_tensor(np.zeros((0, 3, 2))))))
    assert got.shape == (3, 2) and np.isnan(got).all()


def _heatmap_tables() -> list[np.ndarray]:
    rng = np.random.default_rng(14)
    tables = [rng.standard_normal((n, p)) * 10.0 ** rng.integers(-6, 7, (n, p))
              for n, p in [(1, 3), (7, 2), (9, 1), (130, 1), (300, 4), (1600, 10), (2000, 1)]]
    tables += [rng.uniform(-5, 5, (int(rng.integers(1, 700)), int(rng.integers(1, 12))))
               for _ in range(30)]
    zeros = np.array([[-0.0, 0.0, -0.0]] * 20)
    return tables + [zeros, np.array(AWKWARD * 2).reshape(16, 2), np.array(AWKWARD).reshape(-1, 1)]


def test_column_means_have_the_heatmaps_numpy_bits():
    """The heatmap took ``X[:, subset].mean(axis=0)`` over all rows and over
    each cluster's rows: one column or several, numpy sums each column of
    that Fortran-ordered copy pairwise. Adding rows one after another, as
    numpy does for a C-ordered table, misses its bits."""
    rng = np.random.default_rng(15)
    row_by_row_misses = 0
    for X in _heatmap_tables():
        for subset in ([0], [X.shape[1] - 1], list(range(X.shape[1]))[::-1],
                       rng.permutation(X.shape[1])[:max(2, X.shape[1] // 2)].tolist()):
            subset = subset[:X.shape[1]]
            members = rng.random(X.shape[0]) < 0.6
            members[0] = True  # a cluster has members
            for rows in (X, X[members]):
                with np.errstate(all="ignore"):
                    expected = rows[:, subset].mean(axis=0)
                got = column_means([rows[:, j].tolist() for j in subset])
                assert bits(got) == bits(expected), (X.shape, subset)
                if len(subset) >= 2:
                    with np.errstate(all="ignore"):
                        sums = np.zeros(len(subset))
                        for row in rows[:, subset].tolist():
                            sums = sums + row
                    row_by_row_misses += bits(sums / len(rows)) != bits(expected)
    assert row_by_row_misses


def test_rank_features_has_numpy_bits_and_order():
    """Totals over k >= 8 classes are pairwise; ties (equal totals, and
    -0.0 against 0.0) go to the lower index, NaN last, as np.lexsort puts them."""
    rng = np.random.default_rng(9)
    meanabs = rng.uniform(size=(12, 10)) * 10.0 ** rng.integers(-3, 4, (12, 10))
    meanabs[5] = meanabs[2]
    meanabs[7] = meanabs[2][::-1]
    keys = [0.0, -0.0, 2.0, 2.0, -1.0, np.nan, 2.0, 0.0, -np.inf, np.nan, np.inf]
    rows = [meanabs, rng.uniform(size=(6, 1)), np.array(AWKWARD).reshape(8, 2),
            np.array(keys).reshape(-1, 1)]
    running_misses = 0
    for m in rows:
        with np.errstate(all="ignore"):
            totals = m.sum(axis=1)
        got_totals, got_order = rank_features(m.tolist())
        assert bits(got_totals) == bits(totals)
        assert got_order == np.lexsort((np.arange(len(m)), -totals)).tolist()
        running_misses += bits([running_total(r) for r in m.tolist()]) != bits(totals)
    assert running_misses


def test_waterfall_tail_has_numpy_bits():
    """A tail of 8 or more features is summed pairwise, in the order of
    descending magnitude (ties to the lower index)."""
    rng = np.random.default_rng(10)
    cases = [rng.standard_normal(p) * 10.0 ** rng.integers(-5, 6, p) for p in (12, 20, 40, 140)]
    tied = rng.standard_normal(24)
    tied[1::2] = -tied[::2]  # every magnitude twice, with both signs
    cases += [tied, np.array(AWKWARD[:14] + [-0.0, 0.0, -0.0])]
    running_misses = 0
    for phi in cases:
        order = np.lexsort((np.arange(phi.size), -np.abs(phi)))
        names = [f"f{j}" for j in range(phi.size)]
        entries = waterfall_entries(phi.tolist(), names, top_n=3)
        with np.errstate(all="ignore"):
            tail = phi[order[3:]].sum()
        assert [name for name, _ in entries[:3]] == [names[j] for j in order[:3]]
        assert bits([v for _, v in entries]) == bits([*phi[order[:3]], tail])
        running_misses += bits(running_total(phi[order[3:]].tolist())) != bits(tail)
    assert running_misses


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
    assert [bits(row) for row in reader.rows()] == [bits(row) for row in expected]
    assert [(sid, bits(phi)) for sid, phi in (reader.sample(3, c) for c in range(3))] == \
        [(int(expected[3][0]), bits(expected[3][1 + c::3])) for c in range(3)]
    assert reader.sample_ids() == t.sample_ids.tolist()


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
    assert (reader.n, list(reader.rows()), reader.sample_ids()) == (0, [], [])
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


@pytest.mark.parametrize("change", [-24, -3, 1, 24], ids=["row-short", "3-short",
                                                          "1-long", "row-long"])
def test_a_float64_body_of_the_wrong_length_is_a_data_error(tmp_path, change):
    """Each reader of the body checks its length before it reads a value."""
    reader = saved(tmp_path, make_tensor(np.ones((3, 2, 1))))
    body = reader.path.read_bytes()
    reader.path.write_bytes(body[:change] if change < 0 else body + b"\0" * change)
    message = re.escape(f"{reader.path} holds {len(body) + change} bytes, not the 72 of "
                        "3 rows of 3 float64 values")
    for read in (lambda: load_tensor(tmp_path / "t.json", reader.path), reader.rows,
                 reader.sample_ids, lambda: reader.sample(2, 0)):
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
    assert [bits(row) for row in reader.rows()] == [bits(row) for row in table]
    assert reader.sample_ids() == [int(row[0]) for row in table]
    for i in (0, 2, 12):
        for c in range(3):
            sid, phi = reader.sample(i, c)
            assert (sid, bits(phi)) == (int(table[i][0]), bits(table[i][1 + c::3]))


@pytest.fixture(scope="module")
def three_kinds_run(tmp_path_factory):
    """A small run with a tree, a boosted ensemble and an MLP explained."""
    from shappaths.cli import main

    out = tmp_path_factory.mktemp("three_kinds") / "run"
    for argv in (["simulate", "--n", "90", "--p", "4"], ["train"], ["explain"]):
        assert main([*argv, "--out", str(out)]) == 0, argv
    return out


@pytest.mark.parametrize("kind", ["tree", "boosted", "mlp"])
def test_each_models_float64_body_loads_the_bits_of_its_csv(three_kinds_run, kind):
    json_path = three_kinds_run / f"shap_{kind}.json"
    from_csv, from_f64 = (load_tensor(json_path, three_kinds_run / f"shap_{kind}.{ext}")
                          for ext in ("csv", "f64"))
    for name in ("values", "base", "sample_ids"):
        assert getattr(from_csv, name).tobytes() == getattr(from_f64, name).tobytes(), name
    reader = TensorReader(json_path, three_kinds_run / f"shap_{kind}.f64")
    table = _csv_table(three_kinds_run / f"shap_{kind}.csv")
    assert [bits(row) for row in reader.rows()] == [bits(row) for row in table]
    assert reader.sample(5, 2) == (int(table[5][0]), table[5][3::3])


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
