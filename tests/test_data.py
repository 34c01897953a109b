import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shappaths import (Dataset, SimulationSpec, SplitSpec, load_csv, load_idx_images,
                       min_max_scale, simulate, write_csv)
from shappaths.cli import main
from shappaths.data import class_probabilities, read_csv, split_indices
from shappaths.errors import DataError, InvalidSpecError
from util import AWKWARD, QUOTED_CLASSES, QUOTED_FEATURES, to_file


def test_simulate_shapes_and_ranges():
    ds = simulate(SimulationSpec(seed=1))
    assert (ds.n, ds.p, ds.k) == (1500, 10, 3)
    assert set(np.unique(ds.labels)) <= {0, 1, 2}
    assert ds.features.min() >= -5 and ds.features.max() <= 5
    assert ds.class_names == ("class_1", "class_2", "class_3")


def test_simulate_deterministic():
    a = simulate(SimulationSpec(seed=9))
    b = simulate(SimulationSpec(seed=9))
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    c = simulate(SimulationSpec(seed=10))
    assert not np.array_equal(a.labels, c.labels)


def test_simulate_needs_two_features():
    with pytest.raises(InvalidSpecError):
        simulate(SimulationSpec(n_features=1))


def test_forced_corner_probability():
    # at (5, 5, 0, ..., 0) with zero noise terms: f1 = 140, f2 = 60
    beta = np.zeros((2, 8))
    x = np.zeros((1, 10))
    x[0, :2] = 5.0
    probs = class_probabilities(x, beta)[0]
    assert probs[0] > 0.999999
    assert abs(probs.sum() - 1.0) < 1e-12


def test_probabilities_normalized():
    spec = SimulationSpec(seed=4).resolved()
    ds = simulate(spec)
    probs = class_probabilities(ds.features, spec.noise_coefficients)
    assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-12


def test_positive_quadrant_monte_carlo():
    # with zero noise coefficients, class 1 dominates when x1, x2 > 0
    rng = np.random.default_rng(0)
    X = rng.uniform(0, 5, size=(100_000, 2))
    probs = class_probabilities(X, np.zeros((2, 0)))
    u = rng.random(100_000)
    labels = (u >= probs[:, 0]).astype(int) + (u >= probs[:, :2].sum(axis=1))
    assert (labels == 0).mean() > 0.9


def test_test_set_class_frequencies_near_reported():
    ds = simulate(SimulationSpec(seed=0))
    test = ds.take(split_indices(ds.labels, SplitSpec(seed=0))[1])
    freqs = np.bincount(test.labels, minlength=3) / test.n
    target = np.array([138, 142, 170]) / 450.0
    assert np.abs(freqs - target).max() < 0.05


def test_split_sizes_and_partition():
    ds = simulate(SimulationSpec(n_samples=333, n_features=4, seed=2))
    ti, si = split_indices(ds.labels, SplitSpec(train_fraction=0.7, seed=3))
    train, test = ds.take(ti), ds.take(si)
    assert train.n == round(0.7 * 333)
    assert train.n + test.n == ds.n
    assert np.intersect1d(ti, si).size == 0
    assert np.union1d(ti, si).size == ds.n


def test_split_deterministic_and_seed_sensitive():
    labels = np.arange(100) % 3
    a = split_indices(labels, SplitSpec(seed=7))
    b = split_indices(labels, SplitSpec(seed=7))
    c = split_indices(labels, SplitSpec(seed=8))
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    assert not np.array_equal(a[0], c[0])


def test_stratified_split_proportions():
    labels = np.repeat([0, 1, 2], [60, 30, 10])
    train_idx, _ = split_indices(labels, SplitSpec(train_fraction=0.7, stratified=True, seed=1))
    counts = np.bincount(labels[train_idx], minlength=3)
    exact = 0.7 * np.array([60, 30, 10])
    assert (np.abs(counts - exact) <= 1.0).all()


def test_stratified_split_rejects_singleton_class():
    labels = np.array([0, 0, 0, 1])
    with pytest.raises(InvalidSpecError):
        split_indices(labels, SplitSpec(stratified=True, seed=0))


def test_min_max_scale_basic():
    ds = Dataset(np.array([[2.0, 7.0], [4.0, 7.0], [6.0, 7.0]]),
                 np.array([0, 1, 0]), ("u", "v"), ("a", "b"))
    scaled, meta = min_max_scale(ds)
    assert np.allclose(scaled.features[:, 0], [0.0, 0.5, 1.0])
    assert np.allclose(scaled.features[:, 1], 0.0)  # constant column maps to 0
    back = scaled.features * np.where(meta.ranges > 0, meta.ranges, 1.0) + meta.mins
    assert np.abs(back - ds.features).max() < 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 40), st.integers(1, 6), st.integers(0, 10_000))
def test_min_max_scale_in_unit_box(n, p, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p)) * rng.uniform(0.0, 10.0, size=p)
    ds = Dataset(X, rng.integers(0, 2, size=n), [f"f{j}" for j in range(p)], ("a", "b"))
    scaled, meta = min_max_scale(ds)
    assert scaled.features.min() >= 0.0 and scaled.features.max() <= 1.0
    back = scaled.features * np.where(meta.ranges > 0, meta.ranges, 1.0) + meta.mins
    assert np.abs(back - X).max() <= 1e-9 * max(1.0, np.abs(X).max())


def test_csv_round_trip(tmp_path):
    ds = simulate(SimulationSpec(n_samples=20, n_features=3, seed=5))
    path = tmp_path / "ds.csv"
    write_csv(ds, to_file(path), target_column_name="label")
    loaded = load_csv(path, "label")
    assert np.array_equal(loaded.features, ds.features)  # repr round-trips exactly
    assert loaded.feature_names == ds.feature_names
    assert [loaded.class_names[v] for v in loaded.labels] == \
           [ds.class_names[v] for v in ds.labels]


def _loop_write(ds, path, target_column_name):
    """The per-row writer that write_csv replaced, kept as its oracle."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(ds.feature_names) + [target_column_name])
        for i in range(ds.n):
            writer.writerow([repr(float(v)) for v in ds.features[i]]
                            + [ds.class_names[ds.labels[i]]])


@pytest.mark.parametrize("quoted", [False, True], ids=["plain", "quoted"])
def test_bulk_dataset_io_matches_the_per_row_loop(tmp_path, quoted):
    rng = np.random.default_rng(12)
    random = rng.standard_normal(152) * 10.0 ** rng.integers(-300, 300, 152)
    X = np.concatenate([AWKWARD * 3, random]).reshape(50, 4)
    labels = np.r_[2, 0, rng.integers(0, 3, 47), 1]  # first appearance is not class order
    ds = Dataset(X, labels, QUOTED_FEATURES, QUOTED_CLASSES) if quoted \
        else Dataset(X, labels, ("f0", "f1", "f2", "f3"), ("u", "v", "w"))
    path, oracle = tmp_path / "ds.csv", tmp_path / "oracle.csv"
    write_csv(ds, to_file(path), target_column_name="__target__")
    _loop_write(ds, oracle, "__target__")
    assert path.read_bytes() == oracle.read_bytes()
    back = read_csv(path, ds.class_names)
    assert np.array_equal(back.features.view(np.uint64), ds.features.view(np.uint64))
    assert np.array_equal(back.labels, ds.labels)
    assert (back.feature_names, back.class_names) == (ds.feature_names, ds.class_names)
    checked = load_csv(path, "__target__")  # the checked reader that the reload replaced
    assert np.array_equal(back.features.view(np.uint64), checked.features.view(np.uint64))
    assert [checked.class_names[v] for v in checked.labels] == \
        [back.class_names[v] for v in back.labels]


def test_csv_complete_case_drop(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("a,b,y\n1,2,x\n3,,x\n4,5,z\n6,7,x\n")
    ds = load_csv(path, "y")
    assert ds.n == 3
    assert ds.class_names == ("x", "z")  # first-appearance encoding


def test_csv_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,y\n1,oops,x\n2,3,z\n")
    with pytest.raises(DataError, match="non-numeric"):
        load_csv(path, "y")
    with pytest.raises(DataError, match="target column"):
        load_csv(path, "missing")
    empty = tmp_path / "empty.csv"
    empty.write_text("a,b,y\n1,,x\n,2,z\n")
    with pytest.raises(DataError, match="no complete rows"):
        load_csv(empty, "y")


def _write_idx(tmp_path, images, labels):
    import struct

    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    ip = tmp_path / "imgs.idx"
    lp = tmp_path / "labs.idx"
    with open(ip, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, *images.shape))
        fh.write(images.tobytes())
    with open(lp, "wb") as fh:
        fh.write(struct.pack(">II", 0x00000801, labels.shape[0]))
        fh.write(labels.tobytes())
    return ip, lp


def test_idx_flattening(tmp_path):
    images = np.zeros((2, 28, 28), dtype=np.uint8)
    images[1, 3, 4] = 200
    ip, lp = _write_idx(tmp_path, images, [3, 7])
    ds = load_idx_images(ip, lp)
    assert (ds.n, ds.p) == (2, 784)
    assert ds.features[0].sum() == 0.0
    assert ds.features[1, 3 * 28 + 4] == 200.0  # row-major layout
    assert ds.class_names == ("3", "7")


def test_idx_count_mismatch(tmp_path):
    images = np.zeros((3, 4, 4), dtype=np.uint8)
    ip, lp = _write_idx(tmp_path, images, [0, 1])
    with pytest.raises(DataError, match="mismatch"):
        load_idx_images(ip, lp)


def test_idx_magic_mismatch(tmp_path):
    images = np.zeros((2, 4, 4), dtype=np.uint8)
    ip, lp = _write_idx(tmp_path, images, [0, 1])
    with pytest.raises(DataError, match="magic"):
        load_idx_images(lp, lp)


def test_idx_truncated_dimensions_exit_2(tmp_path, capsys):
    images = np.zeros((2, 4, 4), dtype=np.uint8)
    ip, lp = _write_idx(tmp_path, images, [0, 1])
    ip.write_bytes(ip.read_bytes()[:8])  # the magic and the first dimension
    with pytest.raises(DataError, match="truncated IDX header"):
        load_idx_images(ip, lp)
    assert main(["load", "--idx-images", str(ip), "--idx-labels", str(lp),
                 "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert "truncated IDX header" in err and str(ip) in err and "Traceback" not in err


def test_dataset_invariants():
    with pytest.raises(DataError):
        Dataset(np.ones((2, 2)), np.array([0, 5]), ("a", "b"), ("x", "y"))
    with pytest.raises(DataError):
        Dataset(np.ones((2, 2)), np.array([0, 1]), ("a", "a"), ("x", "y"))
    with pytest.raises(DataError):
        Dataset(np.ones((2, 2)), np.array([0, 0]), ("a", "b"), ("x",))
