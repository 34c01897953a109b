import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import brute_shapley_tree, tree_coalition_value
from shappaths import (BoostedEnsemble, load_model, save_model, train_boosted, train_tree,
                       tree_shap)
from shappaths.cli import main
from shappaths.errors import DataError
from shappaths.explain.tree_shap import shap_values_tree
from shappaths.models.tree import LEAF, DecisionTree
from util import assert_no_child_left, random_tree

# the package re-exports the function under the module's name
tree_shap_mod = importlib.import_module("shappaths.explain.tree_shap")
workers_mod = importlib.import_module("shappaths.workers")


def make_tree(feature, threshold, left, right, cover, value, n_features):
    return DecisionTree(feature=np.array(feature),
                        threshold=np.array(threshold, dtype=float),
                        left=np.array(left), right=np.array(right),
                        cover=np.array(cover, dtype=float),
                        value=np.atleast_2d(np.array(value, dtype=float)).reshape(
                            len(feature), -1),
                        n_features=n_features)


def assert_matches_oracle(tree, X, p, tol=1e-8):
    fast = shap_values_tree(tree, X, n_features=p)
    for i in range(X.shape[0]):
        assert np.abs(fast[i] - brute_shapley_tree(tree, X[i], p)).max() < tol


def test_single_leaf_all_zero():
    tree = make_tree([LEAF], [np.nan], [LEAF], [LEAF], [10.0], [[2.5, -1.0]], 3)
    t = tree_shap(tree, np.zeros((4, 3)))
    assert np.allclose(t.values, 0.0)
    assert np.allclose(t.base, [2.5, -1.0])
    assert_matches_oracle(tree, np.array([[0.0, 1.0, 2.0], [-3.0, 2.0, 0.5]]), 3)


def test_stump_closed_form():
    # stump on feature 0 at threshold 0; left value a, right value b
    a, b = 1.0, 4.0
    n_l, n_r = 30.0, 70.0
    tree = make_tree([0, LEAF, LEAF], [0.0, np.nan, np.nan], [1, LEAF, LEAF],
                     [2, LEAF, LEAF], [100.0, n_l, n_r], [[0.0], [a], [b]], 2)
    x_right = np.array([[1.0, 9.9]])
    t = tree_shap(tree, x_right)
    expected = b - (n_l * a + n_r * b) / (n_l + n_r)
    assert abs(t.values[0, 0, 0] - expected) < 1e-12
    assert abs(t.values[0, 1, 0]) == 0.0  # untouched feature
    # brute force agrees
    oracle = brute_shapley_tree(tree, x_right[0], 2)
    assert np.allclose(t.values[0], oracle, atol=1e-12)


def test_matches_brute_force_on_random_trees():
    rng = np.random.default_rng(42)
    for _ in range(12):
        p = int(rng.integers(2, 9))
        tree = random_tree(rng, n_features=p, max_depth=4, value_dim=int(rng.integers(1, 4)))
        X = rng.uniform(-2, 2, size=(2, p))
        fast = shap_values_tree(tree, X, n_features=p)
        for i in range(X.shape[0]):
            slow = brute_shapley_tree(tree, X[i], p)
            assert np.abs(fast[i] - slow).max() < 1e-8


def test_repeated_feature_along_path():
    # feature 0 appears twice on one path; unwinding must handle it
    tree = make_tree(
        feature=[0, 0, LEAF, LEAF, LEAF],
        threshold=[0.0, -1.0, np.nan, np.nan, np.nan],
        left=[1, 2, LEAF, LEAF, LEAF],
        right=[4, 3, LEAF, LEAF, LEAF],
        cover=[100.0, 60.0, 20.0, 40.0, 40.0],
        value=[[0.0], [0.0], [1.0], [2.0], [5.0]],
        n_features=3)
    rng = np.random.default_rng(0)
    X = rng.uniform(-2, 2, size=(6, 3))
    fast = shap_values_tree(tree, X, n_features=3)
    for i in range(6):
        slow = brute_shapley_tree(tree, X[i], 3)
        assert np.abs(fast[i] - slow).max() < 1e-10


def test_additivity_on_trained_models(sim_small_split):
    train, test = sim_small_split
    tree = train_tree(train, max_depth=6, min_leaf=2)
    t = tree_shap(tree, test.features, feature_names=test.feature_names,
                  class_names=test.class_names)
    margins = tree.predict_margin(test.features)
    gap = np.abs(t.values.sum(axis=1) - (margins - t.base)).max()
    assert gap < 1e-9
    # base equals the training-set mean margin exactly (covers are counts)
    assert np.abs(t.base - tree.predict_margin(train.features).mean(axis=0)).max() < 1e-12


def test_ensemble_linearity_and_additivity(sim_small_split):
    train, test = sim_small_split
    model = train_boosted(train, n_rounds=6, learning_rate=0.3, max_depth=2)
    t = tree_shap(model, test.features)
    margins = model.predict_margin(test.features)
    assert np.abs(t.values.sum(axis=1) - (margins - t.base)).max() < 1e-9
    # ensemble attributions equal the scaled sum of per-tree attributions
    total = np.zeros_like(t.values)
    for round_trees in model.rounds:
        for c, tree in enumerate(round_trees):
            total[:, :, c] += model.learning_rate * \
                shap_values_tree(tree, test.features, n_features=test.p)[:, :, 0]
    assert np.abs(total - t.values).max() < 1e-12
    assert np.abs(t.base - model.predict_margin(train.features).mean(axis=0)).max() < 1e-9


def test_symmetry_on_symmetric_model():
    # symmetric tree: swapping features 0 and 1 leaves the model unchanged
    tree = make_tree(
        feature=[0, 1, LEAF, LEAF, 1, LEAF, LEAF],
        threshold=[0.0, 0.0, np.nan, np.nan, 0.0, np.nan, np.nan],
        left=[1, 2, LEAF, LEAF, 5, LEAF, LEAF],
        right=[4, 3, LEAF, LEAF, 6, LEAF, LEAF],
        cover=[80.0, 40.0, 20.0, 20.0, 40.0, 20.0, 20.0],
        value=[[0.0], [0.0], [1.0], [2.0], [0.0], [2.0], [3.0]],
        n_features=2)
    phi = shap_values_tree(tree, np.array([[0.5, 0.5]]), n_features=2)[0]
    assert abs(phi[0, 0] - phi[1, 0]) < 1e-12


def test_dummy_feature_exactly_zero():
    rng = np.random.default_rng(2)
    tree = random_tree(rng, n_features=3, max_depth=3, value_dim=2)
    X = rng.uniform(-2, 2, size=(5, 4))  # feature 3 never appears in the tree
    tree.n_features = 4
    phi = shap_values_tree(tree, X, n_features=4)
    assert (phi[:, 3, :] == 0.0).all()


def test_zero_cover_rejected():
    tree = make_tree([0, LEAF, LEAF], [0.0, np.nan, np.nan], [1, LEAF, LEAF],
                     [2, LEAF, LEAF], [10.0, 0.0, 10.0], [[0.0], [1.0], [2.0]], 1)
    with pytest.raises(DataError, match="cover"):
        tree_shap(tree, np.zeros((1, 1)))


def test_non_finite_rows_rejected():
    tree = make_tree([0, LEAF, LEAF], [0.0, np.nan, np.nan], [1, LEAF, LEAF],
                     [2, LEAF, LEAF], [10.0, 4.0, 6.0], [[0.0], [1.0], [2.0]], 2)
    for bad in (np.nan, np.inf):
        with pytest.raises(DataError, match="finite"):
            tree_shap(tree, np.array([[0.5, bad]]))


def test_oracle_value_function_sanity():
    # the oracle's own value function: full coalition routes to x's leaf
    rng = np.random.default_rng(8)
    tree = random_tree(rng, n_features=4, max_depth=3, value_dim=1)
    x = rng.uniform(-2, 2, size=4)
    full = tree_coalition_value(tree, x, frozenset(range(4)))
    assert np.allclose(full, tree.predict_margin(x[None, :])[0])
    empty = tree_coalition_value(tree, x, frozenset())
    assert np.allclose(empty, tree.expected_value())


# ---------------------------------------------------------------------------
# Cases the path packing could get wrong, each against the brute-force oracle

def test_feature_split_three_times_both_directions():
    # feature 0 narrows [0, inf) -> [0, 2) -> [1, 2) on one path, with a
    # feature-1 split in between; the other branches go both ways too
    tree = make_tree(
        feature=[0, LEAF, 1, 0, LEAF, 0, LEAF, LEAF, LEAF],
        threshold=[0.0, np.nan, 0.5, 2.0, np.nan, 1.0, np.nan, np.nan, np.nan],
        left=[1, LEAF, 3, 5, LEAF, 6, LEAF, LEAF, LEAF],
        right=[2, LEAF, 8, 4, LEAF, 7, LEAF, LEAF, LEAF],
        cover=[100.0, 30.0, 70.0, 45.0, 15.0, 30.0, 10.0, 20.0, 25.0],
        value=[[0, 0], [1, -1], [0, 0], [0, 0], [3, 0], [0, 0], [-2, 2], [5, 1], [0.5, 4]],
        n_features=3)
    X = np.array([[x0, x1, 0.0] for x0 in (-1.0, 0.5, 1.5, 2.5) for x1 in (0.0, 1.0)])
    assert_matches_oracle(tree, X, 3)


def test_three_dim_leaf_values_match_oracle():
    rng = np.random.default_rng(3)
    for _ in range(6):
        tree = random_tree(rng, n_features=4, max_depth=5, value_dim=3)
        assert_matches_oracle(tree, rng.uniform(-2, 2, size=(3, 4)), 4)


def test_boosted_trees_of_different_depth_match_oracle():
    # trees of depth 1 to 5 pack into one array per class, so the shallow
    # paths carry padding elements
    rng = np.random.default_rng(4)
    p, eta = 4, 0.5
    rounds = [[random_tree(rng, n_features=p, max_depth=depth, value_dim=1)
               for depth in (1 + r, 5 - r)] for r in range(3)]
    model = BoostedEnsemble(base_score=np.array([0.1, -0.2]), rounds=rounds,
                            learning_rate=eta, lam=1.0, max_depth=5, n_features=p)
    packed = tree_shap_mod._pack([trees[0] for trees in rounds], eta)
    assert (packed.feature[-1] == -1).any()  # some paths are padded
    X = rng.uniform(-2, 2, size=(3, p))
    t = tree_shap(model, X)
    for i in range(X.shape[0]):
        for c in range(2):
            oracle = sum(eta * brute_shapley_tree(trees[c], X[i], p)[:, 0] for trees in rounds)
            assert np.abs(t.values[i, :, c] - oracle).max() < 1e-8
    assert np.abs(t.values.sum(axis=1) - (model.predict_margin(X) - t.base)).max() < 1e-9


def test_row_on_threshold_routes_right():
    tree = make_tree(
        feature=[0, 1, LEAF, LEAF, 0, LEAF, LEAF],
        threshold=[0.25, -1.5, np.nan, np.nan, 1.0, np.nan, np.nan],
        left=[1, 2, LEAF, LEAF, 5, LEAF, LEAF],
        right=[4, 3, LEAF, LEAF, 6, LEAF, LEAF],
        cover=[90.0, 40.0, 10.0, 30.0, 50.0, 20.0, 30.0],
        value=[[0.0], [0.0], [1.0], [2.0], [0.0], [4.0], [8.0]],
        n_features=2)
    X = np.array([[0.25, -1.5], [1.0, 0.0], [0.25, 3.0], [-1.0, -1.5]])
    assert_matches_oracle(tree, X, 2)
    t = tree_shap(tree, X)
    assert np.abs(t.values.sum(axis=1) - (tree.predict_margin(X) - t.base)).max() < 1e-12


# ---------------------------------------------------------------------------
# Byte determinism: no dependence on the row chunking or on BLAS threads

@pytest.fixture(scope="module")
def boosted_450(sim_small_split, sim_small):
    train, _ = sim_small_split
    return train_boosted(train, n_rounds=20, max_depth=3), sim_small.features[:450]


def test_values_identical_across_row_chunks(boosted_450, monkeypatch):
    model, X = boosted_450
    whole = tree_shap(model, X)
    sizes = [tree_shap_mod._pack([trees[c] for trees in model.rounds]).z.size
             for c in range(model.n_classes)]
    monkeypatch.setattr(tree_shap_mod, "_CHUNK_FLOATS", 150 * min(sizes))
    chunked = tree_shap(model, X)  # at most 150 rows per chunk: 3 or more chunks
    assert chunked.values.tobytes() == whole.values.tobytes()
    assert chunked.base.tobytes() == whole.base.tobytes()


def test_values_identical_with_one_blas_thread(boosted_450, tmp_path):
    model, X = boosted_450
    save_model(model, tmp_path / "model.json")
    np.save(tmp_path / "X.npy", X)
    code = ("import sys, numpy as np; from shappaths import load_model, tree_shap; "
            "t = tree_shap(load_model(sys.argv[1]), np.load(sys.argv[2])); "
            "np.save(sys.argv[3], t.values)")
    src = str(Path(tree_shap_mod.__file__).resolve().parents[2])  # this shappaths
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    subprocess.run([sys.executable, "-c", code, str(tmp_path / "model.json"),
                    str(tmp_path / "X.npy"), str(tmp_path / "out.npy")],
                   check=True, env=env)
    here = tree_shap(load_model(tmp_path / "model.json"), X)
    assert np.load(tmp_path / "out.npy").tobytes() == here.values.tobytes()


# ---------------------------------------------------------------------------
# worker processes: rows split over forked workers, in whole chunks or not

def _chunk_rows(monkeypatch, packs, rows):
    """Patches _CHUNK_FLOATS so that the largest pack takes ``rows`` rows per chunk."""
    monkeypatch.setattr(tree_shap_mod, "_CHUNK_FLOATS", rows * max(q.z.size for q in packs))


def _class_packs(model):
    return [tree_shap_mod._pack([trees[c] for trees in model.rounds], model.learning_rate)
            for c in range(model.n_classes)]


@pytest.fixture(scope="module")
def tree_31(sim_small_split, sim_small):
    train, _ = sim_small_split
    return train_tree(train, max_depth=6, min_leaf=2), sim_small.features[:31]


def test_values_byte_identical_for_any_worker_count(workers, monkeypatch, tree_31, boosted_450):
    """31 rows in chunks of 7 (the largest pack's) split 16 | 15 over two
    workers, so neither worker's rows are whole chunks; the boosted
    ensemble's smaller packs take longer chunks. Both counts give the
    bytes of one unchunked call, and the ensemble forks once, not once
    per class."""
    tree, X = tree_31
    model, X450 = boosted_450
    for explained, rows, packs in [(tree, X, [tree_shap_mod._pack([tree])]),
                                   (model, X450[:31], _class_packs(model))]:
        whole = tree_shap(explained, rows).values.tobytes()
        with monkeypatch.context() as patch:
            _chunk_rows(patch, packs, 7)
            for count in (1, 2):
                forks = workers(count)
                t = tree_shap(explained, rows)
                assert len(forks) == count - 1
                assert t.values.tobytes() == whole
    assert_no_child_left()


@pytest.mark.parametrize("n, forked", [(1, 0), (8, 0), (9, 1)])
def test_rows_within_one_chunk_never_fork(workers, monkeypatch, boosted_450, n, forked):
    """At 8 rows per chunk of the largest pack, 8 rows stay in this process
    on a two-CPU host and 9 take a second worker."""
    model, X = boosted_450
    _chunk_rows(monkeypatch, _class_packs(model), 8)
    forks = workers(2)
    tree_shap(model, X[:n])
    assert len(forks) == forked
    assert_no_child_left()


def test_one_cpu_never_forks(monkeypatch, tree_31):
    monkeypatch.setattr(workers_mod, "MAX_WORKERS", 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})

    def no_fork():
        raise AssertionError("forked on a one-CPU affinity")

    monkeypatch.setattr(os, "fork", no_fork)
    tree, X = tree_31
    _chunk_rows(monkeypatch, [tree_shap_mod._pack([tree])], 3)  # 11 chunks
    t = tree_shap(tree, X)
    assert np.abs(t.values.sum(axis=1) - (tree.predict_margin(X) - t.base)).max() < 1e-9


TREE_RUN = {"seed": 4, "dataset": {"n_samples": 120, "n_features": 5},
            "models": {"tree": {}}, "cluster": {"source": "tree"}}


def test_failed_worker_exits_4_naming_its_rows(workers, monkeypatch, tmp_path, capfd):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(TREE_RUN))
    out = tmp_path / "run"
    for command in ("simulate", "train"):
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    parent, chunk = os.getpid(), tree_shap_mod._shap_chunk

    def chunk_in_parent_only(packed, table, X, values):
        if os.getpid() != parent:
            raise RuntimeError("path weights failed in a worker")
        return chunk(packed, table, X, values)

    monkeypatch.setattr(tree_shap_mod, "_shap_chunk", chunk_in_parent_only)
    monkeypatch.setattr(tree_shap_mod, "_CHUNK_FLOATS", 1)  # one row per chunk
    workers(2)
    assert main(["explain", "--out", str(out)]) == 4
    err = capfd.readouterr().err
    assert "TreeSHAP worker failed: rows 18-35 exited with status 1" in err
    assert "Traceback" not in err
    assert not (out / "shap_tree.csv").exists()
    assert_no_child_left()


# ---------------------------------------------------------------------------
# pattern tables: path weights evaluated once per pattern of one fractions
# give the bytes of the weights evaluated for each row

def _both_ways(packs, X, p):
    """The attributions of ``packs`` on X from path weights evaluated on the
    rows' own columns, and read from each pack's full pattern table."""
    width = sum(packed.width for packed in packs)
    by_rows, by_patterns = np.zeros((len(X), p, width)), np.zeros((len(X), p, width))
    c = 0
    for packed in packs:
        if packed.groups:
            table = tree_shap_mod._pattern_table(packed, 2 ** (packed.z.shape[0] - 1))
            tree_shap_mod._shap_chunk(packed, None, X, by_rows[:, :, c:c + packed.width])
            tree_shap_mod._shap_chunk(packed, table, X, by_patterns[:, :, c:c + packed.width])
        c += packed.width
    return by_rows, by_patterns


def _repeated_feature_tree():
    # feature 0 narrows [0, inf) -> [0, 2) -> [1, 2) on one path
    return make_tree(
        feature=[0, LEAF, 1, 0, LEAF, 0, LEAF, LEAF, LEAF],
        threshold=[0.0, np.nan, 0.5, 2.0, np.nan, 1.0, np.nan, np.nan, np.nan],
        left=[1, LEAF, 3, 5, LEAF, 6, LEAF, LEAF, LEAF],
        right=[2, LEAF, 8, 4, LEAF, 7, LEAF, LEAF, LEAF],
        cover=[100.0, 30.0, 70.0, 45.0, 15.0, 30.0, 10.0, 20.0, 25.0],
        value=[[0, 0], [1, -1], [0, 0], [0, 0], [3, 0], [0, 0], [-2, 2], [5, 1], [0.5, 4]],
        n_features=3)


def _mixed_depth_ensemble(seed=4, p=4):
    rng = np.random.default_rng(seed)
    rounds = [[random_tree(rng, n_features=p, max_depth=depth, value_dim=1)
               for depth in (1 + r, 5 - r)] for r in range(3)]
    return BoostedEnsemble(base_score=np.array([0.1, -0.2]), rounds=rounds,
                           learning_rate=0.5, lam=1.0, max_depth=5, n_features=p)


def _case(name):
    """(packs, X, p) of one case whose path weights the table must reproduce."""
    rng = np.random.default_rng(11)
    if name == "repeated-feature":
        X = np.array([[x0, x1, 0.0] for x0 in (-1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5)
                      for x1 in (0.0, 0.5, 1.0)])  # on and between every threshold
        return [tree_shap_mod._pack([_repeated_feature_tree()])], X, 3
    if name == "on-threshold":
        tree = make_tree(
            feature=[0, 1, LEAF, LEAF, 0, LEAF, LEAF],
            threshold=[0.25, -1.5, np.nan, np.nan, 1.0, np.nan, np.nan],
            left=[1, 2, LEAF, LEAF, 5, LEAF, LEAF], right=[4, 3, LEAF, LEAF, 6, LEAF, LEAF],
            cover=[90.0, 40.0, 10.0, 30.0, 50.0, 20.0, 30.0],
            value=[[0.0], [0.0], [1.0], [2.0], [0.0], [4.0], [8.0]], n_features=2)
        X = np.array([[0.25, -1.5], [1.0, 0.0], [0.25, 3.0], [-1.0, -1.5], [1.0, -1.5]])
        return [tree_shap_mod._pack([tree])], X, 2
    if name == "padding":  # trees of depth 1 to 5 in one pack: short paths are padded
        model = _mixed_depth_ensemble()
        packed = tree_shap_mod._pack([trees[0] for trees in model.rounds], 0.5)
        assert (packed.feature[-1] == -1).any()
        return [packed], rng.uniform(-2, 2, size=(40, 4)), 4
    if name == "one-split":
        tree = make_tree([0, LEAF, LEAF], [0.0, np.nan, np.nan], [1, LEAF, LEAF],
                         [2, LEAF, LEAF], [100.0, 30.0, 70.0], [[0.0], [1.0], [4.0]], 2)
        return [tree_shap_mod._pack([tree])], np.array([[0.0, 1.0], [-1.0, 0.0], [2.0, 5.0]]), 2
    model = _mixed_depth_ensemble(seed=5)  # "boosted-mixed-depth"
    return _class_packs(model), rng.uniform(-2, 2, size=(40, 4)), 4


@pytest.mark.parametrize("name", ["repeated-feature", "on-threshold", "padding", "one-split",
                                  "boosted-mixed-depth"])
def test_pattern_table_gives_the_bytes_of_row_weights(name):
    packs, X, p = _case(name)
    by_rows, by_patterns = _both_ways(packs, X, p)
    assert by_patterns.tobytes() == by_rows.tobytes()
    assert np.abs(by_rows).max() > 0


def _columns(monkeypatch) -> list:
    """The column count of every path-weight evaluation from here on."""
    columns, contributions = [], tree_shap_mod._contributions

    def counted(packed, o):
        columns.append(o.shape[-1])
        return contributions(packed, o)

    monkeypatch.setattr(tree_shap_mod, "_contributions", counted)
    return columns


def test_mode_boundary_gives_the_same_bytes(workers, monkeypatch, sim_small_split, sim_small):
    """At 2 ** (D - 1) rows per chunk the tree's weights come from one table
    of that many pattern columns; one float less per chunk and they are
    evaluated per chunk of rows. The bytes are the same, also for a call of
    fewer rows than patterns, which never builds a table."""
    train, _ = sim_small_split
    tree, X = train_tree(train, max_depth=6, min_leaf=2), sim_small.features[:300]
    packed = tree_shap_mod._pack([tree])
    patterns = 2 ** (packed.z.shape[0] - 1)
    assert patterns < len(X)
    workers(1)
    columns = _columns(monkeypatch)
    monkeypatch.setattr(tree_shap_mod, "_CHUNK_FLOATS", patterns * packed.z.size)
    table = tree_shap(tree, X).values
    assert columns == [patterns]
    columns.clear()
    monkeypatch.setattr(tree_shap_mod, "_CHUNK_FLOATS", patterns * packed.z.size - 1)
    rows = tree_shap(tree, X).values
    assert max(columns) == patterns - 1 and sum(columns) == len(X)
    assert table.tobytes() == rows.tobytes()
    columns.clear()
    monkeypatch.setattr(tree_shap_mod, "_CHUNK_FLOATS", 2 ** 40)
    few = tree_shap(tree, X[:patterns - 1]).values
    assert columns == [patterns - 1]
    assert few.tobytes() == table[:patterns - 1].tobytes()


def _chain(depth):
    """A tree that splits on features 0, 1, ..., depth - 1 in turn down its
    right spine, each left child a leaf: one path holds every feature."""
    feature, threshold, left, right, cover, value = [], [], [], [], [], []
    for k in range(depth):
        node = len(feature)
        feature += [k, LEAF]
        threshold += [0.1 * k - 0.5, np.nan]
        left += [node + 1, LEAF]
        right += [node + 2, LEAF]
        cover += [10.0 * (depth + 1 - k), 10.0]
        value += [[0.0], [float(k) - 3.0]]
    feature.append(LEAF), threshold.append(np.nan), left.append(LEAF), right.append(LEAF)
    cover.append(10.0), value.append([7.0])
    return make_tree(feature, threshold, left, right, cover, value, depth)


def test_deep_tree_stays_on_row_columns(workers, monkeypatch):
    """Depth 12 has 4096 patterns, more than a chunk's rows: the weights are
    evaluated per chunk, no table is built, and no evaluation is wider than a
    chunk, however many rows the call has."""
    tree = _chain(12)
    packed = tree_shap_mod._pack([tree])
    assert packed.z.shape[0] - 1 == 12
    step = tree_shap_mod._CHUNK_FLOATS // packed.z.size
    assert step < 2 ** 12
    assert tree_shap_mod._pattern_table(packed, step) is None
    X = np.random.default_rng(12).uniform(-1, 1, size=(2 * 2 ** 12, 12))
    workers(1)
    columns = _columns(monkeypatch)
    t = tree_shap(tree, X)
    assert max(columns) <= step and sum(columns) == len(X)
    assert np.abs(t.values.sum(axis=1) - (tree.predict_margin(X) - t.base)).max() < 1e-9


def test_tables_are_no_larger_than_a_chunk(boosted_450, sim_small_split):
    """Every table built for a call holds no more floats than one chunk's
    (D, P, rows) weight array."""
    train, _ = sim_small_split
    model, X = boosted_450
    for packs in (_class_packs(model),
                  [tree_shap_mod._pack([train_tree(train, max_depth=6, min_leaf=2)])]):
        for packed in packs:
            step = max(1, tree_shap_mod._CHUNK_FLOATS // packed.z.size)
            table = tree_shap_mod._pattern_table(packed, min(len(X), step))
            assert table is not None
            assert sum(t.size for t in table) <= packed.z.size * step
