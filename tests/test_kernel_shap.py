import importlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from oracles import blocked_coalition_values, brute_shapley_interventional
from shappaths import (Background, kernel_shap, sample_background, train_boosted, train_mlp,
                       train_tree, tree_shap)
from shappaths.cli import main
from shappaths.errors import InvalidSpecError
from shappaths.explain.kernel_shap import kernel_weight, sample_coalitions
from shappaths.models.mlp import Mlp, init_mlp
from shappaths.rng import generator
from util import ConstantModel, LinearModel, assert_no_child_left, random_tree

workers_mod = importlib.import_module("shappaths.workers")


def test_constant_model_zero_attributions():
    model = ConstantModel([1.0, -2.0, 0.5])
    rng = np.random.default_rng(0)
    bg = Background(rng.normal(size=(10, 4)))
    t = kernel_shap(model, rng.normal(size=(3, 4)), bg, n_coalitions=14, seed=0)
    assert np.abs(t.values).max() < 1e-9
    assert np.allclose(t.base, [1.0, -2.0, 0.5])


def test_model_kind_is_the_kind_whatever_the_explainer(sim_small_split):
    """Kernel SHAP names a tree, an ensemble and a network by their kinds, as
    TreeSHAP does; a class outside the kinds keeps its lower-cased name."""
    train, test = sim_small_split
    rng = np.random.default_rng(2)
    bg = Background(train.features[:6])
    X = test.features[:2]
    models = {"tree": train_tree(train, max_depth=2),
              "boosted": train_boosted(train, n_rounds=2, max_depth=2),
              "mlp": train_mlp(train, (train.p, 4, train.k), epochs=2, seed=0),
              "constantmodel": ConstantModel(rng.normal(size=train.k))}
    for kind, model in models.items():
        assert kernel_shap(model, X, bg, n_coalitions=30, seed=0).model_kind == kind, kind
        if kind in ("tree", "boosted"):
            assert tree_shap(model, X).model_kind == kind


def test_linear_model_closed_form():
    rng = np.random.default_rng(1)
    beta = rng.normal(size=(2, 5))
    model = LinearModel(beta, intercept=[0.3, -0.1])
    bg = Background(rng.normal(size=(40, 5)))
    X = rng.normal(size=(4, 5))
    t = kernel_shap(model, X, bg, n_coalitions=2 ** 5 - 2, seed=0)
    expected = (X[:, :, None] - bg.data.mean(axis=0)[None, :, None]) * beta.T[None, :, :]
    assert np.abs(t.values - expected).max() < 1e-8
    assert t.method == "kernel_shap_exact"


def test_full_enumeration_matches_ordering_oracle():
    rng = np.random.default_rng(3)
    tree = random_tree(rng, n_features=5, max_depth=3, value_dim=2)
    bg = Background(rng.uniform(-2, 2, size=(8, 5)))
    X = rng.uniform(-2, 2, size=(3, 5))
    t = kernel_shap(tree, X, bg, n_coalitions=2 ** 5 - 2, seed=0)
    for i in range(3):
        oracle = brute_shapley_interventional(tree, X[i], bg.data)
        assert np.abs(t.values[i] - oracle).max() < 1e-6


def test_additivity_exact_for_enumerated():
    rng = np.random.default_rng(4)
    tree = random_tree(rng, n_features=4, max_depth=3, value_dim=3)
    bg = Background(rng.uniform(-2, 2, size=(15, 4)))
    X = rng.uniform(-2, 2, size=(6, 4))
    t = kernel_shap(tree, X, bg, n_coalitions=2 ** 4 - 2, seed=0)
    margins = tree.predict_margin(X)
    assert np.abs(t.values.sum(axis=1) - (margins - t.base)).max() < 1e-6


def test_sampled_budget_deterministic_and_additive():
    rng = np.random.default_rng(5)
    tree = random_tree(rng, n_features=9, max_depth=4, value_dim=2)
    bg = Background(rng.uniform(-2, 2, size=(20, 9)))
    X = rng.uniform(-2, 2, size=(2, 9))
    a = kernel_shap(tree, X, bg, n_coalitions=120, seed=7)
    b = kernel_shap(tree, X, bg, n_coalitions=120, seed=7)
    c = kernel_shap(tree, X, bg, n_coalitions=120, seed=8)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    assert a.method == "kernel_shap"
    # the sum constraint is enforced by construction even when sampling
    margins = tree.predict_margin(X)
    assert np.abs(a.values.sum(axis=1) - (margins - a.base)).max() < 1e-9


def test_symmetry_for_symmetric_linear_model():
    model = LinearModel([[2.0, 2.0, -1.0]])
    bg = Background(np.zeros((5, 3)))
    x = np.array([[0.7, 0.7, 0.1]])
    t = kernel_shap(model, x, bg, n_coalitions=6, seed=0)
    assert abs(t.values[0, 0, 0] - t.values[0, 1, 0]) < 1e-9


def test_dummy_feature_near_zero():
    model = LinearModel([[1.5, 0.0, -2.0]])  # feature 1 unused
    rng = np.random.default_rng(6)
    bg = Background(rng.normal(size=(25, 3)))
    t = kernel_shap(model, rng.normal(size=(3, 3)), bg, n_coalitions=6, seed=0)
    assert np.abs(t.values[:, 1, :]).max() < 1e-8


def test_single_feature_model():
    model = LinearModel([[3.0]])
    bg = Background(np.array([[1.0], [3.0]]))
    t = kernel_shap(model, np.array([[5.0]]), bg, n_coalitions=10, seed=0)
    assert abs(t.values[0, 0, 0] - 3.0 * (5.0 - 2.0)) < 1e-12


def test_eval_budget_enforced(monkeypatch):
    monkeypatch.setattr(importlib.import_module("shappaths.explain.kernel_shap"),
                        "MAX_MODEL_EVALS", 1000)
    model = LinearModel([[1.0] * 12])
    bg = Background(np.zeros((50, 12)))
    with pytest.raises(InvalidSpecError, match="budget"):
        kernel_shap(model, np.zeros((10, 12)), bg, n_coalitions=2048, seed=0)


def test_kernel_on_trained_mlp(sim_small_split):
    train, test = sim_small_split
    model = train_mlp(train, (train.p, 8, train.k), epochs=30, seed=0)
    bg = sample_background(train.features, size=30, seed=0)
    t = kernel_shap(model, test.features[:5], bg, n_coalitions=2 ** train.p - 2, seed=0)
    margins = model.predict_margin(test.features[:5])
    assert np.abs(t.values.sum(axis=1) - (margins - t.base)).max() < 1e-6


def test_coalition_sampler_structure():
    rng = np.random.default_rng(0)
    coalitions, weights = sample_coalitions(10, 200, rng)
    sizes = coalitions.sum(axis=1).astype(int)
    assert coalitions.shape[1] == 10
    assert (sizes >= 1).all() and (sizes <= 9).all()
    assert (weights > 0).all()
    # fully enumerated outer strata carry exact kernel weights
    ones = sizes == 1
    assert np.allclose(weights[ones], kernel_weight(10, 1))
    assert ones.sum() == 10 and (sizes == 9).sum() == 10


def test_background_subsample_deterministic():
    X = np.arange(600, dtype=float).reshape(200, 3)
    a = sample_background(X, size=50, seed=1)
    b = sample_background(X, size=50, seed=1)
    assert np.array_equal(a.data, b.data)
    assert a.m == 50
    small = sample_background(X[:20], size=50, seed=1)
    assert small.m == 20  # fewer rows than requested: keep everything


class _CountingModel:
    def __init__(self, model):
        self.model, self.calls = model, []

    def predict_margin(self, X):
        self.calls.append(X.shape[0])
        return self.model.predict_margin(X)


def test_model_evaluated_in_small_blocks(monkeypatch):
    """Masked rows reach the model in blocks of at most _BLOCK_ROWS (one
    coalition's background when that is larger); the blocking changes the
    values by rounding only."""
    ks = importlib.import_module("shappaths.explain.kernel_shap")
    rng = np.random.default_rng(3)
    model = _CountingModel(init_mlp((5, 8, 3), rng))
    bg = Background(rng.normal(size=(40, 5)))
    X = rng.normal(size=(2, 5))
    values = []
    for rows in (1, ks._BLOCK_ROWS, 10 ** 9):
        monkeypatch.setattr(ks, "_BLOCK_ROWS", rows)
        model.calls.clear()
        values.append(kernel_shap(model, X, bg, n_coalitions=30, seed=0).values)
        assert max(model.calls) <= max(rows, bg.m)
    assert np.abs(values[0] - values[1]).max() < 1e-12
    assert np.abs(values[2] - values[1]).max() < 1e-12


@pytest.mark.parametrize("p", [2, 3, 5, 10])
def test_full_budget_enumerates_every_coalition_once(p):
    """A budget of 2^p - 2 yields each proper coalition once with its exact
    kernel weight and draws nothing from the rng."""
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    coalitions, weights = sample_coalitions(p, 2 ** p - 2, rng)
    assert rng.bit_generator.state == state
    codes = coalitions @ (2 ** np.arange(p))
    assert sorted(codes.astype(int).tolist()) == list(range(1, 2 ** p - 1))
    sizes = coalitions.sum(axis=1).astype(int)
    assert np.array_equal(weights, [kernel_weight(p, s) for s in sizes])


@pytest.mark.parametrize("budget", [2 ** 6 - 2, 30])
def test_batched_solve_matches_one_row_at_a_time(budget):
    """Solving all samples against one normal matrix gives each row the
    values it gets when explained alone."""
    rng = np.random.default_rng(8)
    model = init_mlp((6, 8, 3), rng)
    bg = Background(rng.normal(size=(15, 6)))
    X = rng.normal(size=(5, 6))
    batch = kernel_shap(model, X, bg, n_coalitions=budget, seed=2).values
    for i in range(X.shape[0]):
        alone = kernel_shap(model, X[i:i + 1], bg, n_coalitions=budget, seed=2).values
        assert np.abs(batch[i] - alone[0]).max() < 1e-12


def test_singular_regression_warns_once(monkeypatch, caplog):
    """A singular normal matrix gets one ridge and one warning per call,
    not one per explained row."""
    ks = importlib.import_module("shappaths.explain.kernel_shap")
    monkeypatch.setattr(ks, "sample_coalitions", lambda p, budget, rng: (
        np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]]), np.ones(2)))
    model = LinearModel([[1.0, -2.0, 0.5]], intercept=[0.2])
    rng = np.random.default_rng(9)
    bg = Background(rng.normal(size=(10, 3)))
    X = rng.normal(size=(5, 3))
    with caplog.at_level("WARNING", logger=ks.__name__):
        t = kernel_shap(model, X, bg, n_coalitions=4, seed=0)
    assert [r.levelname for r in caplog.records] == ["WARNING"]
    assert "singular" in caplog.records[0].getMessage()
    assert np.isfinite(t.values).all()
    margins = model.predict_margin(X)
    assert np.abs(t.values.sum(axis=1) - (margins - t.base)).max() < 1e-9


# ---------------------------------------------------------------------------
# worker processes: the worker count never changes a value

@pytest.mark.parametrize("budget", [2 ** 6 - 2, 30], ids=["exact", "sampled"])
@pytest.mark.parametrize("n", [1, 3])
def test_values_byte_identical_for_any_worker_count(workers, budget, n):
    """n = 1 never forks; n = 3 splits into uneven chunks of 1 and 2 rows."""
    rng = np.random.default_rng(10)
    model = init_mlp((6, 8, 3), rng)
    bg = Background(rng.normal(size=(15, 6)))
    X = rng.normal(size=(n, 6))
    out = []
    for count in (1, 2):
        forks = workers(count)
        t = kernel_shap(model, X, bg, n_coalitions=budget, seed=2)
        out.append((t.values.tobytes(), t.base.tobytes()))
        assert len(forks) == min(count, n) - 1
    assert out[0] == out[1]
    assert_no_child_left()


@pytest.mark.parametrize("budget", [2 ** 6 - 2, 30], ids=["exact", "sampled"])
@pytest.mark.parametrize("m", [40, 600])
def test_values_byte_identical_to_coalition_major_blocks(workers, monkeypatch, budget, m):
    """The evaluator's coalition values against the coalition-major loop
    that took a mean per block: the same bytes for a tree, evaluated
    through predict_margin on the whole background, and within 1e-12 for
    the MLP, whose offsets and background chunks reassociate its sums.
    kernel_shap gives the same values from either loop, for 1 and 2
    workers. For the tree m = 40 leaves a short last block and m = 600 puts
    one coalition in each block; the MLP takes 4 and 60 chunks."""
    ks = importlib.import_module("shappaths.explain.kernel_shap")
    rng = np.random.default_rng(13)
    mlp = init_mlp((6, 8, 3), rng)
    for b in mlp.biases:
        b[:] = rng.normal(size=b.shape)
    tree = random_tree(rng, n_features=6, max_depth=4, value_dim=3)
    bg = Background(rng.normal(size=(m, 6)))
    X = rng.normal(size=(3, 6))
    coalitions, _ = ks.sample_coalitions(6, budget, generator(2, "shap.kernel"))
    explained = []

    class Reference:
        """kernel_shap's evaluator, answered by the coalition-major loop."""

        def __init__(self, model, coalitions, background):
            self.args = model, coalitions, background

        def __call__(self, xs, out):
            model, coalitions, background = self.args
            for x, v in zip(xs, out):
                v[:] = blocked_coalition_values(model, x, coalitions, background,
                                                ks._BLOCK_ROWS)
                explained.append(x)

    def same(a, b, model):
        return a.tobytes() == b.tobytes() if model is tree else np.abs(a - b).max() < 1e-12

    for model in (tree, mlp):
        values = np.empty((3, coalitions.shape[0], 3))
        ks._CoalitionValues(model, coalitions, bg.data)(X, values)
        for x, v in zip(X, values):
            assert same(v, blocked_coalition_values(model, x, coalitions, bg.data,
                                                    ks._BLOCK_ROWS), model)
        out = []
        for count in (1, 2):
            workers(count)
            out.append(kernel_shap(model, X, bg, n_coalitions=budget, seed=2).values)
        with monkeypatch.context() as patch:
            patch.setattr(ks, "_CoalitionValues", Reference)
            workers(1)
            explained.clear()
            expected = kernel_shap(model, X, bg, n_coalitions=budget, seed=2).values
        assert np.array_equal(explained, X)
        assert out[0].tobytes() == out[1].tobytes() and same(out[0], expected, model)
    assert_no_child_left()


@pytest.mark.parametrize("m", [7, 40, 101, 600])
@pytest.mark.parametrize("sizes", [(5, 3), (5, 8, 3), (5, 8, 6, 3), (5, 8, 6, 7, 3)],
                         ids=["0-hidden", "1-hidden", "2-hidden", "3-hidden"])
def test_exact_kernel_shap_on_mlps_of_any_depth(workers, sizes, m):
    """MLPs from no hidden layer (affine, evaluated through predict_margin)
    to three (two offsets carried past the first) against the
    interventional oracle and the coalition-major loop, byte-equal for 1
    and 2 workers. m = 7 is one chunk of fewer than _CHUNK rows; 40 is
    whole chunks; 101 and 600 leave a last chunk of one row and of none."""
    ks = importlib.import_module("shappaths.explain.kernel_shap")
    rng = np.random.default_rng(15)
    model = init_mlp(sizes, rng)
    for b in model.biases:
        b[:] = rng.normal(size=b.shape)
    bg = Background(rng.normal(size=(m, 5)))
    X = rng.normal(size=(3, 5))
    coalitions, _ = sample_coalitions(5, 2 ** 5 - 2, generator(0, "shap.kernel"))
    values = np.empty((3, coalitions.shape[0], 3))
    ks._CoalitionValues(model, coalitions, bg.data)(X, values)
    for x, v in zip(X, values):
        reference = blocked_coalition_values(model, x, coalitions, bg.data, ks._BLOCK_ROWS)
        assert np.abs(v - reference).max() < 1e-12
    out = []
    for count in (1, 2):
        workers(count)
        out.append(kernel_shap(model, X, bg, n_coalitions=2 ** 5 - 2, seed=0))
    assert out[0].method == "kernel_shap_exact"
    assert out[0].values.tobytes() == out[1].values.tobytes()
    for x, phi in zip(X, out[0].values):
        assert np.abs(phi - brute_shapley_interventional(model, x, bg.data)).max() < 1e-6
    assert_no_child_left()


@pytest.mark.parametrize("m", [4, 13])
def test_dead_first_layer_gives_the_bias_only_values(m):
    """When a sample's own term drives every first-layer unit to or below
    zero, for every coalition and background row, ReLU(s + o) = max(s, -o)
    + o is 0 and the coalition values are those of the bias-only path,
    ReLU(b1) W2 + b2, for every coalition, the empty and the full one
    included. The units reach exactly zero (s = -o) wherever a masked row
    sums to 5. The weights and inputs are small integers, so every sum is
    exact and the values are compared bit for bit; m = 13 takes a second,
    3-row chunk."""
    ks = importlib.import_module("shappaths.explain.kernel_shap")
    units = np.arange(1.0, 4.0)
    # first-layer unit j is units[j] * (x0 + x1 - 5): at most 0 when x0 + x1 <= 5
    model = Mlp((2, 3, 4, 2), [np.vstack([units, units]), np.array(
        [[1.0, -2.0, 3.0, 0.0], [2.0, 1.0, -1.0, 4.0], [-3.0, 2.0, 1.0, 1.0]]),
        np.array([[1.0, -1.0], [2.0, 0.0], [-1.0, 3.0], [1.0, 1.0]])],
        [-5.0 * units, np.array([1.0, -2.0, 3.0, 0.5]), np.array([0.25, -1.0])])
    rows = [[3.0, 2.0], [3.0, -1.0], [-4.0, 1.0], [2.0, -3.0], [1.0, 1.0], [-2.0, 2.0]]
    bg = np.array([rows[i % len(rows)] for i in range(m)])
    X = np.array([[3.0, 2.0], [-1.0, 0.0], [0.0, -6.0]])
    coalitions = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
    masked = np.where(coalitions[:, None, None, :] == 1.0, X[None, :, None, :], bg)
    assert (masked.sum(axis=-1) <= 5.0).all() and (masked.sum(axis=-1) == 5.0).any()
    values = np.empty((3, 4, 2))
    ks._CoalitionValues(model, coalitions, bg)(X, values)
    bias_only = np.maximum(model.biases[1], 0.0) @ model.weights[2] + model.biases[2]
    assert values.tobytes() == np.broadcast_to(bias_only, values.shape).tobytes()
    for x, v in zip(X, values):
        assert np.array_equal(v, blocked_coalition_values(model, x, coalitions, bg,
                                                          ks._BLOCK_ROWS))


def test_one_cpu_never_forks(monkeypatch):
    monkeypatch.setattr(workers_mod, "MAX_WORKERS", 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})

    def no_fork():
        raise AssertionError("forked on a one-CPU affinity")

    monkeypatch.setattr(os, "fork", no_fork)
    rng = np.random.default_rng(11)
    model = init_mlp((4, 6, 2), rng)
    t = kernel_shap(model, rng.normal(size=(5, 4)), Background(rng.normal(size=(10, 4))),
                    n_coalitions=14, seed=0)
    assert np.isfinite(t.values).all()


MLP_RUN = {"seed": 4, "dataset": {"n_samples": 120, "n_features": 5},
           "models": {"mlp": {"hidden": [8], "epochs": 10}},
           "explain": {"background_size": 20, "n_coalitions": 30},
           "cluster": {"source": "mlp"}}


@pytest.fixture()
def mlp_run(tmp_path):
    """A run directory with a trained MLP, ready for `explain` (36 test rows)."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(MLP_RUN))
    out = tmp_path / "run"
    for command in ("simulate", "train"):
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    return out


def test_cli_explain_byte_identical_for_any_worker_count(workers, mlp_run):
    csvs = []
    for count in (1, 2):
        forks = workers(count)
        assert main(["explain", "--out", str(mlp_run)]) == 0
        assert len(forks) == count - 1
        csvs.append((mlp_run / "shap_mlp.csv").read_bytes())
    assert csvs[0] == csvs[1]
    assert_no_child_left()


def test_explain_bytes_do_not_depend_on_blas_threads(tmp_path):
    """`explain --model mlp` writes the same shap_mlp.csv with one OpenBLAS
    thread as with its default count: every product Kernel SHAP makes stays
    below OpenBLAS's threading size. The MLP's widths and the background
    size are the defaults, so the blocks have the pipeline's shapes. The
    `cluster` and `embed` that follow on the MLP's tensor (HDBSCAN distances
    and PCA) write the same clusters.csv and embed.csv too."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 5, "dataset": {"n_samples": 160},
                               "models": {"mlp": {"epochs": 5}},
                               "cluster": {"source": "mlp"}}))
    out = tmp_path / "run"
    for command in ("simulate", "train"):
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    src = Path(importlib.import_module("shappaths").__file__).resolve().parents[1]
    outputs = []
    for threads in ("1", None):
        env = {key: value for key, value in os.environ.items()
               if key not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        env["PYTHONPATH"] = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
        if threads:
            env["OPENBLAS_NUM_THREADS"] = threads
        for command in (["explain", "--model", "mlp"], ["cluster"], ["embed"]):
            subprocess.run([sys.executable, "-m", "shappaths", *command, "--out", str(out)],
                           env=env, check=True, capture_output=True, timeout=300)
        outputs.append([(out / name).read_bytes()
                        for name in ("shap_mlp.csv", "clusters.csv", "embed.csv")])
    assert outputs[0] == outputs[1]


def test_evaluator_memory_does_not_grow_with_coalitions_times_background():
    """One call whose MLP input stage, cached for every block, would take
    C * m * H * 8 bytes (52 MB here) peaks below a tenth of that: each
    block's masked background times the first layer is built in turn."""
    rng = np.random.default_rng(14)
    p, m, hidden = 12, 200, 8
    model = init_mlp((p, hidden, 3), rng)
    bg = Background(rng.normal(size=(m, p)))
    cached = (2 ** p - 2) * m * hidden * 8
    assert cached >= 50e6
    tracemalloc.start()
    try:
        kernel_shap(model, rng.normal(size=(1, p)), bg, n_coalitions=2 ** p - 2, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < cached / 10


def test_failed_worker_exits_4_naming_its_rows(workers, mlp_run, monkeypatch, capfd):
    # the workers evaluate the MLP through the one coalition evaluator
    ks = importlib.import_module("shappaths.explain.kernel_shap")
    parent, evaluate = os.getpid(), ks._CoalitionValues.__call__

    def evaluate_in_parent_only(self, xs, out):
        if os.getpid() != parent:
            raise RuntimeError("model failed in a worker")
        return evaluate(self, xs, out)

    monkeypatch.setattr(ks._CoalitionValues, "__call__", evaluate_in_parent_only)
    workers(2)
    assert main(["explain", "--out", str(mlp_run)]) == 4
    err = capfd.readouterr().err
    assert "kernel SHAP worker failed: rows 18-35 exited with status 1" in err
    assert "Traceback" not in err
    assert not (mlp_run / "shap_mlp.csv").exists()
    assert_no_child_left()


@pytest.mark.parametrize("exc", [RuntimeError, KeyboardInterrupt])
def test_failure_in_parent_chunk_stops_every_worker(workers, monkeypatch, exc):
    """The parent's own chunk raising (or an interrupt) kills and reaps the
    children before the exception propagates."""
    rng = np.random.default_rng(12)
    model = init_mlp((5, 8, 3), rng)
    parent, parent_calls = os.getpid(), []

    class FailsInParentChunk:
        def predict_margin(self, X):
            if os.getpid() == parent:
                parent_calls.append(X.shape[0])
                if len(parent_calls) == 3:  # after the base and delta: the first chunk
                    raise exc("parent chunk failed")
            return model.predict_margin(X)

    forks = workers(2)
    with pytest.raises(exc, match="parent chunk failed"):
        kernel_shap(FailsInParentChunk(), rng.normal(size=(4, 5)),
                    Background(rng.normal(size=(10, 5))), n_coalitions=30, seed=0)
    assert len(forks) == 1
    assert_no_child_left()
