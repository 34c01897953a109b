import numpy as np
import pytest

from oracles import perceptron_separable
from shappaths import (Dataset, evaluate, load_model, save_model, train_boosted, train_mlp,
                       train_tree)
from shappaths.errors import DataError, InvalidSpecError, ModelIOError
from shappaths.models import loss_and_grads
from shappaths.models.tree import LEAF


def tiny_ds(X, y, k=2):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    names = tuple(f"f{j}" for j in range(X.shape[1]))
    return Dataset(X, y, names, tuple(f"c{i}" for i in range(k)))


# ---------------------------------------------------------------------------
# decision tree

def test_pure_data_single_leaf():
    ds = tiny_ds([[1.0], [2.0], [3.0]], [1, 1, 1])
    tree = train_tree(ds, max_depth=5)
    assert tree.n_nodes == 1
    assert tree.feature[0] == LEAF
    assert np.allclose(tree.value[0], [0.0, 1.0])


def test_separable_1d_stump():
    X = np.array([[-3.0], [-2.0], [-1.0], [1.0], [2.0], [3.0]])
    y = (X[:, 0] >= 0).astype(int)
    tree = train_tree(tiny_ds(X, y), max_depth=4)
    assert tree.max_depth == 1
    assert -1.0 < tree.threshold[0] < 1.0  # inside the separating gap
    assert (tree.predict_class(X) == y).all()


def test_tree_covers_consistent(sim_small_split):
    train, _ = sim_small_split
    tree = train_tree(train, max_depth=6, min_leaf=2)
    tree.validate()  # children covers sum to parent everywhere
    assert tree.cover[0] == train.n


def test_min_leaf_respected(sim_small_split):
    train, _ = sim_small_split
    tree = train_tree(train, max_depth=8, min_leaf=9)
    leaves = tree.feature == LEAF
    assert tree.cover[leaves].min() >= 9
    model = train_boosted(train, n_rounds=3, max_depth=4, min_leaf=7)
    trees = [t for r in model.rounds for t in r]
    assert any(t.n_nodes > 1 for t in trees)
    for t in trees:
        assert t.cover[t.feature == LEAF].min() >= 7


def test_leaf_id_examples():
    ds = tiny_ds([[1.0], [1.0]], [0, 1])
    single = train_tree(ds, max_depth=3)  # no split possible: identical xs
    assert single.leaf_ids([0.5]).tolist() == [0]
    X = np.array([[-1.0], [-0.5], [0.5], [1.0]])
    stump = train_tree(tiny_ds(X, (X[:, 0] > 0).astype(int)), max_depth=1)
    assert stump.leaf_ids([[-2.0], [2.0]]).tolist() == [stump.left[0], stump.right[0]]


def test_leaf_partition_property(sim_small_split):
    train, test = sim_small_split
    tree = train_tree(train, max_depth=5, min_leaf=3)
    ids = tree.leaf_ids(test.features)
    margins = tree.predict_margin(test.features)
    for leaf in np.unique(ids):
        rows = margins[ids == leaf]
        assert (rows == rows[0]).all()


def test_tree_empty_dataset_rejected(sim_small):
    with pytest.raises(DataError):
        train_tree(sim_small.take([0]), max_depth=2, min_leaf=1)


# ---------------------------------------------------------------------------
# boosted ensemble

def test_zero_rounds_is_base_score(sim_small_split):
    train, test = sim_small_split
    model = train_boosted(train, n_rounds=0)
    margins = model.predict_margin(test.features)
    assert np.allclose(margins, model.base_score)
    counts = np.bincount(train.labels, minlength=train.k)
    assert np.allclose(model.base_score, np.log(counts / train.n))


def test_boosting_solves_threshold_concept():
    rng = np.random.default_rng(3)
    X = rng.uniform(-1, 1, size=(200, 4))
    y = (X[:, 2] > 0.1).astype(int)
    ds = tiny_ds(X, y)
    # oracle: exhaustive scan confirms a depth-1 split with zero training error
    zero_error_stump = any(
        ((X[:, j] >= t) == y).all() or ((X[:, j] < t) == y).all()
        for j in range(4) for t in np.unique(X[:, j]))
    assert zero_error_stump
    model = train_boosted(ds, n_rounds=10, learning_rate=0.5, max_depth=1)
    assert (model.predict_class(X) == y).all()


def test_single_leaf_trees_match_global_newton_step(sim_small_split):
    train, _ = sim_small_split
    lam = 1.0
    model = train_boosted(train, n_rounds=1, learning_rate=0.3, lam=lam, max_depth=0)
    probs = np.exp(model.base_score) / np.exp(model.base_score).sum()
    onehot = np.eye(train.k)[train.labels]
    margins = np.tile(model.base_score, (train.n, 1))
    shifted = np.exp(margins - margins.max(axis=1, keepdims=True))
    p = shifted / shifted.sum(axis=1, keepdims=True)
    for c in range(train.k):
        g = (p[:, c] - onehot[:, c]).sum()
        h = (p[:, c] * (1 - p[:, c])).sum()
        tree = model.rounds[0][c]
        assert tree.n_nodes == 1
        assert abs(tree.value[0, 0] - (-g / (h + lam))) < 1e-12


def test_boosting_loss_monotone_and_recorded(sim_small_split):
    train, _ = sim_small_split
    model = train_boosted(train, n_rounds=25, learning_rate=0.3, max_depth=3)
    losses = np.array(model.train_loss)
    assert losses.shape == (26,)
    assert (np.diff(losses) <= 1e-12).all()


def test_boosting_unregularized_saturation_stays_finite():
    # lam=0 with fully saturated probabilities must not divide by zero
    rng = np.random.default_rng(0)
    X = rng.uniform(-1, 1, size=(100, 2))
    y = (X[:, 0] > 0).astype(int)
    model = train_boosted(tiny_ds(X, y), n_rounds=60, learning_rate=1.0,
                          lam=0.0, max_depth=2)
    assert np.isfinite(model.predict_margin(X)).all()
    assert (model.predict_class(X) == y).all()


def test_boosting_needs_valid_rate(sim_small_split):
    train, _ = sim_small_split
    with pytest.raises(InvalidSpecError):
        train_boosted(train, n_rounds=1, learning_rate=0.0)


# ---------------------------------------------------------------------------
# mlp

def test_softmax_regression_separable(two_class_ds):
    # no hidden layers: a linear softmax model on separable data
    assert perceptron_separable(two_class_ds.features, two_class_ds.labels)
    model = train_mlp(two_class_ds, (3, 2), epochs=300, batch_size=16,
                      learning_rate=0.5, seed=0)
    acc = (model.predict_class(two_class_ds.features) == two_class_ds.labels).mean()
    assert acc == 1.0


def test_mlp_deterministic(two_class_ds):
    a = train_mlp(two_class_ds, (3, 4, 2), epochs=5, seed=3)
    b = train_mlp(two_class_ds, (3, 4, 2), epochs=5, seed=3)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)


def test_mlp_layer_size_validation(two_class_ds):
    with pytest.raises(InvalidSpecError):
        train_mlp(two_class_ds, (5, 2), epochs=1)
    with pytest.raises(InvalidSpecError):
        train_mlp(two_class_ds, (3, 3), epochs=1)


def test_gradient_check_at_init_and_after_epoch(two_class_ds):
    from oracles import finite_difference_grads
    from shappaths.models.mlp import init_mlp
    from shappaths.rng import generator

    rng = generator(1, "test.grad")
    model = init_mlp((3, 5, 2), rng)
    X = two_class_ds.features[:16]
    y = two_class_ds.labels[:16]
    for stage in range(2):
        _, gw, gb = loss_and_grads(model, X, y)
        fd = finite_difference_grads(lambda: loss_and_grads(model, X, y)[0],
                                     model.weights + model.biases)
        for a, f in zip(gw + gb, fd):
            rel = np.abs(a - f) / np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-6)
            assert rel.max() < 1e-4
        # one epoch of updates, then re-check
        for W, g in zip(model.weights, gw):
            W -= 0.1 * g
        for b, g in zip(model.biases, gb):
            b -= 0.1 * g


# ---------------------------------------------------------------------------
# evaluate

def test_evaluate_perfect_and_degenerate(two_class_ds):
    class Oracle:
        n_features = 3
        n_classes = 2

        def predict_class(self, X):
            return (np.atleast_2d(X)[:, 0] > 0).astype(int)

        def predict_margin(self, X):
            c = self.predict_class(X)
            return np.eye(2)[c]

    report = evaluate(Oracle(), two_class_ds)
    assert report.accuracy == 1.0
    assert np.allclose(report.precision, 1.0) and np.allclose(report.recall, 1.0)

    class AlwaysZero(Oracle):
        def predict_class(self, X):
            return np.zeros(np.atleast_2d(X).shape[0], dtype=int)

    X = np.array([[1.0, 0, 0]] * 5 + [[-1.0, 0, 0]] * 5)
    y = np.array([1] * 5 + [0] * 5)
    balanced = Dataset(X, y, ("a", "b", "c"), ("neg", "pos"))
    report = evaluate(AlwaysZero(), balanced)
    assert report.accuracy == 0.5
    assert report.recall[0] == 1.0 and report.recall[1] == 0.0
    assert report.precision[1] == 0.0 and report.precision_undefined[1]
    assert report.support.sum() == 10


def test_evaluate_feature_count_mismatch(sim_small, two_class_ds):
    model = train_tree(two_class_ds, max_depth=2)
    with pytest.raises(DataError):
        evaluate(model, sim_small)


def test_identical_seeds_identical_serialized_models(sim_small_split):
    import json

    from shappaths.models import model_to_dict

    train, _ = sim_small_split
    pairs = [
        (train_tree(train, max_depth=4, min_leaf=2),
         train_tree(train, max_depth=4, min_leaf=2)),
        (train_boosted(train, n_rounds=4, max_depth=2),
         train_boosted(train, n_rounds=4, max_depth=2)),
        (train_mlp(train, (train.p, 6, train.k), epochs=4, seed=9),
         train_mlp(train, (train.p, 6, train.k), epochs=4, seed=9)),
    ]
    for a, b in pairs:
        assert json.dumps(model_to_dict(a), sort_keys=True) == \
               json.dumps(model_to_dict(b), sort_keys=True)


# ---------------------------------------------------------------------------
# serialization

@pytest.mark.parametrize("kind", ["tree", "boosted", "mlp"])
def test_model_round_trip(tmp_path, sim_small_split, kind):
    train, test = sim_small_split
    if kind == "tree":
        model = train_tree(train, max_depth=4, min_leaf=2)
    elif kind == "boosted":
        model = train_boosted(train, n_rounds=3, max_depth=2)
    else:
        model = train_mlp(train, (train.p, 8, train.k), epochs=3, seed=1)
    path = tmp_path / f"{kind}.json"
    save_model(model, path)
    loaded = load_model(path)
    assert np.array_equal(loaded.predict_margin(test.features),
                          model.predict_margin(test.features))


def test_model_io_errors(tmp_path, two_class_ds):
    path = tmp_path / "m.json"
    model = train_tree(two_class_ds, max_depth=1)
    save_model(model, path)
    import json

    payload = json.loads(path.read_text())
    payload["schema_version"] = 99
    path.write_text(json.dumps(payload))
    with pytest.raises(ModelIOError, match="schema"):
        load_model(path)
    path.write_text("{not json")
    with pytest.raises(ModelIOError):
        load_model(path)
