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


def depth_of(tree):
    depth = np.zeros(tree.n_nodes, dtype=int)
    for node in range(tree.n_nodes):  # parents precede children
        if tree.feature[node] != LEAF:
            depth[[tree.left[node], tree.right[node]]] = depth[node] + 1
    return int(depth.max())


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
    assert depth_of(tree) == 1
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


@pytest.mark.parametrize("min_leaf", [1, 3, 7])
def test_every_node_order_is_a_stable_argsort_of_its_rows(monkeypatch, min_leaf):
    """The grower sorts once per fit and partitions down the tree; each
    node must still see what a stable argsort of its own rows gives."""
    from shappaths.models import tree as tree_mod

    rng = np.random.default_rng(min_leaf)
    X = np.round(rng.normal(scale=1.5, size=(150, 4)))  # few values: ties in every column
    X = np.vstack([X, X[:60]])                           # duplicated rows tie in all columns
    y = (X[:, 0] + X[:, 1] > 0).astype(int) + (X[:, 2] > 0.5)
    sizes = []
    real = tree_mod.best_split

    def checked(X, order, gain_fn, min_leaf):
        rows = np.sort(order[:, 0])
        assert np.array_equal(order, rows[np.argsort(X[rows], axis=0, kind="stable")])
        sizes.append(rows.size)
        return real(X, order, gain_fn, min_leaf)

    monkeypatch.setattr(tree_mod, "best_split", checked)
    ds = tiny_ds(X, y, k=3)
    train_tree(ds, max_depth=6, min_leaf=min_leaf)
    n_tree = len(sizes)
    train_boosted(ds, n_rounds=3, max_depth=4, min_leaf=min_leaf)
    for fit in (sizes[:n_tree], sizes[n_tree:]):  # both fits reached nodes below the root
        assert len(fit) > 3 and min(fit) < ds.n


def test_boosted_ensemble_sorts_its_features_once(monkeypatch, sim_small):
    """Every tree of the ensemble grows from one stable argsort of X."""
    real, sorted_shapes = np.argsort, []

    def counted(a, *args, **kwargs):
        sorted_shapes.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", counted)
    model = train_boosted(sim_small, n_rounds=4, max_depth=3)
    assert len(model.rounds) * model.n_classes == 4 * sim_small.k > 1
    assert sorted_shapes == [sim_small.features.shape]


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


@pytest.mark.parametrize("bad", [{"n_rounds": -3}, {"n_rounds": 0, "min_leaf": 0},
                                 {"n_rounds": 0, "max_depth": -2}],
                         ids=["n_rounds", "min_leaf", "max_depth"])
def test_bad_boosted_hyperparameters_rejected_before_any_round(sim_small_split, bad):
    with pytest.raises(InvalidSpecError):
        train_boosted(sim_small_split[0], **bad)


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


def _plain_forward(model, X):
    """The MLP forward pass written out with broadcasting and nothing cached."""
    a = X
    for i, (W, b) in enumerate(zip(model.weights, model.biases)):
        a = a @ W + b
        if i < len(model.weights) - 1:
            a = np.maximum(a, 0.0)
    return a


@pytest.mark.parametrize("rows", [1, 7, 500, 501, 1100])
def test_mlp_cached_tiles_never_go_stale(rows):
    """predict_margin equals the plain forward pass byte for byte, also
    after a bias and a weight change in place between two calls with the
    same row count: the model caches nothing, and predicting never changes
    the saved model, == or repr."""
    import json

    from shappaths.models import model_to_dict
    from shappaths.models.mlp import Mlp, init_mlp

    rng = np.random.default_rng(rows)
    model = init_mlp((4, 6, 5, 3), rng)
    for b in model.biases:
        b[:] = rng.normal(size=b.shape)
    saved = json.dumps(model_to_dict(model), sort_keys=True)
    twin = Mlp(model.layer_sizes, model.weights, model.biases)
    X = rng.normal(size=(rows, 4))
    for _ in range(2):
        before = model.predict_margin(X)
        assert before.tobytes() == _plain_forward(model, X).tobytes()
    assert json.dumps(model_to_dict(model), sort_keys=True) == saved
    assert model == twin and repr(model) == repr(twin)

    model.biases[0] += 0.5
    model.weights[1] *= -1.0
    after = model.predict_margin(X)
    assert after.tobytes() == _plain_forward(model, X).tobytes()
    assert after.tobytes() != before.tobytes()
    model.biases[-1] = np.zeros(3)  # a new array in place of the old one
    assert model.predict_margin(X).tobytes() == _plain_forward(model, X).tobytes()


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
    assert report.precision[1] == 0.0
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
# byte identity against the reference trainers (tests/oracles.py)

def _serialized(model) -> str:
    import json

    from shappaths.models import model_to_dict

    return json.dumps(model_to_dict(model), sort_keys=True)


def _three_class_ds(seed, tied):
    """Noisy three-class data; ``tied`` rounds it to a few values per column
    and repeats a third of the rows, so ties sit in every column."""
    rng = np.random.default_rng(seed)
    X = rng.normal(scale=1.5, size=(120, 4))
    if tied:
        X = np.round(X)
        X = np.vstack([X, X[:40]])
    y = (X[:, 0] + X[:, 1] > 0).astype(int) + (X[:, 2] > 0.5)
    flip = rng.random(y.size) < 0.15
    y[flip] = rng.integers(0, 3, int(flip.sum()))
    return tiny_ds(X, y, k=3)


def _spy_best_split(monkeypatch, module, name):
    """Wrap ``module.name``; return the per-call list of whether the first
    maximum of the unmasked gains fell between equal values."""
    real, tied = getattr(module, name), []

    def spy(X, order, gain_fn, min_leaf):
        m = order.shape[0]
        if m >= 2:
            gains = gain_fn(order)
            gains[: min_leaf - 1] = -np.inf
            gains[m - min_leaf:] = -np.inf
            feat, pos = divmod(int(np.argmax(gains.T)), m - 1)
            lo, hi = X[order[pos:pos + 2, feat], feat]
            tied.append(bool(lo == hi))
        return real(X, order, gain_fn, min_leaf)

    monkeypatch.setattr(module, name, spy)
    return tied


@pytest.mark.parametrize("tied", [False, True], ids=["distinct", "tied"])
@pytest.mark.parametrize("seed", [0, 7])
def test_boosted_matches_the_per_node_reference(monkeypatch, seed, tied):
    """Every boosted model is byte-identical to the grower that sorts each
    node afresh and masks every tie before its argmax, and calls
    best_split as often; on tied data some node's best raw split falls
    between equal values, so the full tie mask runs too."""
    import oracles
    from shappaths.models import tree as tree_mod

    ds = _three_class_ds(seed, tied)
    calls = _spy_best_split(monkeypatch, tree_mod, "best_split")
    reference_calls = _spy_best_split(monkeypatch, oracles, "reference_best_split")
    for min_leaf in (1, 3, 7):
        for lam in (0.0, 1.0):
            calls.clear()
            reference_calls.clear()
            model = train_boosted(ds, n_rounds=4, max_depth=4, min_leaf=min_leaf, lam=lam)
            reference = oracles.reference_boosted(ds.features, ds.labels, ds.k, n_rounds=4,
                                                  learning_rate=0.3, lam=lam, max_depth=4,
                                                  min_leaf=min_leaf)
            assert _serialized(model) == _serialized(reference)
            assert len(calls) == len(reference_calls) > 10
            assert any(calls) == tied


def test_saturated_unregularized_boosting_matches_the_reference():
    """lam = 0, and one block of rows saturates to probabilities of exactly
    0 and 1 while a noisy block does not: nodes holding both have splits
    whose side sums h to 0, whose score must be 0 as in the reference."""
    import oracles

    rng = np.random.default_rng(0)
    easy = np.column_stack([rng.uniform(-3, -1, 40), rng.uniform(-1, 1, 40)])
    X = np.vstack([easy, rng.uniform(0, 1, size=(60, 2))])
    y = np.concatenate([np.zeros(40, dtype=int), rng.integers(0, 2, 60)])
    model = train_boosted(tiny_ds(X, y), n_rounds=40, learning_rate=1.0, lam=0.0, max_depth=2)
    reference = oracles.reference_boosted(X, y, 2, n_rounds=40, learning_rate=1.0, lam=0.0,
                                          max_depth=2, min_leaf=1)
    assert _serialized(model) == _serialized(reference)
    margins = model.predict_margin(X)
    assert (np.abs(margins[:, 0] - margins[:, 1]) > 40).any()  # exp underflows: p is 0 or 1


@pytest.mark.parametrize("seed", [0, 7])
def test_gini_tree_on_tied_data_matches_the_reference(seed):
    from oracles import reference_tree

    ds = _three_class_ds(seed, tied=True)
    for min_leaf in (1, 3, 7):
        tree = train_tree(ds, max_depth=6, min_leaf=min_leaf)
        assert tree.n_nodes > 7
        assert _serialized(tree) == _serialized(
            reference_tree(ds.features, ds.labels, ds.k, max_depth=6, min_leaf=min_leaf))


@pytest.mark.parametrize("seed", [0, 7])
def test_mlp_matches_the_per_step_reference(sim_small_split, seed):
    """Same bytes as SGD that gathers every batch and updates layer by layer;
    the last batch of each epoch is a short one."""
    from oracles import reference_mlp

    train, _ = sim_small_split
    assert train.n % 32 != 0
    sizes = (train.p, 8, 5, train.k)
    model = train_mlp(train, sizes, epochs=3, batch_size=32, learning_rate=0.1, seed=seed)
    reference = reference_mlp(train.features, train.labels, sizes, epochs=3, batch_size=32,
                              learning_rate=0.1, seed=seed)
    assert _serialized(model) == _serialized(reference)


@pytest.mark.parametrize("seed", [0, 7])
def test_mlp_divergence_is_caught_in_the_reference_epoch(sim_small_split, seed):
    from oracles import reference_mlp
    from shappaths.errors import NumericalError

    train, _ = sim_small_split
    sizes = (train.p, 8, train.k)
    with np.errstate(all="ignore"):
        with pytest.raises(NumericalError) as reference:
            reference_mlp(train.features, train.labels, sizes, epochs=10, batch_size=32,
                          learning_rate=1e3, seed=seed)
        with pytest.raises(NumericalError) as fitted:
            train_mlp(train, sizes, epochs=10, batch_size=32, learning_rate=1e3, seed=seed)
    assert str(fitted.value) == str(reference.value)
    assert "at epoch 0" not in str(reference.value)


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
