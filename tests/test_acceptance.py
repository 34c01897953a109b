"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Shared protocol: the standard simulated dataset (1500 samples, 10
features), a seeded 70/30 split, features min-max scaled to [0, 1] (trees
are invariant to the monotone per-feature rescale; the network needs it),
tree and boosted ensemble explained by exact TreeSHAP and the network by
fully-enumerated Kernel SHAP over a 100-row training background.

Criterion 7 (single-tree SHAP rows grouped exactly by leaf) is expected
to fail: path-dependent SHAP values depend on the sample's routing at
every split of the tree, not only on its leaf, so rows within one leaf
differ whenever samples route differently somewhere else in the tree. The
check is implemented exactly as stated and left red; see the failure
message for the counterexample.
"""

import time

import numpy as np
import pytest

from oracles import brute_shapley_interventional, brute_shapley_tree
from props import ALL_CHECKS
from shappaths import (Background, HdbscanParams, SimulationSpec, SplitSpec, TensorReader,
                       evaluate, flatten, hdbscan, kernel_shap, load_idx_images, mean_abs,
                       min_max_scale, sample_background, save_tensor, simulate,
                       train_boosted, train_mlp, train_tree, tree_shap)
from shappaths.data import split_indices
from shappaths.explain.tree_shap import shap_values_tree
from shappaths.explain.tensor import ShapTensor
from shappaths.models.mlp import init_mlp
from shappaths.rng import generator
from shappaths.viz import build_paths, project_paths, waterfall_entries
from util import random_tree

SEEDS = (0, 1, 2, 3, 4)
TREE_PARAMS = dict(max_depth=7, min_leaf=5)
BOOSTED_PARAMS = dict(n_rounds=80, learning_rate=0.3, lam=1.0, max_depth=3)
MLP_PARAMS = dict(layer_sizes=(10, 32, 16, 3), epochs=300, batch_size=32,
                  learning_rate=0.1)


def report(number: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {status} {name}" + (f" -- {detail}" if detail else ""))
    assert ok, f"criterion {number} ({name}): {detail}"


def protocol(seed: int):
    """Dataset, scaled copy, and split indices for one seed."""
    raw = simulate(SimulationSpec(seed=seed))
    scaled, _ = min_max_scale(raw)
    train_idx, test_idx = split_indices(raw.labels, SplitSpec(seed=seed))
    return raw, scaled, train_idx, test_idx


@pytest.fixture(scope="module")
def seed0():
    """Trained models and test-set tensors for the first protocol seed."""
    raw, scaled, tr, te = protocol(0)
    train, test = scaled.take(tr), scaled.take(te)
    tree = train_tree(train, **TREE_PARAMS)
    boosted = train_boosted(train, **BOOSTED_PARAMS)
    mlp = train_mlp(train, seed=0, **MLP_PARAMS)
    tensors = {
        "tree": tree_shap(tree, test.features, feature_names=test.feature_names,
                          class_names=test.class_names),
        "boosted": tree_shap(boosted, test.features, feature_names=test.feature_names,
                             class_names=test.class_names),
        "mlp": kernel_shap(mlp, test.features,
                           sample_background(train.features, size=100, seed=0),
                           n_coalitions=2048, seed=0,
                           feature_names=test.feature_names,
                           class_names=test.class_names),
    }
    return {"raw": raw, "scaled": scaled, "train_idx": tr, "test_idx": te,
            "train": train, "test": test,
            "models": {"tree": tree, "boosted": boosted, "mlp": mlp},
            "tensors": tensors}


def test_criterion_1_performance_table(seed0):
    started = time.perf_counter()
    accs = {"tree": [], "boosted": [], "mlp": []}
    for seed in SEEDS:
        if seed == 0:
            train, test = seed0["train"], seed0["test"]
            models = seed0["models"]
        else:
            _, scaled, tr, te = protocol(seed)
            train, test = scaled.take(tr), scaled.take(te)
            models = {"tree": train_tree(train, **TREE_PARAMS),
                      "boosted": train_boosted(train, **BOOSTED_PARAMS),
                      "mlp": train_mlp(train, seed=seed, **MLP_PARAMS)}
        assert test.n == 450
        for kind, model in models.items():
            accs[kind].append(evaluate(model, test).accuracy)
    elapsed = time.perf_counter() - started
    medians = {k: float(np.median(v)) for k, v in accs.items()}
    targets = {"tree": 0.89, "boosted": 0.94, "mlp": 0.96}
    in_band = {k: abs(medians[k] - targets[k]) <= 0.04 for k in targets}
    report(1, "performance table reproduction",
           all(in_band.values()) and elapsed < 300.0,
           f"medians {medians}, targets +-0.04 of {targets}, {elapsed:.0f}s")


def test_criterion_2_shap_oracle_equivalence():
    rng = generator(2025, "acceptance.trees")
    worst_tree = 0.0
    for _ in range(50):
        p = int(rng.integers(2, 9))
        tree = random_tree(rng, n_features=p, max_depth=4,
                           value_dim=int(rng.integers(1, 4)))
        X = rng.uniform(-2, 2, size=(2, p))
        fast = shap_values_tree(tree, X, n_features=p)
        for i in range(2):
            slow = brute_shapley_tree(tree, X[i], p)
            worst_tree = max(worst_tree, float(np.abs(fast[i] - slow).max()))

    worst_kernel = 0.0
    models = []
    for p in (3, 4, 5):
        models.append((p, random_tree(rng, n_features=p, max_depth=3, value_dim=2)))
    mlp = init_mlp((5, 6, 2), generator(7, "acceptance.mlp"))
    models.append((5, mlp))
    for p, model in models:
        background = Background(rng.uniform(-2, 2, size=(8, p)))
        X = rng.uniform(-2, 2, size=(2, p))
        t = kernel_shap(model, X, background, n_coalitions=2 ** p - 2, seed=0)
        for i in range(2):
            oracle = brute_shapley_interventional(model, X[i], background.data)
            worst_kernel = max(worst_kernel, float(np.abs(t.values[i] - oracle).max()))
    report(2, "oracle equivalence",
           worst_tree < 1e-8 and worst_kernel < 1e-6,
           f"tree max err {worst_tree:.2e} (tol 1e-8), "
           f"kernel max err {worst_kernel:.2e} (tol 1e-6)")


def test_criterion_3_local_accuracy_at_scale(seed0):
    worst = 0.0
    for kind in ("tree", "boosted"):
        model = seed0["models"][kind]
        tensor = seed0["tensors"][kind]
        margins = model.predict_margin(seed0["test"].features)
        gap = np.abs(tensor.values.sum(axis=1) - (margins - tensor.base)).max()
        worst = max(worst, float(gap))
    report(3, "local accuracy over the full test set", worst < 1e-9,
           f"max additivity gap {worst:.2e} (tol 1e-9)")


def _subgroup_check(raw_test, tensor):
    labeling = hdbscan(flatten(tensor), HdbscanParams(min_cluster_size=15))
    if labeling.n_clusters < 4:
        return False, f"{labeling.n_clusters} clusters"
    truth = raw_test.labels
    class3_clusters = {int(c) for c in np.unique(labeling.labels[truth == 2]) if c != -1}
    if len(class3_clusters) < 2:
        return False, "class 3 occupies fewer than 2 clusters"
    patterns = set()
    for c in range(labeling.n_clusters):
        members = labeling.labels == c
        if (truth[members] == 2).mean() <= 0.5:
            continue
        signs = np.sign(raw_test.features[members][:, :2])
        uniq, counts = np.unique(signs, axis=0, return_counts=True)
        majority = uniq[counts.argmax()]
        purity = counts.max() / counts.sum()
        if purity < 0.9:
            return False, f"cluster {c} sign purity {purity:.2f}"
        patterns.add(tuple(majority))
    if not {(1.0, -1.0), (-1.0, 1.0)} <= patterns:
        return False, f"patterns {patterns} miss (+,-) and (-,+)"
    return True, f"{labeling.n_clusters} clusters ok"


def test_criterion_4_subgroup_discovery(seed0):
    outcomes = []
    for seed in SEEDS:
        if seed == 0:
            raw_test = seed0["raw"].take(seed0["test_idx"])
            tensor = seed0["tensors"]["boosted"]
        else:
            raw, scaled, tr, te = protocol(seed)
            model = train_boosted(scaled.take(tr), **BOOSTED_PARAMS)
            tensor = tree_shap(model, scaled.features[te])
            raw_test = raw.take(te)
        ok, detail = _subgroup_check(raw_test, tensor)
        outcomes.append(ok)
    passes = sum(outcomes)
    report(4, "subgroup discovery over seeds", passes >= 4,
           f"{passes}/{len(SEEDS)} seeds pass (need >= 4)")


def test_criterion_5_feature_dominance(seed0, tmp_path):
    factors = {}
    ok = True
    for kind, tensor in seed0["tensors"].items():
        paths = [tmp_path / f"{kind}.{ext}" for ext in ("json", "csv", "f64")]
        save_tensor(tensor, *paths)
        totals = np.sum(mean_abs(TensorReader(paths[0], paths[2])), axis=1)
        others = totals[2:].max()
        factors[kind] = (float(totals[0] / others), float(totals[1] / others))
        ok = ok and min(factors[kind]) >= 2.0
    report(5, "feature 0/1 dominance", ok,
           "min factor per model " +
           ", ".join(f"{k}: {min(v):.1f}" for k, v in factors.items()) + " (need >= 2)")


def test_criterion_6_waterfall_identities(seed0):
    tensor = seed0["tensors"]["boosted"]
    model = seed0["models"]["boosted"]
    test = seed0["test"]
    rng = generator(6, "acceptance.waterfall")
    samples = rng.choice(tensor.n, size=100, replace=False)
    margins = model.predict_margin(test.features)
    worst_tip = 0.0
    for i in samples:
        for c in range(tensor.k):
            entries = waterfall_entries(tensor.values[i, :, c].tolist(), tensor.feature_names,
                                        top_n=9)
            tip = float(tensor.base[c]) + float(np.sum([v for _, v in entries]))
            worst_tip = max(worst_tip, abs(tip - margins[i, c]))

    # single-class reduction: path vertices = classical cumulative sums
    k1 = ShapTensor(values=tensor.values[:5, :, :1], base=np.zeros(1),
                    sample_ids=tensor.sample_ids[:5],
                    feature_names=tensor.feature_names, class_names=("c0",))
    paths = build_paths(k1, "sample")
    with pytest.warns(UserWarning):
        projected, _ = project_paths(paths, r=2)
    exact = True
    for i, proj in enumerate(projected):
        entries = waterfall_entries(k1.values[i, :, 0].tolist(), k1.feature_names, top_n=k1.p)
        cums = np.concatenate([[0.0], np.cumsum([v for _, v in entries])])
        exact = exact and np.array_equal(proj.points[:, 1], cums)

    labeling = hdbscan(flatten(tensor), HdbscanParams(min_cluster_size=15))
    cluster_paths = build_paths(tensor, labeling)
    worst_end = 0.0
    for c, path in enumerate(cluster_paths):
        members = labeling.labels == c
        target = (margins[members] - tensor.base).mean(axis=0)
        worst_end = max(worst_end, float(np.abs(path.endpoint - target).max()))
    report(6, "waterfall identities",
           worst_tip < 1e-9 and exact and worst_end < 1e-9,
           f"tip gap {worst_tip:.2e}, k=1 reduction exact: {exact}, "
           f"endpoint gap {worst_end:.2e}")


def test_criterion_7_leaf_grouping(seed0):
    tree = seed0["models"]["tree"]
    tensor = seed0["tensors"]["tree"]
    leaf = tree.leaf_ids(seed0["test"].features)
    rows = tensor.values.reshape(tensor.n, -1)
    _, row_group = np.unique(rows, axis=0, return_inverse=True)
    n_row_groups = int(row_group.max()) + 1
    n_leaves = int(np.unique(leaf).size)
    # leaf -> single row group (does every leaf share one SHAP row?)
    leaf_determined = all(np.unique(row_group[leaf == l]).size == 1
                          for l in np.unique(leaf))
    ok = leaf_determined and n_row_groups == n_leaves
    report(7, "single-tree SHAP rows grouped exactly by leaf", ok,
           f"{n_leaves} leaves vs {n_row_groups} distinct SHAP rows; "
           "path-dependent SHAP depends on off-path routing, so rows split "
           "leaves (expected red; see module docstring)")


def test_distinct_pathways_to_nearby_endpoints(seed0):
    """The two class-3 subgroups travel via opposite-signed feature-0/1
    segments yet end close together (they share the predicted class)."""
    tensor = seed0["tensors"]["boosted"]
    truth = seed0["raw"].take(seed0["test_idx"]).labels
    labeling = hdbscan(flatten(tensor), HdbscanParams(min_cluster_size=15))
    paths = build_paths(tensor, labeling)
    class3_paths = []
    for c, path in enumerate(paths):
        members = labeling.labels == c
        if (truth[members] == 2).mean() > 0.5:
            class3_paths.append(path)
    assert len(class3_paths) == 2
    a, b = class3_paths
    seg_a = {f: s for f, s in a.entries}
    seg_b = {f: s for f, s in b.entries}
    for f in (0, 1):  # opposite-signed signal segments
        assert float(seg_a[f] @ seg_b[f]) < 0.0
    projected, _ = project_paths(paths, r=2)
    ends = {p.group: p.points[-1] for p in projected}
    gap = np.linalg.norm(ends[a.group] - ends[b.group])
    other_gaps = [np.linalg.norm(ends[a.group] - ends[p.group])
                  for p in paths if p.group not in (a.group, b.group)]
    assert gap < min(other_gaps)  # nearby endpoints, distinct pathways


def test_criterion_8_property_suites():
    started = time.perf_counter()
    failures = []
    for check in ALL_CHECKS:
        try:
            check()
        except AssertionError as exc:
            failures.append(f"{check.__name__}: {exc}")
    elapsed = time.perf_counter() - started
    report(8, "property suites standalone", not failures and elapsed < 120.0,
           f"{len(ALL_CHECKS)} suites in {elapsed:.1f}s" +
           (f"; failures: {failures}" if failures else ""))


def _write_synthetic_idx(tmp_path, n=1000):
    import struct

    rng = np.random.default_rng(123)
    images = np.zeros((n, 28, 28), dtype=np.uint8)
    labels = rng.integers(0, 3, size=n).astype(np.uint8)
    c = 14
    for i in range(n):
        img = rng.integers(0, 60, size=(28, 28))
        dx, dy = rng.integers(-3, 4, size=2)
        if labels[i] == 0:
            img[c - 5 + dy:c + 5 + dy, c - 5 + dx:c + 5 + dx] = 200
        elif labels[i] == 1:
            img[4 + dy:24 + dy, c - 2 + dx:c + 2 + dx] = 200
        else:
            img[c - 2 + dy:c + 2 + dy, 4 + dx:24 + dx] = 200
        images[i] = np.clip(img, 0, 255)
    ip, lp = tmp_path / "images.idx", tmp_path / "labels.idx"
    with open(ip, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, n, 28, 28))
        fh.write(images.tobytes())
    with open(lp, "wb") as fh:
        fh.write(struct.pack(">II", 0x00000801, n))
        fh.write(labels.tobytes())
    return ip, lp


def test_criterion_9_idx_smoke_only(tmp_path):
    # The image and clinical study tables are out of scope by design: the
    # clinical data is access-restricted and convolutional models are out
    # of desk scale. The IDX ingestion path gets a smoke test only.
    ip, lp = _write_synthetic_idx(tmp_path)
    ds = load_idx_images(ip, lp)
    assert (ds.n, ds.p, ds.k) == (1000, 784, 3)
    tr, te = split_indices(ds.labels, SplitSpec(seed=0))
    train, test = ds.take(tr), ds.take(te)
    model = train_boosted(train, n_rounds=6, learning_rate=0.5, max_depth=2)
    accuracy = evaluate(model, test).accuracy
    tensor = tree_shap(model, test.features[:50])
    gap = np.abs(tensor.values.sum(axis=1)
                 - (model.predict_margin(test.features[:50]) - tensor.base)).max()
    ok = accuracy >= 0.85 and tensor.values.shape == (50, 784, 3) and gap < 1e-9
    report(9, "IDX ingestion smoke test (image/clinical tables out of scope)",
           ok, f"3-digit accuracy {accuracy:.3f} (need >= 0.85), "
               f"tensor {tensor.values.shape}, additivity gap {gap:.2e}")
