import csv
import io

import numpy as np
import pytest

from shappaths import ShapTensor, TensorReader, cluster_means, save_tensor, shap_summary
from shappaths.errors import DataError, InvalidSpecError
from shappaths.viz import (PlotSpec, build_paths, classical_waterfall, cluster_heatmap,
                           paths_to_csv, pca_scatter, project_paths, render_paths,
                           stacked_bar, waterfall_entries, waterfall_row)
from shappaths.viz.paths import REMAINDER
from util import QUOTED_FEATURES, to_file


def make_tensor(values, base=None):
    values = np.asarray(values, dtype=float)
    n, p, k = values.shape
    return ShapTensor(values=values,
                      base=np.zeros(k) if base is None else np.asarray(base, float),
                      sample_ids=np.arange(n),
                      feature_names=tuple(f"f{j}" for j in range(p)),
                      class_names=tuple(f"c{c}" for c in range(k)))


def saved(tmp_path, t: ShapTensor) -> TensorReader:
    save_tensor(t, *(to_file(tmp_path / f"t.{ext}") for ext in ("json", "csv", "f64")))
    return TensorReader(tmp_path / "t.json", tmp_path / "t.f64")


# ---------------------------------------------------------------------------
# classical waterfall

def test_waterfall_all_zero_no_bars(tmp_path):
    t = saved(tmp_path, make_tensor(np.zeros((1, 4, 1)), base=[2.0]))
    svg = classical_waterfall(*waterfall_row(t, 0))
    assert 'class="bar' not in svg
    assert "prediction 2.00" in svg


def test_waterfall_cumulative_order_and_tip(tmp_path):
    t = make_tensor([[[2.0], [-1.0]]], base=[0.0])
    entries = waterfall_entries(t.values[0, :, 0].tolist(), t.feature_names, top_n=5)
    assert entries == [("f0", 2.0), ("f1", -1.0)]  # descending magnitude
    svg = classical_waterfall(*waterfall_row(saved(tmp_path, t), 0))
    assert svg.count('class="bar') == 2
    assert "prediction 1.00" in svg


def test_waterfall_reported_negative_prediction(tmp_path):
    # the bars cumulate to a tip at -6.75: the marker must sit there
    t = saved(tmp_path, make_tensor([[[-4.0], [-2.0], [0.25]]], base=[-1.0]))
    svg = classical_waterfall(*waterfall_row(t, 0))
    assert "prediction -6.75" in svg


def test_waterfall_other_aggregation_preserves_tip():
    rng = np.random.default_rng(0)
    values = rng.normal(size=(1, 12, 1))
    t = make_tensor(values, base=[0.5])
    entries = waterfall_entries(t.values[0, :, 0].tolist(), t.feature_names, top_n=3)
    assert len(entries) == 4 and entries[-1][0].startswith("other")
    total = sum(v for _, v in entries)
    assert abs(total - values.sum()) < 1e-12


def test_waterfall_validation(tmp_path):
    t = saved(tmp_path, make_tensor(np.zeros((2, 3, 2))))
    with pytest.raises(InvalidSpecError):
        waterfall_row(t, 5, 0)
    with pytest.raises(InvalidSpecError):
        waterfall_row(t, 0)  # k=2 needs a class index
    with pytest.raises(InvalidSpecError):
        classical_waterfall(*waterfall_row(t, 0, 0), PlotSpec(top_n=0))


def test_waterfall_deterministic(tmp_path):
    rng = np.random.default_rng(1)
    t = saved(tmp_path, make_tensor(rng.normal(size=(3, 5, 2)), base=[0.1, -0.2]))
    assert classical_waterfall(*waterfall_row(t, 1, 0)) == \
        classical_waterfall(*waterfall_row(t, 1, 0))


# ---------------------------------------------------------------------------
# paths

def test_build_paths_segment_order_and_endpoint():
    values = np.array([[[3.0, 0.0], [0.0, 1.0], [-5.0, 0.0]]])
    t = make_tensor(values)
    (path,) = build_paths(t, np.zeros(1, dtype=int))
    assert [f for f, _ in path.entries] == [2, 0, 1]  # descending norm
    assert np.allclose(path.endpoint, values[0].sum(axis=0))
    assert np.allclose(path.anchor, 0.0)


def test_build_paths_singleton_cluster_is_sample_row():
    rng = np.random.default_rng(2)
    values = rng.normal(size=(4, 3, 2))
    t = make_tensor(values)
    labels = np.array([0, -1, -1, 1])
    paths = build_paths(t, labels)
    assert len(paths) == 2
    sums = {p.group: p.endpoint for p in paths}
    assert np.allclose(sums["group 0"], values[0].sum(axis=0))
    assert np.allclose(sums["group 1"], values[3].sum(axis=0))
    with pytest.raises(DataError, match="length 4"):
        build_paths(t, labels[:2])


def test_build_paths_top_n_remainder():
    rng = np.random.default_rng(3)
    values = rng.normal(size=(2, 8, 3))
    t = make_tensor(values)
    (path,) = build_paths(t, np.zeros(2, dtype=int), top_n=3)
    assert len(path.entries) == 4
    assert path.entries[-1][0] == REMAINDER
    assert np.allclose(path.endpoint, values.mean(axis=0).sum(axis=0), atol=1e-12)


def test_per_sample_grouping():
    t = make_tensor(np.zeros((3, 2, 2)))
    paths = build_paths(t, "sample")
    assert [p.group for p in paths] == ["sample 0", "sample 1", "sample 2"]


def test_project_k1_reduces_to_cumulative_sums():
    values = np.array([[[2.0], [-1.0], [0.5]]])
    t = make_tensor(values, base=[0.0])
    paths = build_paths(t, np.zeros(1, dtype=int))
    with pytest.warns(UserWarning):
        projected, model = project_paths(paths, r=2)
    assert model is None
    ys = projected[0].points[:, 1]
    assert np.allclose(ys, [0.0, 2.0, 1.0, 1.5])  # classical cumulative sums
    assert np.allclose(projected[0].points[:, 0], [0, 1, 2, 3])


def test_project_preserves_inplane_distances():
    rng = np.random.default_rng(4)
    base2 = rng.normal(size=(1, 6, 2))
    lift = np.zeros((1, 6, 5))
    lift[..., 1] = base2[..., 0]
    lift[..., 3] = base2[..., 1]
    t = make_tensor(lift)
    other = make_tensor(np.roll(lift, 1, axis=1))
    paths = build_paths(t, np.zeros(1, dtype=int)) + build_paths(other, np.zeros(1, dtype=int))
    projected, model = project_paths(paths, r=2)
    for orig, proj in zip(paths, projected):
        v = orig.vertices()
        d_orig = np.linalg.norm(v[:, None, :] - v[None, :, :], axis=2)
        q = proj.points
        d_proj = np.linalg.norm(q[:, None, :] - q[None, :, :], axis=2)
        assert np.abs(d_orig - d_proj).max() < 1e-10


def test_project_two_pooled_segments_onto_one_axis():
    """One cluster at top_n = 1 pools two segments: one axis, and 0 on the second."""
    rng = np.random.default_rng(8)
    t = make_tensor(rng.normal(size=(4, 5, 3)))
    paths = build_paths(t, np.zeros(4, dtype=int), top_n=1)
    projected, model = project_paths(paths, r=2)
    assert model.loadings.shape == (3, 1)
    points = projected[0].points
    assert points.shape == (3, 2) and not points[:, 1].any()
    assert np.unique(points[:, 0]).size == 3
    assert render_paths(projected).count('class="segment"') == 2


def test_project_mirrored_paths_point_reflect():
    rng = np.random.default_rng(5)
    seg = rng.normal(size=(1, 5, 3))
    t_pos = make_tensor(seg)
    t_neg = make_tensor(-seg)
    paths = build_paths(t_pos, np.zeros(1, dtype=int)) + \
        build_paths(t_neg, np.zeros(1, dtype=int))
    projected, model = project_paths(paths, r=2)
    origin = pca_projected_origin = -(model.mean @ model.loadings)
    a, b = projected[0].points, projected[1].points
    assert np.abs((a + b) / 2 - origin).max() < 1e-10


def test_endpoint_identity_against_margins(sim_small_split):
    from shappaths import train_boosted, tree_shap

    train, test = sim_small_split
    model = train_boosted(train, n_rounds=5, max_depth=2)
    tensor = tree_shap(model, test.features)
    labels = test.labels.astype(int)
    paths = build_paths(tensor, labels)
    margins = model.predict_margin(test.features)
    for path, cls in zip(paths, np.unique(labels)):
        members = labels == cls
        target = (margins[members] - tensor.base).mean(axis=0)
        assert np.abs(path.endpoint - target).max() < 1e-9


def test_render_paths_and_sidecar():
    rng = np.random.default_rng(6)
    t = make_tensor(rng.normal(size=(6, 4, 3)))
    paths = build_paths(t, np.array([0, 0, 1, 1, 2, 2]))
    projected, _ = project_paths(paths)
    svg = render_paths(projected, feature_names=t.feature_names)
    assert svg.count('class="path"') == 3
    assert 'class="origin"' in svg
    assert svg.count('class="segment"') == 12  # arrowhead per segment
    assert render_paths(projected, feature_names=t.feature_names) == svg
    csv = paths_to_csv(projected, feature_names=t.feature_names)
    lines = csv.strip().splitlines()
    assert lines[0] == "group,feature,x,y"
    assert len(lines) == 1 + 3 * 5  # header + (4 segments + anchor) per path


def test_sidecar_quotes_names_that_hold_commas_quotes_or_line_breaks():
    rng = np.random.default_rng(7)
    t = make_tensor(rng.normal(size=(6, len(QUOTED_FEATURES), 3)))
    projected, _ = project_paths(build_paths(t, np.array([0, 0, 1, 1, 2, 2])))
    rows = list(csv.reader(io.StringIO(paths_to_csv(projected, feature_names=QUOTED_FEATURES))))
    assert rows[0] == ["group", "feature", "x", "y"]
    assert len(rows) == 1 + 3 * (1 + len(QUOTED_FEATURES))
    assert all(len(row) == 4 for row in rows)
    for path in projected:
        features = [row[1] for row in rows[1:] if row[0] == path.group]
        assert features == ["anchor", *(QUOTED_FEATURES[f] for f in path.feature_ids)]


def test_render_empty_paths_axes_only():
    svg = render_paths([])
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert 'class="path"' not in svg


def test_ordering_invariant_norm_nonincreasing():
    rng = np.random.default_rng(7)
    t = make_tensor(rng.normal(size=(5, 7, 2)))
    for path in build_paths(t, np.zeros(5, dtype=int)):
        norms = [np.linalg.norm(s) for _, s in path.entries]
        assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))


# ---------------------------------------------------------------------------
# charts

def summary(meanabs) -> dict:
    """The shap_summary of one sample whose |attributions| are ``meanabs``."""
    return shap_summary(make_tensor(np.array(meanabs, dtype=float)[None]))


def test_stacked_bar_single_class_and_sorting():
    meanabs = [[0.5], [2.0], [1.0]]
    svg = stacked_bar(summary(meanabs), PlotSpec(top_n=3))
    assert svg.count('class="bar-0"') == 3
    t = [[1.0, 1.0], [1.0, 1.0]]
    equal = stacked_bar(summary(t))
    assert equal.count('class="bar-') == 4


def test_stacked_bar_deterministic():
    rng = np.random.default_rng(8)
    meanabs = rng.uniform(size=(6, 3)).tolist()
    assert stacked_bar(summary(meanabs)) == stacked_bar(summary(meanabs))


def test_stacked_bar_heights_nonincreasing():
    import re

    rng = np.random.default_rng(11)
    meanabs = rng.uniform(size=(7, 3)).tolist()
    svg = stacked_bar(summary(meanabs), PlotSpec(top_n=7))
    stacks = {}
    for match in re.finditer(
            r'<rect x="([\d.]+)" y="[-\d.]+" width="[\d.]+" height="([\d.]+)"'
            r'[^>]*class="bar-\d"', svg):
        x, h = float(match.group(1)), float(match.group(2))
        stacks[x] = stacks.get(x, 0.0) + h
    totals = [stacks[x] for x in sorted(stacks)]
    assert len(totals) == 7
    assert all(a >= b - 1e-6 for a, b in zip(totals, totals[1:]))


def test_heatmap_single_cluster_is_global_mean():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(20, 3))
    svg = cluster_heatmap(cluster_means(X, [0] * 20), [0, 1, 2], ("a", "b", "c"))
    for mean in X.mean(axis=0):
        assert f"{mean:.2f}" in svg


def test_heatmap_hand_built_cells():
    X = np.array([[0.0, 10.0], [2.0, 10.0], [4.0, 20.0], [6.0, 20.0]])
    names = ("u", "v")
    svg = cluster_heatmap(cluster_means(X, [0, 0, 1, 1]), [0, 1], names)
    for cell in ("1.00", "10.00", "5.00", "20.00"):
        assert cell in svg
    assert "noise" not in svg
    with_noise = cluster_heatmap(cluster_means(X, [0, 0, 1, -1]), [0, 1], names)
    assert "noise: 1 samples excluded" in with_noise
    only_noise = cluster_heatmap(cluster_means(X, [-1] * 4), [0, 1], names)
    assert "noise: 4 samples excluded" in only_noise and 'class="cell"' not in only_noise


def test_cluster_means_give_each_drawn_subset_numpys_bits():
    """The heatmap draws a subset of the means of every column. Each has the
    bits numpy gives over that subset's own column-indexed copy, for all rows
    and for each cluster's; a mean over the C-ordered rows misses them."""
    def bits(values):
        return np.asarray(values, dtype=float).view(np.uint64).tolist()

    rng = np.random.default_rng(14)
    c_order_misses = 0
    for n, p in [(1, 3), (9, 1), (130, 2), (300, 4), (1600, 10)]:
        X = rng.standard_normal((n, p)) * 10.0 ** rng.integers(-6, 7, (n, p))
        labels = rng.integers(-1, 3, n)
        means = cluster_means(X, labels)
        assert means["noise"] == int((labels == -1).sum())
        assert means["cluster_ids"] == sorted(set(labels.tolist()) - {-1})
        half = rng.permutation(p)[:max(1, p // 2)].tolist()
        for subset in ([p - 1], list(range(p))[::-1], half):
            assert bits([means["global"][j] for j in subset]) == bits(X[:, subset].mean(axis=0))
            for c, row in zip(means["cluster_ids"], means["clusters"]):
                assert bits([row[j] for j in subset]) == \
                    bits(X[labels == c][:, subset].mean(axis=0))
        c_order_misses += bits(X.mean(axis=0)) != bits(means["global"])
    assert c_order_misses


def test_scatter_renders_noise():
    rng = np.random.default_rng(10)
    scores = rng.normal(size=(15, 2))
    labels = np.array([0] * 7 + [1] * 7 + [-1])
    svg = pca_scatter(scores, labels)
    assert svg.count('class="point"') == 15
    assert "noise" in svg
