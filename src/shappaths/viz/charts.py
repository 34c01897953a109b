"""Stacked importance bars, cluster heatmaps, and embedding scatters."""

from __future__ import annotations

from typing import TYPE_CHECKING

from .svg import NOISE, PALETTE, Canvas, PlotSpec, nice_ticks

if TYPE_CHECKING:
    import numpy as np


def stacked_bar(summary: dict, spec: PlotSpec = PlotSpec()) -> str:
    """Per-feature mean-|SHAP| bars stacked by class, tallest first, from a
    tensor's :func:`~shappaths.explain.tensor.shap_summary`."""
    spec.validate()
    meanabs, totals = summary["mean_abs"], summary["totals"]
    feature_names, class_names = summary["feature_names"], summary["class_names"]
    k = len(class_names)
    order = summary["order"][: spec.top_n]

    left, right, top, bottom = 64, 150, 40, 70
    plot_w, plot_h = spec.width - left - right, spec.height - top - bottom
    hi = totals[order[0]] or 1.0  # the tallest
    canvas = Canvas(spec.width, spec.height, title="mean |SHAP| by feature and class")
    for tick in nice_ticks(0.0, hi):
        y = top + plot_h - tick / (hi * 1.05) * plot_h
        canvas.line(left, y, left + plot_w, y, stroke="#f0f0f0")
        canvas.text(left - 6, y + 3, f"{tick:g}", anchor="end", size=9)

    slot = plot_w / max(len(order), 1)
    bar_w = 0.62 * slot
    for i, j in enumerate(order):
        x = left + i * slot + (slot - bar_w) / 2
        y = top + plot_h
        for c in range(k):
            h = meanabs[j][c] / (hi * 1.05) * plot_h
            if h > 0:
                canvas.rect(x, y - h, bar_w, h, fill=PALETTE[c % len(PALETTE)],
                            cls=f"bar-{c}")
            y -= h
        canvas.text(x + bar_w / 2, top + plot_h + 14, feature_names[j],
                    anchor="middle", size=9)
    canvas.text(left + plot_w / 2, spec.height - 12, "feature",
                anchor="middle", size=11)
    legend_x = left + plot_w + 12
    canvas.text(legend_x, top, "classes", size=11, weight="bold")
    for c, name in enumerate(class_names):
        y = top + 16 + c * 16
        canvas.rect(legend_x, y - 9, 10, 10, fill=PALETTE[c % len(PALETTE)])
        canvas.text(legend_x + 14, y, name, size=10)
    return canvas.to_svg()


def _diverging_color(t: float) -> str:
    """t in [-1, 1] -> blue / white / red."""
    t = max(-1.0, min(1.0, t))
    if t >= 0:
        r, g, b = 255, round(255 * (1 - t * 0.75)), round(255 * (1 - t * 0.85))
    else:
        r, g, b = round(255 * (1 + t * 0.85)), round(255 * (1 + t * 0.75)), 255
    return f"#{r:02x}{g:02x}{b:02x}"


def cluster_heatmap(means: dict, columns, feature_names, spec: PlotSpec = PlotSpec()) -> str:
    """Cluster-mean raw feature values, diverging around the global mean.

    ``means`` is :func:`~shappaths.subgroup.purity.cluster_means` of the
    explained rows, ``columns`` the features to draw, in order (callers
    usually pass the top features by mean |SHAP|), and ``feature_names``
    their names. Colors normalize per feature (columns have their own
    scales); noise points are excluded and counted in the footnote.
    """
    spec.validate()
    clusters = means["cluster_ids"]
    global_mean = [means["global"][j] for j in columns]
    cells = [[row[j] for j in columns] for row in means["clusters"]]
    deviation = [[cell - mean for cell, mean in zip(row, global_mean)] for row in cells]
    scale = [max(max((abs(row[j]) for row in deviation), default=0.0), 1e-300)
             for j in range(len(feature_names))]

    left, right, top, bottom = 110, 30, 56, 46
    plot_w = spec.width - left - right
    plot_h = spec.height - top - bottom
    cell_w = plot_w / max(len(feature_names), 1)
    cell_h = min(36.0, plot_h / max(len(clusters), 1))
    canvas = Canvas(spec.width, spec.height, title="cluster means of raw features")
    for j, name in enumerate(feature_names):
        canvas.text(left + (j + 0.5) * cell_w, top - 8, name, anchor="middle", size=9)
    for i, c in enumerate(clusters):
        y = top + i * cell_h
        canvas.text(left - 8, y + cell_h / 2 + 3, f"cluster {c}", anchor="end", size=10)
        for j in range(len(feature_names)):
            color = _diverging_color(deviation[i][j] / scale[j])
            canvas.rect(left + j * cell_w, y, cell_w - 1, cell_h - 1, fill=color,
                        cls="cell")
            canvas.text(left + (j + 0.5) * cell_w, y + cell_h / 2 + 3,
                        f"{cells[i][j]:.2f}", anchor="middle", size=8)
    n_noise = means["noise"]
    if n_noise:
        canvas.text(left, top + len(clusters) * cell_h + 18,
                    f"noise: {n_noise} samples excluded", size=9, fill=NOISE,
                    cls="footnote")
    return canvas.to_svg()


def pca_scatter(scores: np.ndarray, labels, spec: PlotSpec = PlotSpec(),
                label_names=None, title: str = "embedding") -> str:
    """2-D scatter of PCA scores colored by integer label (-1 = noise)."""
    import numpy as np

    spec.validate()
    scores = np.atleast_2d(np.asarray(scores, dtype=float))
    labels = np.asarray(getattr(labels, "labels", labels), dtype=int)
    left, right, top, bottom = 56, 150, 40, 40
    plot_w, plot_h = spec.width - left - right, spec.height - top - bottom
    lo = scores.min(axis=0)
    hi = scores.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)
    lo, hi = lo - 0.06 * span, hi + 0.06 * span
    canvas = Canvas(spec.width, spec.height, title=title)

    def pix(pt):
        return (left + (pt[0] - lo[0]) / (hi[0] - lo[0]) * plot_w,
                top + plot_h - (pt[1] - lo[1]) / (hi[1] - lo[1]) * plot_h)

    for pt, lab in zip(scores, labels):
        color = NOISE if lab == -1 else PALETTE[lab % len(PALETTE)]
        x, y = pix(pt)
        canvas.circle(x, y, 2.4, fill=color, cls="point")
    legend_x = left + plot_w + 12
    present = sorted(set(labels.tolist()))
    for i, v in enumerate(present):
        y = top + 16 + i * 16
        color = NOISE if v == -1 else PALETTE[v % len(PALETTE)]
        name = "noise" if v == -1 else (
            label_names[v] if label_names and v < len(label_names) else str(v))
        canvas.circle(legend_x + 5, y - 4, 4, fill=color)
        canvas.text(legend_x + 14, y, name, size=10)
    return canvas.to_svg()
