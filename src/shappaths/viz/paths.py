"""High-dimensional waterfall paths and their planar projection.

A path represents one group (a cluster, a class, or a single sample) as a
k-dimensional polyline from the origin: its segments are the group-mean
per-feature SHAP vectors, concatenated in decreasing Euclidean norm. By
additivity the endpoint is the group's mean (margin - base) vector. To
draw several paths comparably, one PCA frame is fitted on the pooled
segment vectors of all paths and every vertex is mapped through it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ..errors import DataError, InvalidSpecError
from ..explain.tensor import ShapTensor
from ..subgroup.pca import PcaModel, pca_fit, pca_transform
from .svg import NOISE, PALETTE, Canvas, PlotSpec, nice_ticks

REMAINDER = -1  # feature id of an aggregated tail segment


@dataclass(frozen=True)
class WaterfallPath:
    group: str
    entries: tuple[tuple[int, np.ndarray], ...]  # (feature id, k-vector segment)
    anchor: np.ndarray                           # (k,)
    endpoint: np.ndarray                         # (k,) anchor + sum of segments

    def vertices(self) -> np.ndarray:
        """(m + 1, k) cumulative polyline including the anchor."""
        points = [self.anchor]
        for _, segment in self.entries:
            points.append(points[-1] + segment)
        return np.vstack(points)


@dataclass(frozen=True)
class ProjectedPath:
    group: str
    feature_ids: tuple[int, ...]
    points: np.ndarray  # (m + 1, 2)


def _groups_from(grouping, n: int) -> list[tuple[str, np.ndarray]]:
    if isinstance(grouping, str):
        if grouping != "sample":
            raise InvalidSpecError(f"unknown grouping {grouping!r}")
        return [(f"sample {i}", np.array([i])) for i in range(n)]
    labels = np.asarray(getattr(grouping, "labels", grouping), dtype=int)
    if labels.shape != (n,):
        raise DataError(f"grouping labels must have length {n}")
    named = "cluster" if hasattr(grouping, "labels") else "group"
    groups = []
    for value in sorted(set(labels.tolist())):
        if value == -1:  # noise is excluded from group averages
            continue
        groups.append((f"{named} {value}", np.flatnonzero(labels == value)))
    return groups


def build_paths(t: ShapTensor, grouping, top_n: int | None = None) -> list[WaterfallPath]:
    """One origin-anchored path per group, segments in decreasing norm.

    ``grouping`` is a ClusterLabeling, an integer label array (-1 excluded
    as noise), or the string "sample" for per-sample paths. With ``top_n``,
    trailing features collapse into one terminal remainder segment so the
    endpoint identity is preserved exactly.
    """
    paths = []
    for name, members in _groups_from(grouping, t.n):
        mean_matrix = t.values[members].mean(axis=0)  # (p, k)
        norms = np.linalg.norm(mean_matrix, axis=1)
        order = np.lexsort((np.arange(t.p), -norms))
        entries = [(int(j), mean_matrix[j]) for j in order]
        if top_n is not None and top_n >= 1 and len(entries) > top_n:
            head, tail = entries[:top_n], entries[top_n:]
            entries = head + [(REMAINDER, np.sum([s for _, s in tail], axis=0))]
        anchor = np.zeros(t.k)
        endpoint = anchor.copy()
        for _, segment in entries:
            endpoint = endpoint + segment
        paths.append(WaterfallPath(group=name, entries=tuple(entries),
                                   anchor=anchor, endpoint=endpoint))
    return paths


def project_paths(paths: list[WaterfallPath],
                  r: int = 2) -> tuple[list[ProjectedPath], PcaModel | None]:
    """Map every path vertex through one shared PCA frame.

    The frame is fitted on the pooled segment vectors of all paths. A pool
    of m segments spans at most m - 1 axes (one cluster at ``top_n`` = 1
    pools two), so the frame may have fewer than ``min(r, k)`` axes; the
    points then read 0 on the missing ones. For k = 1 no projection is
    needed: the polylines get x = step index and y = cumulative value, and
    the model is None.
    """
    if not paths:
        return [], None
    k = paths[0].anchor.shape[0]
    if k < 2:
        warnings.warn("1-class paths need no projection; returning cumulative values")
        projected = []
        for path in paths:
            cumulative = path.vertices()[:, 0]
            points = np.column_stack([np.arange(cumulative.size), cumulative])
            projected.append(ProjectedPath(group=path.group,
                                           feature_ids=tuple(f for f, _ in path.entries),
                                           points=points))
        return projected, None

    pool = np.vstack([np.vstack([s for _, s in path.entries]) for path in paths])
    if (pool[1:] == pool[:1]).all():
        raise DataError("need at least 2 distinct segment vectors to fit a projection")
    axes = min(r, k)
    model = pca_fit(pool, min(axes, pool.shape[0] - 1))
    projected = []
    for path in paths:
        points = pca_transform(model, path.vertices())
        points = np.pad(points, ((0, 0), (0, axes - points.shape[1])))
        projected.append(ProjectedPath(group=path.group,
                                       feature_ids=tuple(f for f, _ in path.entries),
                                       points=points))
    return projected, model


def _feature_label(fid: int, feature_names) -> str:
    if fid == REMAINDER:
        return "rest"
    if feature_names and 0 <= fid < len(feature_names):
        return str(feature_names[fid])
    return f"f{fid}"


def render_paths(projected: list[ProjectedPath], spec: PlotSpec = PlotSpec(),
                 feature_names=None, footnote: str = "") -> str:
    """Color-coded polylines with per-segment arrowheads and labels."""
    spec.validate()
    canvas = Canvas(spec.width, spec.height, title="clustered waterfall paths")
    left, right, top, bottom = 56, 170, 40, 40
    plot_w, plot_h = spec.width - left - right, spec.height - top - bottom

    if projected:
        everything = np.vstack([p.points for p in projected])
        lo = everything.min(axis=0)
        hi = everything.max(axis=0)
    else:
        lo, hi = np.array([-1.0, -1.0]), np.array([1.0, 1.0])
    span = np.maximum(hi - lo, 1e-9)
    lo = lo - 0.08 * span
    hi = hi + 0.08 * span

    def pix(point):
        x = left + (point[0] - lo[0]) / (hi[0] - lo[0]) * plot_w
        y = top + plot_h - (point[1] - lo[1]) / (hi[1] - lo[1]) * plot_h
        return x, y

    for tick in nice_ticks(lo[0], hi[0]):
        x, _ = pix((tick, lo[1]))
        canvas.line(x, top, x, top + plot_h, stroke="#f0f0f0")
        canvas.text(x, top + plot_h + 14, f"{tick:g}", anchor="middle", size=9)
    for tick in nice_ticks(lo[1], hi[1]):
        _, y = pix((lo[0], tick))
        canvas.line(left, y, left + plot_w, y, stroke="#f0f0f0")
        canvas.text(left - 4, y + 3, f"{tick:g}", anchor="end", size=9)
    canvas.text(left + plot_w / 2, spec.height - 8, "component 1",
                anchor="middle", size=11)
    canvas.text(14, top + plot_h / 2, "component 2",
                anchor="middle", size=11)

    for idx, path in enumerate(projected):
        color = PALETTE[idx % len(PALETTE)]
        points = [pix(pt) for pt in path.points]
        canvas.polyline(points, stroke=color, width=2.0, cls="path")
        for s, (a, b) in enumerate(zip(points[:-1], points[1:])):
            dx, dy = b[0] - a[0], b[1] - a[1]
            if dx * dx + dy * dy < 1e-12:
                continue
            angle = np.arctan2(dy, dx)
            canvas.arrow_head(b[0], b[1], angle, size=7.0, fill=color, cls="segment")
            canvas.text((a[0] + b[0]) / 2 + 3, (a[1] + b[1]) / 2 - 3,
                        _feature_label(path.feature_ids[s], feature_names),
                        size=8, fill=color)
    if projected:
        origin = pix(projected[0].points[0])
        canvas.circle(origin[0], origin[1], 3.5, fill="#000000", cls="origin")
        canvas.text(origin[0] + 6, origin[1] - 5, "origin", size=9)

    legend_x = left + plot_w + 14
    canvas.text(legend_x, top, "groups", size=11, weight="bold")
    for idx, path in enumerate(projected):
        y = top + 16 + idx * 16
        canvas.rect(legend_x, y - 9, 10, 10, fill=PALETTE[idx % len(PALETTE)])
        canvas.text(legend_x + 14, y, path.group, size=10)
    if footnote:
        canvas.text(legend_x, top + 24 + len(projected) * 16, footnote,
                    size=9, fill=NOISE, cls="footnote")
    return canvas.to_svg()


def _csv_cell(text: str) -> str:
    """``text`` as a CSV cell, quoted when it holds a comma, a quote or a line
    break. A lone carriage return counts: csv.writer with a "\\n" line
    terminator leaves it bare, and a reader then splits the row there."""
    return '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"\r\n') else text


def paths_to_csv(projected: list[ProjectedPath], feature_names=None) -> str:
    """Sidecar table of plotted coordinates: group, feature, x, y; a name
    holding a comma, a quote or a line break is quoted."""
    lines = ["group,feature,x,y"]
    for path in projected:
        for i, (x, y) in enumerate(path.points):
            feature = "anchor" if i == 0 else _feature_label(path.feature_ids[i - 1],
                                                             feature_names)
            lines.append(",".join([_csv_cell(path.group), _csv_cell(feature),
                                   repr(float(x)), repr(float(y))]))
    return "\n".join(lines) + "\n"
