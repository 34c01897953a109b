"""Classical single-class waterfall plots.

Bars are anchored at the class base value, ordered by decreasing
magnitude, each starting at the running total left by the previous one;
features beyond ``top_n`` collapse into a single "other" bar so the final
tip still lands exactly on the explained margin.
"""

from __future__ import annotations

from ..errors import InvalidSpecError
from ..explain.reader import TensorReader, descending, pairwise_sum
from .svg import NEGATIVE, POSITIVE, Canvas, PlotSpec, nice_ticks


def waterfall_entries(phi: list[float], feature_names,
                      top_n: int) -> list[tuple[str, float]]:
    """(label, contribution) rows in plot order, with the tail aggregated."""
    order = descending([abs(v) for v in phi])
    entries = [(feature_names[j], phi[j]) for j in order[:top_n]]
    if len(phi) > top_n:
        entries.append((f"other ({len(phi) - top_n} features)",
                        pairwise_sum([phi[j] for j in order[top_n:]])))
    return entries


def waterfall_row(t: TensorReader, sample: int, class_index: int | None = None):
    """The leading arguments of :func:`classical_waterfall` for one sample
    and one class (optional when k=1) of a saved tensor: phi, base, feature
    names and title. Only the sample's row is read."""
    if not (0 <= sample < t.n):
        raise InvalidSpecError(f"sample {sample} out of range [0, {t.n})")
    if class_index is None:
        if t.k != 1:
            raise InvalidSpecError(f"class_index is required for a {t.k}-class tensor")
        class_index = 0
    if not (0 <= class_index < t.k):
        raise InvalidSpecError(f"class_index {class_index} out of range [0, {t.k})")
    sample_id, phi = t.sample(sample, class_index)
    title = f"sample {sample_id}" + (f", {t.class_names[class_index]}" if t.k > 1 else "")
    return phi, t.base[class_index], t.feature_names, title


def classical_waterfall(phi: list[float], base: float, feature_names, title: str = "",
                        spec: PlotSpec = PlotSpec()) -> str:
    """SVG waterfall of one sample's attributions ``phi`` to one class."""
    spec.validate()
    entries = waterfall_entries(phi, feature_names, spec.top_n)
    cumulative = [base]
    for _, v in entries:
        cumulative.append(cumulative[-1] + v)
    tip = cumulative[-1]

    left, right, top, bottom = 170, 30, 46, 46
    plot_w = spec.width - left - right
    plot_h = spec.height - top - bottom
    lo = min(cumulative) - 1e-12
    hi = max(cumulative) + 1e-12
    pad = 0.08 * (hi - lo) or 0.5
    lo, hi = lo - pad, hi + pad

    def xpix(v):
        return left + (v - lo) / (hi - lo) * plot_w

    canvas = Canvas(spec.width, spec.height, title=f"waterfall: {title}")
    for tick in nice_ticks(lo, hi):
        x = xpix(tick)
        canvas.line(x, top, x, top + plot_h, stroke="#eeeeee")
        canvas.text(x, top + plot_h + 16, f"{tick:g}", anchor="middle", size=10)
    canvas.text(left + plot_w / 2, spec.height - 10,
                "margin contribution", anchor="middle", size=11)

    n_rows = max(len(entries), 1)
    row_h = plot_h / (n_rows + 1)
    bar_h = min(24.0, 0.7 * row_h)
    canvas.line(xpix(base), top - 4, xpix(base), top + plot_h, stroke="#888888",
                dash="4,3", cls="base-line")
    canvas.text(xpix(base), top - 8, f"base {base:.2f}", anchor="middle", size=10,
                fill="#555555")
    for i, (name, v) in enumerate(entries):
        y = top + (i + 0.5) * row_h
        canvas.text(left - 8, y + bar_h / 2 - 2, name, anchor="end", size=10)
        if v == 0.0:
            continue
        x0, x1 = xpix(cumulative[i]), xpix(cumulative[i + 1])
        canvas.rect(min(x0, x1), y, abs(x1 - x0), bar_h,
                    fill=POSITIVE if v > 0 else NEGATIVE,
                    cls="bar pos" if v > 0 else "bar neg")
        canvas.text(max(x0, x1) + 4, y + bar_h / 2 + 3, f"{v:+.2f}", size=9,
                    fill="#444444")
        if i + 1 < len(entries):
            y_next = top + (i + 1.5) * row_h
            canvas.line(x1, y + bar_h, x1, y_next, stroke="#bbbbbb", dash="2,2")
    canvas.line(xpix(tip), top, xpix(tip), top + plot_h, stroke="#222222",
                width=1.5, cls="tip-line")
    canvas.text(xpix(tip), top + plot_h + 30, f"prediction {tip:.2f}",
                anchor="middle", size=11, weight="bold", cls="tip-label")
    return canvas.to_svg()
