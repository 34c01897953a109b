"""A tiny deterministic SVG writer: fixed float formatting, no timestamps."""

from __future__ import annotations

import math
from typing import NamedTuple

from ..errors import InvalidSpecError

PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
           "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf")
POSITIVE = "#d62728"
NEGATIVE = "#1f77b4"
NOISE = "#b0b0b0"


class PlotSpec(NamedTuple):
    width: int = 760
    height: int = 520
    top_n: int = 9

    def validate(self):
        if self.top_n < 1:
            raise InvalidSpecError("top_n must be at least 1")
        if self.width < 100 or self.height < 100:
            raise InvalidSpecError("plot must be at least 100x100 pixels")


def fmt(v: float) -> str:
    s = f"{float(v):.3f}"
    return "0.000" if s == "-0.000" else s


def esc(text: str) -> str:
    return (str(text).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;"))


class Canvas:
    def __init__(self, width: int, height: int, title: str = ""):
        self.width = width
        self.height = height
        self.parts: list[str] = []
        self.rect(0, 0, width, height, fill="#ffffff", stroke="none")
        if title:
            self.text(width / 2, 18, title, size=14, anchor="middle", weight="bold")

    def rect(self, x, y, w, h, fill, stroke="none", cls=""):
        extra = f' class="{cls}"' if cls else ""
        self.parts.append(
            f'<rect x="{fmt(x)}" y="{fmt(y)}" width="{fmt(w)}" height="{fmt(h)}" '
            f'fill="{fill}" stroke="{stroke}"{extra}/>')

    def line(self, x1, y1, x2, y2, stroke="#000000", width=1.0, dash="", cls=""):
        extra = f' stroke-dasharray="{dash}"' if dash else ""
        if cls:
            extra += f' class="{cls}"'
        self.parts.append(
            f'<line x1="{fmt(x1)}" y1="{fmt(y1)}" x2="{fmt(x2)}" y2="{fmt(y2)}" '
            f'stroke="{stroke}" stroke-width="{fmt(width)}"{extra}/>')

    def polyline(self, points, stroke, width=2.0, cls=""):
        joined = " ".join(f"{fmt(x)},{fmt(y)}" for x, y in points)
        extra = f' class="{cls}"' if cls else ""
        self.parts.append(
            f'<polyline points="{joined}" fill="none" stroke="{stroke}" '
            f'stroke-width="{fmt(width)}"{extra}/>')

    def circle(self, cx, cy, r, fill, stroke="none", cls=""):
        extra = f' class="{cls}"' if cls else ""
        self.parts.append(
            f'<circle cx="{fmt(cx)}" cy="{fmt(cy)}" r="{fmt(r)}" fill="{fill}" '
            f'stroke="{stroke}"{extra}/>')

    def polygon(self, points, fill, cls=""):
        joined = " ".join(f"{fmt(x)},{fmt(y)}" for x, y in points)
        extra = f' class="{cls}"' if cls else ""
        self.parts.append(f'<polygon points="{joined}" fill="{fill}"{extra}/>')

    def text(self, x, y, content, size=11, anchor="start", fill="#222222",
             weight="normal", cls=""):
        extra = f' class="{cls}"' if cls else ""
        if weight != "normal":
            extra += f' font-weight="{weight}"'
        self.parts.append(
            f'<text x="{fmt(x)}" y="{fmt(y)}" font-size="{fmt(size)}" '
            f'font-family="Helvetica, Arial, sans-serif" text-anchor="{anchor}" '
            f'fill="{fill}"{extra}>{esc(content)}</text>')

    def arrow_head(self, x, y, angle, size, fill, cls=""):
        """A triangle tip at (x, y) pointing along ``angle`` (radians)."""
        base_x = x - size * math.cos(angle)
        base_y = y - size * math.sin(angle)
        ox = 0.45 * size * math.sin(angle)
        oy = -0.45 * size * math.cos(angle)
        self.polygon([(x, y), (base_x + ox, base_y + oy), (base_x - ox, base_y - oy)],
                     fill=fill, cls=cls)

    def to_svg(self) -> str:
        body = "\n".join(self.parts)
        return (f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
                f'width="{self.width}" height="{self.height}" '
                f'viewBox="0 0 {self.width} {self.height}">\n'
                f"{body}\n</svg>\n")


def nice_ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    """Round tick positions covering [lo, hi]."""
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / max(target, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12 * step:
        ticks.append(0.0 if abs(t) < step * 1e-9 else t)
        t += step
    return ticks
