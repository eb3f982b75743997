"""Minimal deterministic SVG bar and line charts for the report commands.

Text-based SVG keeps chart output diffable in tests and avoids a graphics
dependency. All coordinates are formatted with fixed precision so reruns
are byte-identical (up to the version comment, written by the CLI)."""

from __future__ import annotations

import html
from typing import Sequence

_FONT = "font-family=\"sans-serif\" font-size=\"12\""
BAR_COLOR = "#4878a8"
HIGHLIGHT_COLOR = "#d9822b"
LINE_COLORS = ("#4878a8", "#d9822b", "#5a9e6f", "#b05cc6")
THRESHOLD_COLOR = "#c44040"


def escape(text: str) -> str:
    """``&``, ``<`` and ``>`` as entities; quotes stay as they are."""
    return html.escape(text, quote=False)


def _f(x: float) -> str:
    return f"{x:.2f}"


def _svg(width: float, height: float, body: list[str], comment: str | None) -> str:
    head = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_f(width)}" '
            f'height="{_f(height)}" viewBox="0 0 {_f(width)} {_f(height)}">']
    if comment:
        head.append(f"<!-- {escape(comment)} -->")
    head.append(f'<rect width="{_f(width)}" height="{_f(height)}" fill="white"/>')
    return "\n".join(head + body + ["</svg>"]) + "\n"


def hbar_chart(title: str, items: Sequence[tuple[str, float]],
               highlight: str | None = None, reference: float | None = None,
               axis_max: float | None = None, value_format: str = "%.4f",
               comment: str | None = None) -> str:
    """Horizontal bars, one per labeled value; the highlighted bar (and an
    optional vertical reference line) mark the control."""
    label_w, bar_w, row_h, pad = 220.0, 420.0, 22.0, 10.0
    top = 34.0
    height = top + row_h * max(len(items), 1) + pad
    width = label_w + bar_w + 110.0
    vmax = axis_max if axis_max is not None else max([v for _, v in items] + [1e-12])
    body = [f'<text x="{_f(pad)}" y="20" {_FONT} font-weight="bold">{escape(title)}</text>']
    if not items:
        body.append(f'<text x="{_f(label_w)}" y="{_f(top + 16)}" {_FONT}>'
                    "no profiles</text>")
    for i, (label, value) in enumerate(items):
        y = top + i * row_h
        w = bar_w * (value / vmax if vmax > 0 else 0.0)
        color = HIGHLIGHT_COLOR if label == highlight else BAR_COLOR
        body.append(f'<text x="{_f(label_w - 6)}" y="{_f(y + 15)}" {_FONT} '
                    f'text-anchor="end">{escape(label)}</text>')
        body.append(f'<rect x="{_f(label_w)}" y="{_f(y + 3)}" width="{_f(w)}" '
                    f'height="{_f(row_h - 8)}" fill="{color}"/>')
        body.append(f'<text x="{_f(label_w + w + 6)}" y="{_f(y + 15)}" {_FONT}>'
                    f"{value_format % value}</text>")
    if reference is not None and items:
        x = label_w + bar_w * (reference / vmax if vmax > 0 else 0.0)
        y1 = top
        y2 = top + row_h * len(items)
        body.append(f'<line x1="{_f(x)}" y1="{_f(y1)}" x2="{_f(x)}" y2="{_f(y2)}" '
                    f'stroke="{THRESHOLD_COLOR}" stroke-dasharray="4 3"/>')
    return _svg(width, height, body, comment)


def vbar_chart(title: str, items: Sequence[tuple[str, float]],
               axis_max: float | None = None, value_format: str = "%.4f",
               comment: str | None = None) -> str:
    """Vertical bars, one per labeled value."""
    bar_w, gap, plot_h, pad = 64.0, 24.0, 240.0, 10.0
    top = 40.0
    width = pad * 2 + max(len(items), 1) * (bar_w + gap) + gap
    height = top + plot_h + 40.0
    vmax = axis_max if axis_max is not None else max([v for _, v in items] + [1e-12])
    body = [f'<text x="{_f(pad)}" y="20" {_FONT} font-weight="bold">{escape(title)}</text>']
    if not items:
        body.append(f'<text x="{_f(pad)}" y="{_f(top + 16)}" {_FONT}>no data</text>')
    for i, (label, value) in enumerate(items):
        x = pad + gap + i * (bar_w + gap)
        h = plot_h * (value / vmax if vmax > 0 else 0.0)
        y = top + plot_h - h
        body.append(f'<rect x="{_f(x)}" y="{_f(y)}" width="{_f(bar_w)}" '
                    f'height="{_f(h)}" fill="{BAR_COLOR}"/>')
        body.append(f'<text x="{_f(x + bar_w / 2)}" y="{_f(y - 5)}" {_FONT} '
                    f'text-anchor="middle">{value_format % value}</text>')
        body.append(f'<text x="{_f(x + bar_w / 2)}" y="{_f(top + plot_h + 16)}" {_FONT} '
                    f'text-anchor="middle">{escape(label)}</text>')
    return _svg(width, height, body, comment)


def line_chart(title: str, series: Sequence[tuple[str, Sequence[tuple[float, float]]]],
               hlines: Sequence[tuple[str, float]] = (),
               x_label: str = "", y_label: str = "",
               y_max: float = 1.0, comment: str | None = None) -> str:
    """One polyline per named series over integer x positions, with optional
    labeled horizontal threshold lines."""
    left, plot_w, plot_h, top = 60.0, 480.0, 280.0, 40.0
    width = left + plot_w + 170.0
    height = top + plot_h + 50.0
    xs = sorted({x for _, pts in series for x, _ in pts})
    x_min, x_max = (min(xs), max(xs)) if xs else (0.0, 1.0)
    span = (x_max - x_min) or 1.0

    def sx(x: float) -> float:
        return left + plot_w * (x - x_min) / span

    def sy(y: float) -> float:
        return top + plot_h * (1.0 - y / y_max)

    body = [f'<text x="10" y="20" {_FONT} font-weight="bold">{escape(title)}</text>',
            f'<rect x="{_f(left)}" y="{_f(top)}" width="{_f(plot_w)}" '
            f'height="{_f(plot_h)}" fill="none" stroke="#888"/>']
    for x in xs:
        body.append(f'<text x="{_f(sx(x))}" y="{_f(top + plot_h + 16)}" {_FONT} '
                    f'text-anchor="middle">{x:g}</text>')
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        body.append(f'<text x="{_f(left - 8)}" y="{_f(sy(frac * y_max) + 4)}" {_FONT} '
                    f'text-anchor="end">{frac * y_max:.2f}</text>')
    if x_label:
        body.append(f'<text x="{_f(left + plot_w / 2)}" y="{_f(height - 10)}" {_FONT} '
                    f'text-anchor="middle">{escape(x_label)}</text>')
    if y_label:
        body.append(f'<text x="14" y="{_f(top - 8)}" {_FONT}>{escape(y_label)}</text>')
    for label, y in hlines:
        body.append(f'<line x1="{_f(left)}" y1="{_f(sy(y))}" x2="{_f(left + plot_w)}" '
                    f'y2="{_f(sy(y))}" stroke="{THRESHOLD_COLOR}" stroke-dasharray="5 4"/>')
        body.append(f'<text x="{_f(left + plot_w + 6)}" y="{_f(sy(y) + 4)}" {_FONT} '
                    f'fill="{THRESHOLD_COLOR}">{escape(label)}</text>')
    for s, (name, pts) in enumerate(series):
        color = LINE_COLORS[s % len(LINE_COLORS)]
        pts = sorted(pts)
        path = " ".join(f"{_f(sx(x))},{_f(sy(y))}" for x, y in pts)
        body.append(f'<polyline points="{path}" fill="none" stroke="{color}" '
                    'stroke-width="2"/>')
        for x, y in pts:
            body.append(f'<circle cx="{_f(sx(x))}" cy="{_f(sy(y))}" r="3" '
                        f'fill="{color}"/>')
        if pts:
            body.append(f'<text x="{_f(left + plot_w + 6)}" '
                        f'y="{_f(sy(pts[-1][1]) - 8)}" {_FONT} fill="{color}">'
                        f"{escape(name)}</text>")
    return _svg(width, height, body, comment)
