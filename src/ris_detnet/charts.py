"""Self-contained SVG line charts (no plotting dependency).

Output is deterministic: fixed palette, fixed float formatting, stable
element order, declared viewBox.
"""
from __future__ import annotations

import math

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _ticks(lo: float, hi: float, count: int = 5):
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def svg_line_chart(path: str, series, title: str = "", xlabel: str = "",
                   ylabel: str = "", width: int = 640, height: int = 420,
                   xlabels=None):
    """Write a line chart; series is a list of (label, xs, ys).  With
    xlabels, the x ticks are at 0, 1, ... and labelled by those texts."""
    ml, mr, mt, mb = 64, 16, 36, 48
    pw, ph = width - ml - mr, height - mt - mb
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys if math.isfinite(y)]
    x_lo, x_hi = (min(xs_all), max(xs_all)) if xs_all else (0.0, 1.0)
    y_lo, y_hi = (min(ys_all), max(ys_all)) if ys_all else (0.0, 1.0)
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0

    def px(x):
        return ml + (x - x_lo) / (x_hi - x_lo) * pw

    def py(y):
        return mt + ph - (y - y_lo) / (y_hi - y_lo) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width // 2}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
    ]
    # axes
    parts.append(f'<line x1="{ml}" y1="{mt + ph}" x2="{ml + pw}" y2="{mt + ph}" '
                 'stroke="black" stroke-width="1"/>')
    parts.append(f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + ph}" '
                 'stroke="black" stroke-width="1"/>')
    xticks = ([(tx, f"{tx:.3g}") for tx in _ticks(x_lo, x_hi)] if xlabels is None
              else [(i, text.replace("&", "&amp;").replace("<", "&lt;"))
                    for i, text in enumerate(xlabels)])
    for tx, text in xticks:
        parts.append(f'<line x1="{_fmt(px(tx))}" y1="{mt + ph}" x2="{_fmt(px(tx))}" '
                     f'y2="{mt + ph + 4}" stroke="black"/>')
        parts.append(f'<text x="{_fmt(px(tx))}" y="{mt + ph + 18}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="10">{text}</text>')
    for ty in _ticks(y_lo, y_hi):
        parts.append(f'<line x1="{ml - 4}" y1="{_fmt(py(ty))}" x2="{ml}" '
                     f'y2="{_fmt(py(ty))}" stroke="black"/>')
        parts.append(f'<text x="{ml - 8}" y="{_fmt(py(ty) + 3)}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="10">{ty:.3g}</text>')
    parts.append(f'<text x="{ml + pw // 2}" y="{height - 10}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="12">{xlabel}</text>')
    parts.append(f'<text x="16" y="{mt + ph // 2}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="12" '
                 f'transform="rotate(-90 16 {mt + ph // 2})">{ylabel}</text>')
    for i, (label, xs, ys) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        pts = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}"
                       for x, y in zip(xs, ys) if math.isfinite(y))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     'stroke-width="1.5"/>')
        ly = mt + 14 + 14 * i
        parts.append(f'<line x1="{ml + pw - 110}" y1="{ly - 4}" x2="{ml + pw - 90}" '
                     f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{ml + pw - 84}" y="{ly}" font-family="sans-serif" '
                     f'font-size="10">{label}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
