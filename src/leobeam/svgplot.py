"""Minimal SVG line-plot writer for sweep artifacts.

Produces a self-contained SVG string with axes, ticks, one polyline per
series, and a legend.  Output depends only on the inputs, so artifacts are
byte-identical across runs.
"""

from __future__ import annotations

import math

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#17becf", "#7f7f7f")
_WIDTH, _HEIGHT = 640, 420      # pixels
_TICKS = 5                      # at most this many tick intervals per axis


def _ticks(lo: float, hi: float):
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    step = 10 ** math.floor(math.log10(span / _TICKS))
    for mult in (1, 2, 5, 10):
        if span / (step * mult) <= _TICKS:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + 1e-12 * span:
        out.append(round(t, 12))
        t += step
    return out


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def line_plot(series, title: str = "", xlabel: str = "",
              ylabel: str = "") -> str:
    """series: list of (label, xs, ys) triples with equal-length arrays."""
    ml, mr, mt, mb = 70, 20, 34, 48
    pw, ph = _WIDTH - ml - mr, _HEIGHT - mt - mb
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    if not xs_all:
        xs_all, ys_all = [0.0, 1.0], [0.0, 1.0]
    x0, x1 = min(xs_all), max(xs_all)
    y0, y1 = min(ys_all), max(ys_all)
    if x1 == x0:
        x0, x1 = x0 - 0.5, x1 + 0.5
    if y1 == y0:
        y0, y1 = y0 - 0.5, y1 + 0.5
    pad = 0.04 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad

    def px(x):
        return ml + (x - x0) / (x1 - x0) * pw

    def py(y):
        return mt + ph - (y - y0) / (y1 - y0) * ph

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
             f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
             f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
             f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" '
             'fill="none" stroke="#333" stroke-width="1"/>']
    if title:
        parts.append(f'<text x="{_WIDTH / 2:.1f}" y="20" font-size="14" '
                     f'text-anchor="middle" font-family="sans-serif">'
                     f'{title}</text>')
    for t in _ticks(x0, x1):
        if x0 <= t <= x1:
            parts.append(f'<line x1="{px(t):.2f}" y1="{mt + ph}" '
                         f'x2="{px(t):.2f}" y2="{mt + ph + 5}" '
                         'stroke="#333"/>')
            parts.append(f'<text x="{px(t):.2f}" y="{mt + ph + 18}" '
                         'font-size="11" text-anchor="middle" '
                         f'font-family="sans-serif">{_fmt(t)}</text>')
    for t in _ticks(y0, y1):
        if y0 <= t <= y1:
            parts.append(f'<line x1="{ml - 5}" y1="{py(t):.2f}" x2="{ml}" '
                         f'y2="{py(t):.2f}" stroke="#333"/>')
            parts.append(f'<text x="{ml - 8}" y="{py(t):.2f}" font-size="11" '
                         'text-anchor="end" dominant-baseline="middle" '
                         f'font-family="sans-serif">{_fmt(t)}</text>')
    if xlabel:
        parts.append(f'<text x="{ml + pw / 2:.1f}" y="{_HEIGHT - 10}" '
                     'font-size="12" text-anchor="middle" '
                     f'font-family="sans-serif">{xlabel}</text>')
    if ylabel:
        parts.append(f'<text x="16" y="{mt + ph / 2:.1f}" font-size="12" '
                     'text-anchor="middle" font-family="sans-serif" '
                     f'transform="rotate(-90 16 {mt + ph / 2:.1f})">'
                     f'{ylabel}</text>')
    for idx, (label, xs, ys) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{color}" stroke-width="1.8"/>')
        ly = mt + 14 + 16 * idx
        parts.append(f'<line x1="{ml + pw - 130}" y1="{ly - 4}" '
                     f'x2="{ml + pw - 108}" y2="{ly - 4}" stroke="{color}" '
                     'stroke-width="1.8"/>')
        parts.append(f'<text x="{ml + pw - 102}" y="{ly}" font-size="11" '
                     f'font-family="sans-serif">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
