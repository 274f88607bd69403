"""Tiny deterministic SVG plot writer.

Hand-rolled on purpose: the output must be byte-stable across runs and
easy to inspect (one ``circle`` per plotted point, one ``rect`` per
heatmap cell), which general plotting libraries do not guarantee.

``heatmap`` takes its cells as any array-like (an ndarray or nested lists
give the same bytes). It colours the whole grid with a few numpy
operations, in the same float64 steps a per-cell loop would take, and
formats each distinct colour, column x, row y and the cell size once, so
a 150x150 surface costs a few milliseconds rather than one Python colour
and four number formats per cell.
"""
from __future__ import annotations

import math
from typing import Sequence
from xml.sax.saxutils import escape

import numpy as np
from numpy.typing import ArrayLike

WIDTH = 640
HEIGHT = 480
MARGIN_LEFT = 70
MARGIN_RIGHT = 24
MARGIN_TOP = 40
MARGIN_BOTTOM = 52

_PLOT_W = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
_PLOT_H = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

_LOW_COLOR = (44, 123, 182)
_HIGH_COLOR = (215, 25, 28)


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _span(values: Sequence[float]) -> tuple[float, float]:
    lo, hi = min(values), max(values)
    if lo == hi:  # degenerate axis: pad so the scale stays invertible
        pad = abs(lo) * 0.05 or 1.0
        return lo - pad, hi + pad
    return lo, hi


def _x_pixel(x: float, lo: float, hi: float) -> float:
    return MARGIN_LEFT + (x - lo) / (hi - lo) * _PLOT_W


def _y_pixel(y: float, lo: float, hi: float) -> float:
    return MARGIN_TOP + (hi - y) / (hi - lo) * _PLOT_H


def _axes(x_lo, x_hi, y_lo, y_hi, x_label, y_label, title) -> list[str]:
    parts = [
        f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" width="{_PLOT_W}" height="{_PLOT_H}" '
        'fill="none" stroke="#333" stroke-width="1"/>',
        f'<text x="{WIDTH / 2:g}" y="22" text-anchor="middle" font-size="14">'
        f"{escape(title)}</text>",
        f'<text x="{MARGIN_LEFT + _PLOT_W / 2:g}" y="{HEIGHT - 10}" text-anchor="middle" '
        f'font-size="12">{escape(x_label)}</text>',
        f'<text x="16" y="{MARGIN_TOP + _PLOT_H / 2:g}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 16 {MARGIN_TOP + _PLOT_H / 2:g})">{escape(y_label)}</text>',
    ]
    for i in range(5):
        frac = i / 4
        xv = x_lo + frac * (x_hi - x_lo)
        yv = y_lo + frac * (y_hi - y_lo)
        xp = _x_pixel(xv, x_lo, x_hi)
        yp = _y_pixel(yv, y_lo, y_hi)
        parts.append(
            f'<line x1="{_fmt(xp)}" y1="{MARGIN_TOP + _PLOT_H}" x2="{_fmt(xp)}" '
            f'y2="{MARGIN_TOP + _PLOT_H + 5}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{_fmt(xp)}" y="{MARGIN_TOP + _PLOT_H + 18}" text-anchor="middle" '
            f'font-size="10">{_fmt(xv)}</text>'
        )
        parts.append(
            f'<line x1="{MARGIN_LEFT - 5}" y1="{_fmt(yp)}" x2="{MARGIN_LEFT}" '
            f'y2="{_fmt(yp)}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{MARGIN_LEFT - 8}" y="{_fmt(yp + 3)}" text-anchor="end" '
            f'font-size="10">{_fmt(yv)}</text>'
        )
    return parts


def _document(body: list[str]) -> str:
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">\n'
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>\n'
    )
    return head + "\n".join(body) + "\n</svg>\n"


def line_plot(
    points: Sequence[tuple[float, float]], *, x_label: str, y_label: str, title: str
) -> str:
    """Polyline through the points plus one circle marker per point."""
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = _span(xs)
    y_lo, y_hi = _span(ys)
    body = _axes(x_lo, x_hi, y_lo, y_hi, x_label, y_label, title)
    coords = [
        (_x_pixel(x, x_lo, x_hi), _y_pixel(y, y_lo, y_hi)) for x, y in zip(xs, ys)
    ]
    path = " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in coords)
    body.append(f'<polyline points="{path}" fill="none" stroke="#1f77b4" stroke-width="1.5"/>')
    for px, py in coords:
        body.append(f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="3" fill="#1f77b4"/>')
    return _document(body)


def scatter_plot(
    points: Sequence[tuple[float, float]], *, x_label: str, y_label: str, title: str
) -> str:
    """One circle per point (callers collapse duplicates beforehand)."""
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = _span(xs)
    y_lo, y_hi = _span(ys)
    body = _axes(x_lo, x_hi, y_lo, y_hi, x_label, y_label, title)
    for x, y in points:
        px = _x_pixel(x, x_lo, x_hi)
        py = _y_pixel(y, y_lo, y_hi)
        body.append(f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="3.5" fill="#d62728"/>')
    return _document(body)


def heatmap(
    x_values: Sequence[float],
    y_values: Sequence[float],
    cells: ArrayLike,
    *,
    x_label: str,
    y_label: str,
    title: str,
) -> str:
    """One rect per cell; ``cells[i][j]`` belongs to (x_values[i], y_values[j]).

    Each cell's colour is the linear blend of the two end colours at the
    cell's position between the grid minimum and maximum (the midpoint on a
    flat grid), rounded half to even per channel.
    """
    x_lo, x_hi = _span(x_values)
    y_lo, y_hi = _span(y_values)
    nx, ny = len(x_values), len(y_values)
    grid = np.asarray(cells, dtype=float)
    if grid.shape != (nx, ny):
        raise ValueError(f"heatmap cells have shape {grid.shape}, expected {(nx, ny)}")
    v_lo, v_hi = grid.min(), grid.max()
    if not (math.isfinite(v_lo) and math.isfinite(v_hi)):  # a NaN cell makes both NaN
        raise ValueError("heatmap cells must be finite")
    frac = np.full_like(grid, 0.5) if v_hi == v_lo else (grid - v_lo) / (v_hi - v_lo)
    rgb = 0.0
    for a, b in zip(_LOW_COLOR, _HIGH_COLOR):  # 0xrrggbb, exact in a float64
        rgb = rgb * 256 + np.rint(a + frac * (b - a))
    colors, which = np.unique(rgb, return_inverse=True)
    fills = [f'#{c:06x}"/>' for c in colors.astype(int).tolist()]
    cell_w = _PLOT_W / nx
    cell_h = _PLOT_H / ny
    size = f'" width="{_fmt(cell_w)}" height="{_fmt(cell_h)}" fill="'
    x_heads = [f'<rect x="{_fmt(MARGIN_LEFT + i * cell_w)}" y="' for i in range(nx)]
    y_tails = [_fmt(MARGIN_TOP + (ny - 1 - j) * cell_h) + size for j in range(ny)]
    body = []
    for head, row in zip(x_heads, which.reshape(nx, ny).tolist()):
        body.extend([head + tail + fills[k] for tail, k in zip(y_tails, row)])
    body.extend(_axes(x_lo, x_hi, y_lo, y_hi, x_label, y_label, title))
    return _document(body)
