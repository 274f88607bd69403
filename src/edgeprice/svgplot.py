"""Tiny deterministic SVG plot writer.

Hand-rolled on purpose: the output must be byte-stable across runs and
easy to inspect (one ``circle`` per plotted point, one ``rect`` per
heatmap cell), which general plotting libraries do not guarantee.

``heatmap`` takes its cells as any array-like (an ndarray or nested lists
give the same bytes). It colours the whole grid with a few numpy
operations, in the same float64 steps a per-cell loop would take, and
formats each colour of the blend, column x, row y and the cell size once.
Line and scatter plots format each coordinate once.

Every plot is assembled the same way: each part of the document (an axes
element, an axis tick, the polyline, a marker, a heatmap cell) starts
with its own newline, and ``_document`` puts the shared head before the
parts and ``</svg>`` after them and joins the whole document once. Each
axis tick, like each marker, is one row of a ``%`` template, at 6 digits;
the 9-digit format of the CSV and CLI numbers is ``harness.NUMBER_FORMAT``.
"""
from __future__ import annotations

import math
from itertools import filterfalse
from typing import Sequence

import numpy as np

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
_PALETTE_SIZE = 1 + sum(abs(b - a) for a, b in zip(_LOW_COLOR, _HIGH_COLOR))  # 424


_fmt = "%.6g".__mod__  # x -> f"{x:.6g}", with no Python frame per call


def _escape(text: str) -> str:
    """XML character data: ``&``, ``<`` and ``>`` as entities."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _span(values: Sequence[float], what: str) -> tuple[float, float]:
    """An axis's (lo, hi) over at least one value, every one finite.

    Both are checked first: ``min`` names no axis on an empty one, and skips a NaN that is not first.
    """
    if not len(values):
        raise ValueError(f"{what} must be non-empty")
    bad = next(filterfalse(math.isfinite, values), None)
    if bad is not None:
        raise ValueError(f"{what} must be finite, got {float(bad)!r}")
    lo, hi = float(min(values)), float(max(values))
    if lo == hi:  # degenerate axis: pad so the scale stays invertible
        pad = abs(lo) * 0.05 or 1.0
        lo, hi = lo - pad, hi + pad
    _check_span(lo, hi, what)
    return lo, hi


def _check_span(lo: float, hi: float, what: str) -> None:
    """Refuse a span ``hi - lo`` beyond the largest float, before numpy subtracts anything.

    Python floats give ``inf`` where numpy would warn of an overflow and scale every point to NaN.
    """
    if hi - lo == math.inf:
        raise ValueError(f"{what} span {lo!r} to {hi!r}, wider than the largest float")


def _x_pixel(x: float, lo: float, hi: float) -> float:
    return MARGIN_LEFT + (x - lo) / (hi - lo) * _PLOT_W


def _y_pixel(y: float, lo: float, hi: float) -> float:
    return MARGIN_TOP + (hi - y) / (hi - lo) * _PLOT_H


_TICK = (  # one tick of each axis: the x mark, the x label, the y mark and the y label
    f'\n<line x1="%s" y1="{MARGIN_TOP + _PLOT_H}" x2="%s" y2="{MARGIN_TOP + _PLOT_H + 5}" stroke="#333"/>'
    f'\n<text x="%s" y="{MARGIN_TOP + _PLOT_H + 18}" text-anchor="middle" font-size="10">%s</text>'
    f'\n<line x1="{MARGIN_LEFT - 5}" y1="%s" x2="{MARGIN_LEFT}" y2="%s" stroke="#333"/>'
    f'\n<text x="{MARGIN_LEFT - 8}" y="%s" text-anchor="end" font-size="10">%s</text>'
)


def _axes(x_lo, x_hi, y_lo, y_hi, x_label, y_label, title) -> list[str]:
    parts = [
        f'\n<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" width="{_PLOT_W}" height="{_PLOT_H}" '
        'fill="none" stroke="#333" stroke-width="1"/>',
        f'\n<text x="{WIDTH / 2:g}" y="22" text-anchor="middle" font-size="14">'
        f"{_escape(title)}</text>",
        f'\n<text x="{MARGIN_LEFT + _PLOT_W / 2:g}" y="{HEIGHT - 10}" text-anchor="middle" '
        f'font-size="12">{_escape(x_label)}</text>',
        f'\n<text x="16" y="{MARGIN_TOP + _PLOT_H / 2:g}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 16 {MARGIN_TOP + _PLOT_H / 2:g})">{_escape(y_label)}</text>',
    ]
    for i in range(5):
        frac = i / 4
        xv = x_lo + frac * (x_hi - x_lo)
        yv = y_lo + frac * (y_hi - y_lo)
        x = _fmt(_x_pixel(xv, x_lo, x_hi))
        yp = _y_pixel(yv, y_lo, y_hi)
        y = _fmt(yp)
        parts.append(_TICK % (x, x, x, _fmt(xv), y, y, _fmt(yp + 3), _fmt(yv)))
    return parts


_HEAD = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
    f'viewBox="0 0 {WIDTH} {HEIGHT}">\n'
    f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>'
)


def _document(parts: list[str]) -> str:
    """The head, the parts and the end tag in one join; ``parts`` is the caller's and is extended."""
    parts.insert(0, _HEAD)
    parts.append("\n</svg>\n")
    return "".join(parts)


def _pixels(
    points: Sequence[tuple[float, float]], x_label: str, y_label: str, title: str
) -> tuple[list[str], list[tuple[str, str]]]:
    """The axes, and each point's (x, y) pixel coordinates formatted once."""
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = _span(xs, "x values")
    y_lo, y_hi = _span(ys, "y values")
    px = _x_pixel(np.array(xs, dtype=float), x_lo, x_hi).tolist()  # float64 steps, elementwise
    py = _y_pixel(np.array(ys, dtype=float), y_lo, y_hi).tolist()
    coords = list(zip(map(_fmt, px), map(_fmt, py)))
    return _axes(x_lo, x_hi, y_lo, y_hi, x_label, y_label, title), coords


def line_plot(
    points: Sequence[tuple[float, float]], *, x_label: str, y_label: str, title: str
) -> str:
    """Polyline through the points plus one circle marker per point."""
    body, coords = _pixels(points, x_label, y_label, title)
    path = " ".join(map("%s,%s".__mod__, coords))
    body.append(f'\n<polyline points="{path}" fill="none" stroke="#1f77b4" stroke-width="1.5"/>')
    body.extend(map('\n<circle cx="%s" cy="%s" r="3" fill="#1f77b4"/>'.__mod__, coords))
    return _document(body)


def scatter_plot(
    points: Sequence[tuple[float, float]], *, x_label: str, y_label: str, title: str
) -> str:
    """One circle per point (callers collapse duplicates beforehand)."""
    body, coords = _pixels(points, x_label, y_label, title)
    body.extend(map('\n<circle cx="%s" cy="%s" r="3.5" fill="#d62728"/>'.__mod__, coords))
    return _document(body)


def heatmap(
    x_values: Sequence[float],
    y_values: Sequence[float],
    cells: np.ndarray | Sequence[Sequence[float]],
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
    x_lo, x_hi = _span(x_values, "x values")
    y_lo, y_hi = _span(y_values, "y values")
    nx, ny = len(x_values), len(y_values)
    grid = np.asarray(cells, dtype=float)
    if grid.shape != (nx, ny):
        raise ValueError(f"heatmap cells have shape {grid.shape}, expected {(nx, ny)}")
    v_lo, v_hi = float(grid.min()), float(grid.max())
    if not (math.isfinite(v_lo) and math.isfinite(v_hi)):  # a NaN cell makes both NaN
        raise ValueError("heatmap cells must be finite")
    _check_span(v_lo, v_hi, "heatmap cells")
    frac = np.full_like(grid, 0.5) if v_hi == v_lo else (grid - v_lo) / (v_hi - v_lo)
    # each channel is monotone in frac, so a colour's steps from the low colour, summed over the
    # channels, name that one colour: the key indexes a table of the blend's colours, -1 where unused
    rgb, key = 0.0, 0.0
    for a, b in zip(_LOW_COLOR, _HIGH_COLOR):  # 0xrrggbb, exact in a float64
        channel = np.rint(a + frac * (b - a))
        rgb = rgb * 256 + channel
        key = key + np.abs(channel - a)
    key = key.astype(np.intp)
    colors = np.full(_PALETTE_SIZE, -1)
    colors[key] = rgb
    fills = np.array([f'#{c:06x}"/>' if c >= 0 else "" for c in colors.tolist()], dtype=object)
    cell_w = _PLOT_W / nx
    cell_h = _PLOT_H / ny
    size = f'" width="{_fmt(cell_w)}" height="{_fmt(cell_h)}" fill="'
    # each cell is "\n" + x head + y tail + fill, laid out in document order (x-major)
    pieces = np.empty((nx, ny, 3), dtype=object)
    pieces[:, :, 0] = np.array([f'\n<rect x="{_fmt(MARGIN_LEFT + i * cell_w)}" y="' for i in range(nx)],
                               dtype=object)[:, None]
    pieces[:, :, 1] = np.array([_fmt(MARGIN_TOP + (ny - 1 - j) * cell_h) + size for j in range(ny)],
                               dtype=object)
    pieces[:, :, 2] = fills.take(key)
    parts = pieces.ravel().tolist()
    parts.extend(_axes(x_lo, x_hi, y_lo, y_hi, x_label, y_label, title))
    return _document(parts)

