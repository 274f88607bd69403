"""Tiny deterministic SVG plot writer.

Hand-rolled on purpose: the output must be byte-stable across runs and
easy to inspect (one ``circle`` per plotted point, one ``rect`` per
heatmap cell), which general plotting libraries do not guarantee.

``heatmap_pieces`` takes its cells as any array-like (an ndarray or nested
lists give the same bytes). It checks them, colours a copy of the grid in
place with a few numpy operations, in the same float64 steps a per-cell
loop would take, and formats each colour of the blend, column x, row y and
the cell size once. It then yields the document as pieces: the head, the
cells in blocks of at most ``PIECE_CHARS`` characters, then the axes and
``</svg>``, so its memory grows with the grid and not with the document;
``heatmap`` joins them. Line and scatter plots format each coordinate once.

Every plot is laid out the same way: each part of the document (an axes
element, an axis tick, the polyline, a marker, a heatmap cell) starts
with its own newline, and the shared head comes before the parts and
``</svg>`` after them; ``_document`` joins a line or scatter plot once.
Each axis tick, like each marker, is one row of a ``%`` template, at 6
digits; the 9-digit format of the CSV and CLI numbers is
``harness.NUMBER_FORMAT``.
"""
from __future__ import annotations

import math
from itertools import chain, filterfalse
from typing import Iterator, Sequence

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
_FILL = '#%06x"/>'  # a heatmap cell's colour, closing its rect

PIECE_CHARS = 1 << 16  # characters per written piece: 64 KiB of ASCII, under glibc's mmap threshold


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
_END = "\n</svg>\n"


def _document(parts: list[str]) -> str:
    """The head, the parts and the end tag in one join; ``parts`` is the caller's and is extended."""
    parts.insert(0, _HEAD)
    parts.append(_END)
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
    """The document of ``heatmap_pieces`` as one str."""
    return "".join(heatmap_pieces(x_values, y_values, cells, x_label=x_label, y_label=y_label,
                                  title=title))


def heatmap_pieces(
    x_values: Sequence[float],
    y_values: Sequence[float],
    cells: np.ndarray | Sequence[Sequence[float]],
    *,
    x_label: str,
    y_label: str,
    title: str,
) -> Iterator[str]:
    """One rect per cell; ``cells[i][j]`` belongs to (x_values[i], y_values[j]).

    Each cell's colour is the linear blend of the two end colours at the
    cell's position between the grid minimum and maximum (the midpoint on a
    flat grid), rounded half to even per channel. Every check and the
    colouring run in this call; the iterator it returns yields the head,
    the cells in blocks of at most ``PIECE_CHARS`` characters, and the
    axes with the end tag.
    """
    x_lo, x_hi = _span(x_values, "x values")
    y_lo, y_hi = _span(y_values, "y values")
    nx, ny = len(x_values), len(y_values)
    frac = np.array(cells, dtype=float)  # a copy: the grid is coloured in place
    if frac.shape != (nx, ny):
        raise ValueError(f"heatmap cells have shape {frac.shape}, expected {(nx, ny)}")
    v_lo, v_hi = float(frac.min()), float(frac.max())
    if not (math.isfinite(v_lo) and math.isfinite(v_hi)):  # a NaN cell makes both NaN
        raise ValueError("heatmap cells must be finite")
    _check_span(v_lo, v_hi, "heatmap cells")
    if v_hi == v_lo:
        frac.fill(0.5)
    else:
        frac -= v_lo
        frac /= v_hi - v_lo
    key, colors = _colour_keys(frac)
    fills = np.array([_FILL % c if c >= 0 else "" for c in colors], dtype=object)
    cell_w = _PLOT_W / nx
    cell_h = _PLOT_H / ny
    size = f'" width="{_fmt(cell_w)}" height="{_fmt(cell_h)}" fill="'
    # each cell is "\n" + its column's x head + its row's y tail + its fill
    heads = np.array([f'\n<rect x="{_fmt(MARGIN_LEFT + i * cell_w)}" y="' for i in range(nx)],
                     dtype=object)
    tails = np.array([_fmt(MARGIN_TOP + (ny - 1 - j) * cell_h) + size for j in range(ny)],
                     dtype=object)
    axes = _axes(x_lo, x_hi, y_lo, y_hi, x_label, y_label, title)
    axes.append(_END)
    return chain((_HEAD,), _cell_blocks(heads, tails, fills, key), ("".join(axes),))


def _colour_keys(frac: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Each cell's colour key, from its fraction, and the 0xrrggbb of each key (-1 where unused).

    Each channel is ``rint(a + frac * (b - a))`` in float64, computed into one reused buffer, and
    is monotone in frac: so a colour's steps from the low colour, summed over the channels, name
    that one colour. ``frac`` is spent: its buffer comes back holding the keys.
    """
    channel = np.empty_like(frac)
    rgb = np.zeros_like(frac)  # 0xrrggbb, exact in a float64
    steps = np.zeros_like(frac)
    for a, b in zip(_LOW_COLOR, _HIGH_COLOR):
        np.multiply(frac, b - a, out=channel)
        channel += a
        np.rint(channel, out=channel)
        rgb *= 256
        rgb += channel
        channel -= a
        np.absolute(channel, out=channel)
        steps += channel
    del channel  # free before the cast below takes its buffer
    key = frac.view(np.int64)
    key[...] = steps
    colors = np.full(_PALETTE_SIZE, -1)
    colors[key] = rgb
    return key, colors.tolist()


def _cell_blocks(heads: np.ndarray, tails: np.ndarray, fills: np.ndarray,
                 key: np.ndarray) -> Iterator[str]:
    """The cells in document order (x-major), in blocks of at most ``PIECE_CHARS`` characters.

    A block is whole columns where one column fits in a piece, else part of one column.
    Its strings are laid out in one object array, made once and reused.
    """
    nx, ny = key.shape
    per_block = PIECE_CHARS // (max(map(len, heads)) + max(map(len, tails)) + len(_FILL % 0))
    cols, rows = (per_block // ny, ny) if per_block >= ny else (1, per_block)
    block = np.empty((min(cols, nx), rows, 3), dtype=object)
    for i in range(0, nx, cols):
        for j in range(0, ny, rows):
            part = block[:nx - i, :ny - j]  # a leading slice: still C-contiguous
            part[:, :, 0] = heads[i:i + cols, None]
            part[:, :, 1] = tails[j:j + rows]
            part[:, :, 2] = fills.take(key[i:i + cols, j:j + rows])
            yield "".join(part.ravel().tolist())
