"""Parameter sweeps, surfaces, optimizer comparisons, and flat-file outputs.

The harness adds no arithmetic of its own: sweeps and surfaces both read
their price, ``u_user`` and ``u_server`` from one broadcast ``user_utility``
call, so a surface cell equals the sweep row at the same purchase bit for
bit, and both are reproducible bit-exactly from the scenario and
allocation that produced them. ``pricing.server_utility`` is the
independent closed form they are checked against.

Every model evaluation here runs on numpy operands under one rule,
``np.errstate(all="ignore")``: an overflow, or a link rate that underflows
to 0, gives inf or NaN silently, and ``_require_finite`` refuses it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import repeat
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .offload import Allocation
from .pricing import dynamic_utility_objective, user_utility
from .scenario import Scenario, checked, number_fields, scenario_numbers
from .optimizers import ALGORITHMS, SwarmConfig, TrialStats, replicate, require_integer
from . import svgplot

SWEEPABLE_PARAMETERS = ("f_server", "b", "q", "f_local")

PLOT_SERIES = ("price", "u_user", "u_server")  # what a sweep row and a surface can plot
COMPARISON_CSV_HEADER = ("algorithm", "trial", "seed", "u_user_final", "iterations", "f_server_hz", "b_bps")


@dataclass(frozen=True)
class SweepSpec:
    """One swept parameter over a grid, everything else pinned."""

    parameter: str                # one of SWEEPABLE_PARAMETERS
    grid: tuple[float, ...]       # canonical units, strictly increasing
    scenario: Scenario
    allocation: Allocation


class SweepRow(NamedTuple):
    """One sweep point: a NamedTuple whose fields are the sweep CSV columns, in order."""

    parameter: str
    value: float
    price: float
    u_user: float
    u_server: float
    t_offload: float
    t_save: float
    e_save: float


SWEEP_CSV_HEADER = ("param", *SweepRow._fields[1:])


class SurfaceGrid(NamedTuple):
    """Dense evaluation of the model over the purchase box.

    The cells come from the ``user_utility`` call a sweep makes, so each
    row equals a ``b`` sweep at its ``f_server``; ``pricing.server_utility``
    is the closed-form reference for ``u_server``.
    """

    f_values: tuple[float, ...]
    b_values: tuple[float, ...]
    u_user: np.ndarray    # shape (len(f_values), len(b_values))
    price: np.ndarray
    u_server: np.ndarray

    def argmax_u_user(self) -> Allocation:
        i, j = np.unravel_index(int(np.argmax(self.u_user)), self.u_user.shape)
        return Allocation(self.f_values[i], self.b_values[j])


@dataclass(frozen=True)
class ComparisonReport:
    """Everything needed to regenerate the algorithm-comparison table and plots."""

    n_trials: int
    u_max: float                       # gap reference of the base scenario
    u_max_list: tuple[float, ...]      # per-trial gap references actually used
    stats: dict[str, TrialStats]


def corner_allocation(s: Scenario) -> Allocation:
    """The (f_max, b_max) corner, where the dynamic-mode utility peaks."""
    return Allocation(checked(s).f_range[1], s.b_range[1])


@np.errstate(all="ignore")
def box_maximum_utility(s: Scenario) -> float:
    """Dynamic-mode utility at the box corner (the search's gap reference).

    Like ``run_sweep``, it gives inf or NaN silently; an inf or NaN raises ``ValueError``.
    """
    u_max = dynamic_utility_objective(checked(s))(corner_allocation(s))
    _require_finite("gap reference", u_max)
    return u_max


def _require_one_scenario(s: Scenario, entry: str) -> None:
    """No array in ``s``: a grid, or a comparison's trial columns, would broadcast against one."""
    arrays = [name for name, value in scenario_numbers(s).items() if getattr(value, "ndim", 0)]
    if arrays:
        raise ValueError(f"a {entry} pins one scenario, but it holds arrays in {', '.join(arrays)}")


def _check_sweep_spec(spec: SweepSpec) -> tuple[float, ...]:
    if spec.parameter not in SWEEPABLE_PARAMETERS:
        raise ValueError(
            f"unknown sweep parameter {spec.parameter!r}; expected one of {SWEEPABLE_PARAMETERS}"
        )
    _require_one_scenario(checked(spec.scenario), "sweep")
    arrays = [name for name, value in vars(spec.allocation).items() if getattr(value, "ndim", 0)]
    if arrays:  # the rule of _require_one_scenario: a 0-d array is one number
        raise ValueError(f"a sweep pins one purchase, but allocation holds arrays in {', '.join(arrays)}")
    if not (0 < spec.allocation.f_server < np.inf and 0 < spec.allocation.b < np.inf):
        raise ValueError(f"allocation must be finite and strictly positive, got {spec.allocation}")
    grid = tuple(spec.grid)
    if not grid:
        raise ValueError("sweep grid must be non-empty")
    i = next((i for i, x in enumerate(grid) if not math.isfinite(x)), -1)
    if i >= 0:  # before the order checks: NaN compares false
        raise ValueError(f"sweep grid values must be finite, got {grid[i]!r} at index {i}")
    i = next((i for i in range(1, len(grid)) if grid[i] <= grid[i - 1]), 0)
    if i:
        raise ValueError(
            f"sweep grid must be strictly increasing, got {grid[i]!r} at index {i} after {grid[i - 1]!r}"
        )
    ranges = {"f_server": spec.scenario.f_range, "b": spec.scenario.b_range}
    for name, (lo, hi) in ranges.items():  # the swept coordinate is replaced by the grid
        value = getattr(spec.allocation, name)
        if name != spec.parameter and not lo <= value <= hi:
            raise ValueError(f"allocation {name}={value!r} outside the valid {name} range [{lo!r}, {hi!r}]")
    lo, hi = ranges.get(spec.parameter, (0.0, float("inf")))
    if grid[0] < lo or grid[-1] > hi or grid[0] <= 0:
        raise ValueError(
            f"sweep grid {grid[0]!r}..{grid[-1]!r} outside the valid {spec.parameter} "
            f"range [{lo!r}, {hi!r}]"
        )
    return grid  # the tuple checked: a generator grid is read once


@np.errstate(all="ignore")
def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """One row per grid value, dynamic pricing throughout.

    The grid becomes one array field, of the allocation (f_server, b) or
    of the scenario (q, f_local), and the purchase is broadcast to the
    grid's shape, as ``surface_grid`` broadcasts its axes; each row equals
    the scalar ``user_utility`` call at its value, bit for bit. Under the
    module's one rule, an overflow or a zero link rate gives inf or NaN
    silently, and any inf or NaN in a row raises ``ValueError``.
    """
    grid = np.array(_check_sweep_spec(spec), dtype=float)
    s, alloc = spec.scenario, spec.allocation
    if spec.parameter in ("f_server", "b"):
        alloc = replace(alloc, **{spec.parameter: grid})
    else:
        s = replace(s, **{spec.parameter: grid})
    summary = user_utility(s, Allocation(*np.broadcast_arrays(alloc.f_server, alloc.b, grid)[:2]))
    columns = (summary.price, summary.u_user, summary.u_server,
               summary.time.t_offload, summary.time.t_save, summary.energy.e_save)
    _require_finite("sweep value", *columns)
    return list(map(SweepRow._make, zip(repeat(spec.parameter), grid.tolist(), *(c.tolist() for c in columns))))


def _require_finite(what: str, *arrays: object) -> None:
    """A scenario can pass validate() and still overflow the model, e.g. with a huge k."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError(f"non-finite {what} (inf or NaN): the scenario overflows the model")


@np.errstate(all="ignore")
def surface_grid(s: Scenario, f_steps: int, b_steps: int) -> SurfaceGrid:
    """Dense (f_server, b) grid over the search box, endpoints included.

    Like ``run_sweep``, one ``user_utility`` call evaluates every cell
    under ``np.errstate(all="ignore")``, and any inf or NaN cell raises
    ``ValueError``.
    """
    require_integer("f_steps", f_steps, 2)
    require_integer("b_steps", b_steps, 2)
    _require_one_scenario(checked(s), "surface")
    f_values = np.linspace(s.f_range[0], s.f_range[1], f_steps)
    b_values = np.linspace(s.b_range[0], s.b_range[1], b_steps)
    summary = user_utility(s, Allocation(f_values[:, None], b_values[None, :]))
    _require_finite("surface cell", summary.u_user, summary.price, summary.u_server)
    return SurfaceGrid(
        f_values=tuple(f_values.tolist()),
        b_values=tuple(b_values.tolist()),
        u_user=summary.u_user,
        price=summary.price,
        u_server=summary.u_server,
    )


def _draw_trial_scenarios(s: Scenario, seed: int, n_trials: int) -> Scenario:
    """Randomized mode: settings q_kb uniform in [100, 500] and f_local_ghz 0.1..1 by 0.1, as (T, 1) columns."""
    rng = np.random.default_rng([seed, 0x5CE1])
    draws = [(rng.uniform(100.0, 500.0), rng.integers(1, 11)) for _ in range(n_trials)]
    q_kb, f_local_tenths = np.array(draws).T[..., None]
    return replace(s, **number_fields({"q_kb": q_kb, "f_local_ghz": 0.1 * f_local_tenths}))


def compare_optimizers(
    s: Scenario, cfg: SwarmConfig, n_trials: int, *, randomize: bool = False
) -> ComparisonReport:
    """Run every searcher of ``ALGORITHMS``, in its order, over paired per-trial seeds.

    Each algorithm runs one ``replicate`` batch on one objective, so every
    round of a batch is scored in one call. In the default deterministic
    mode every trial sees the scenario ``s``; the randomized mode redraws
    (q, f_local) per trial as (T, 1) scenario columns, with all four
    algorithms still seeing the same scenario and seed in a given trial.
    Either way ``s`` pins one scenario, and an array in it raises ``ValueError`` naming it.
    """
    require_integer("n_trials", n_trials, 1)
    _require_one_scenario(checked(s), "comparison")  # s itself, before randomize replaces q and f_local
    u_max = box_maximum_utility(s)
    trial_s = _draw_trial_scenarios(s, cfg.seed, n_trials) if randomize else s
    u_max_list = np.broadcast_to(np.ravel(box_maximum_utility(trial_s)), n_trials)
    batch = (trial_s, dynamic_utility_objective(trial_s), u_max_list, cfg, n_trials)
    return ComparisonReport(
        n_trials=n_trials,
        u_max=u_max,
        u_max_list=tuple(u_max_list.tolist()),
        stats={name: replicate(algo, *batch) for name, algo in ALGORITHMS.items()},
    )


NUMBER_FORMAT = "%.9g"  # every number of the CSV rows, CLI lines and anchor details: 9 significant digits
format_number = NUMBER_FORMAT.__mod__  # x -> NUMBER_FORMAT % x, with no Python frame per call

_SWEEP_CSV_ROW = ",".join(("%s", *[NUMBER_FORMAT] * (len(SWEEP_CSV_HEADER) - 1)))
_COMPARISON_CSV_ROW = ",".join(("%s", "%s", "%s", NUMBER_FORMAT, "%s", NUMBER_FORMAT, NUMBER_FORMAT))


def sweep_csv_lines(rows: Sequence[SweepRow]) -> list[str]:
    """The header, then each sweep row with its numbers at 9 significant digits.

    The one renderer of sweep rows: ``emit_csv`` ends its lines with CR LF,
    as ``csv.writer`` does, and the CLI's stdout with LF. No field needs quoting.
    """
    return [",".join(SWEEP_CSV_HEADER), *map(_SWEEP_CSV_ROW.__mod__, rows)]


def _write(pieces: Iterable[str], path: str | Path) -> None:
    """The one file writer of CSV and SVG output: UTF-8, line ends as given.

    The path is opened as ``"wb"`` opens it (truncated, or created with mode
    0o666 less the umask) and each str piece is encoded and written as it comes,
    ``svgplot.PIECE_CHARS`` characters at a time, so no buffer is document-sized. Every check
    of the document runs before the call: a piece that raises would leave the file cut short.
    """
    size = svgplot.PIECE_CHARS
    with open(path, "wb") as out:
        for piece in pieces:
            for start in range(0, len(piece), size):
                out.write(piece[start:start + size].encode("utf-8"))


def emit_csv(rows: Sequence[SweepRow], path: str | Path) -> None:
    """Sweep rows as CSV: header always present, numbers at 9 significant digits."""
    _write(["\r\n".join(sweep_csv_lines(rows)) + "\r\n"], path)


def emit_comparison_csv(report: ComparisonReport, path: str | Path) -> None:
    """Per-trial comparison records, one row per (algorithm, trial)."""
    lines = [",".join(COMPARISON_CSV_HEADER)]
    for name, stats in report.stats.items():
        records = zip(stats.seed_list, stats.value_list, stats.iteration_list, stats.position_list)
        lines.extend(_COMPARISON_CSV_ROW % (name, trial, seed, value, iterations, at.f_server, at.b)
                     for trial, (seed, value, iterations, at) in enumerate(records))
    _write(["\r\n".join(lines) + "\r\n"], path)


def _check_series(series: str) -> None:
    if series not in PLOT_SERIES:
        raise ValueError(f"unknown series {series!r}; expected one of {PLOT_SERIES}")


def emit_sweep_plot(rows: Sequence[SweepRow], path: str | Path, *, series: str = "u_user") -> None:
    """Sweep rows as a line-plot SVG of ``series`` against the swept value."""
    _check_series(series)
    if not rows:
        raise ValueError("line plot needs at least one sweep row")
    points = [(row.value, getattr(row, series)) for row in rows]
    svg = svgplot.line_plot(points, x_label=rows[0].parameter, y_label=series, title=f"{series} sweep")
    _write([svg], path)


def emit_surface_plot(grid: SurfaceGrid, path: str | Path, *, series: str = "u_user") -> None:
    """One surface series as a heatmap SVG over the (f_server, b) box."""
    _check_series(series)
    pieces = svgplot.heatmap_pieces(grid.f_values, grid.b_values, getattr(grid, series),
                                    x_label="f_server [Hz]", y_label="b [bit/s]",
                                    title=f"{series} surface")
    _write(pieces, path)


def emit_positions_plot(positions: Sequence[Allocation], path: str | Path) -> None:
    """Best positions as a scatter SVG, one circle per distinct position."""
    if not positions:
        raise ValueError("scatter plot needs at least one position")
    unique = list(dict.fromkeys((p.f_server, p.b) for p in positions))
    svg = svgplot.scatter_plot(unique, x_label="f_server [Hz]", y_label="b [bit/s]", title="best positions")
    _write([svg], path)
