"""Independent correctness checks for the benchmark's operations.

The closed forms here are written again in numpy from ``Scenario`` fields
and do not import ``edgeprice.pricing`` or ``edgeprice.offload``, so a
fault in the library's model code cannot make its own output look right.
Every ``check_*`` function returns a list of problems; an empty list means
the output is correct.
"""
from __future__ import annotations

import csv
import io
import math
import re
import xml.etree.ElementTree as ET
from dataclasses import replace
from types import SimpleNamespace

import numpy as np

KB_BITS = 8192.0
SVG_NS = "{http://www.w3.org/2000/svg}"
SWEEP_COLUMNS = ("price", "u_user", "u_server", "t_offload", "t_save", "e_save")
# The documented draw of compare_optimizers(randomize=True): q uniform in
# [100, 500] KB and f_local on the 0.1 GHz grid from 0.1 to 1 GHz.
TRIAL_Q_KB = (100.0, 500.0)
TRIAL_F_LOCAL_GHZ = tuple(0.1 * i for i in range(1, 11))

# Floating-point agreement between two evaluation orders of the same closed
# form, relative to the magnitude of the terms that are combined.
REL_TOL = 1e-12


# ---------------------------------------------------------------- closed forms

def _snrs(s) -> tuple[float, float]:
    up, down = s.channel.snr_uplink, s.channel.snr_downlink
    if s.channel.snr_mode == "db-to-linear":
        return 10.0 ** (up / 10.0), 10.0 ** (down / 10.0)
    return up, down


def spectral(s) -> tuple[float, float]:
    """log2(1 + snr) for the uplink and the downlink."""
    up, down = _snrs(s)
    return math.log2(1.0 + up), math.log2(1.0 + down)


def chi(s) -> float:
    return s.w1 * s.k * s.c * s.f_local**2 + s.w2 * s.c / s.f_local


def upsilon(s) -> float:
    lu, ld = spectral(s)
    return (s.w1 * s.p_u + s.w2) / lu + s.alpha * (s.w1 * s.p_d + s.w2) / ld


def dynamic_terms(s, f, b):
    """The three terms of q*chi - 2q*w2*c/f - 2q*upsilon/b, broadcast over (f, b)."""
    f = np.asarray(f, dtype=float)
    b = np.asarray(b, dtype=float)
    return s.q * chi(s), 2.0 * s.q * s.w2 * s.c / f, 2.0 * s.q * upsilon(s) / b


def dynamic_utility(s, f, b):
    k, tf, tb = dynamic_terms(s, f, b)
    return k - tf - tb


def dynamic_scale(s, f, b):
    k, tf, tb = dynamic_terms(s, f, b)
    return abs(k) + tf + tb


def price(s, f, b):
    f = np.asarray(f, dtype=float)
    b = np.asarray(b, dtype=float)
    return s.q * s.w2 * s.c / f + s.q * upsilon(s) / b


def offload_times(s, f, b):
    """(t_up, t_process, t_down) of offloading at (f, b)."""
    f = np.asarray(f, dtype=float)
    b = np.asarray(b, dtype=float)
    lu, ld = spectral(s)
    return s.q / (b * lu), s.q * s.c / f, s.alpha * s.q / (b * ld)


def server_utility(s, f, b):
    t_u, t_p, t_d = offload_times(s, f, b)
    return price(s, f, b) - (t_u + t_p + t_d) + s.mu * math.log2(1.0 + s.q)


def linear_coefficients(s, f_target: float, b_target: float) -> tuple[float, float]:
    """Price slopes (a, b_coef) whose linear-priced optimum sits at the target."""
    return s.w2 * s.c * s.q / f_target**2, s.q * upsilon(s) / b_target**2


def linear_critical_point(s, a: float, b_coef: float) -> tuple[float, float]:
    return math.sqrt(s.w2 * s.c * s.q / a), math.sqrt(s.q * upsilon(s) / b_coef)


def linear_terms(s, a, b_coef, f, b):
    f = np.asarray(f, dtype=float)
    b = np.asarray(b, dtype=float)
    return (
        s.q * chi(s),
        s.q * s.w2 * s.c / f,
        s.q * upsilon(s) / b,
        a * f,
        b_coef * b,
    )


def linear_utility(s, a, b_coef, f, b):
    k, tf, tb, pf, pb = linear_terms(s, a, b_coef, f, b)
    return k - tf - tb - pf - pb


def linear_scale(s, a, b_coef, f, b):
    k, tf, tb, pf, pb = linear_terms(s, a, b_coef, f, b)
    return abs(k) + tf + tb + pf + pb


def sweep_columns(s, f: float, b: float) -> dict[str, tuple[float, float]]:
    """(value, term scale) of every numeric CSV column of one sweep row."""
    t_u, t_p, t_d = (float(t) for t in offload_times(s, f, b))
    t_offload = t_u + t_p + t_d
    t_local = s.q * s.c / s.f_local
    e_local = s.k * s.q * s.c * s.f_local**2
    e_up, e_down = s.p_u * t_u, s.p_d * t_d
    p = float(price(s, f, b))
    return {
        "price": (p, p),
        "u_user": (float(dynamic_utility(s, f, b)), float(dynamic_scale(s, f, b))),
        "u_server": (float(server_utility(s, f, b)), float(_server_scale(s, f, b))),
        "t_offload": (t_offload, t_offload),
        "t_save": (t_local - t_offload, t_local + t_offload),
        "e_save": (e_local - e_up - e_down, e_local + e_up + e_down),
    }


# ---------------------------------------------------------------- search runs

def _close(actual: float, expected: float, scale: float) -> bool:
    return abs(actual - expected) <= REL_TOL * max(abs(scale), abs(expected), 1e-300)


def check_run(result, *, box, value_at, scale_at, u_max: float, epsilon: float, n_max: int) -> list[str]:
    """Check one search ``RunResult`` against the objective's closed form.

    ``value_at``/``scale_at`` give the closed-form value and its term scale
    at (f, b). ``converged`` must hold exactly when the gap
    ``u_max - best < epsilon * |best|`` is met; within rounding of that
    boundary either answer is accepted. A run that did not converge must
    have used every one of its ``n_max`` rounds.
    """
    problems = []
    (f_lo, f_hi), (b_lo, b_hi) = box
    f, b = result.best_position.f_server, result.best_position.b
    best = result.best_value
    if not (f_lo <= f <= f_hi and b_lo <= b <= b_hi):
        problems.append(f"best position ({f!r}, {b!r}) outside the box {box}")
    expected = float(value_at(f, b))
    scale = float(scale_at(f, b))
    if not math.isfinite(best) or not _close(best, expected, scale):
        problems.append(f"best_value {best!r} != closed form {expected!r} at ({f!r}, {b!r})")
    if best > u_max + REL_TOL * scale:
        problems.append(f"best_value {best!r} exceeds the optimum {u_max!r}")
    gap, threshold = u_max - best, epsilon * abs(best)
    if abs(gap - threshold) > REL_TOL * scale and result.converged != (gap < threshold):
        problems.append(
            f"converged={result.converged} but gap {gap!r} vs epsilon*|best| {threshold!r}"
        )
    if not 0 <= result.iterations_used <= n_max:
        problems.append(f"iterations_used {result.iterations_used} outside [0, {n_max}]")
    if not result.converged and result.iterations_used != n_max:
        problems.append(
            f"not converged after {result.iterations_used} rounds; n_max is {n_max}"
        )
    return problems


def check_dynamic_run(result, s, *, epsilon: float, n_max: int, u_max: float) -> list[str]:
    """``check_run`` for the dynamic objective, whose optimum is the box corner."""
    corner = float(dynamic_utility(s, s.f_range[1], s.b_range[1]))
    problems = []
    if not _close(u_max, corner, dynamic_scale(s, s.f_range[1], s.b_range[1])):
        problems.append(f"gap reference {u_max!r} != corner closed form {corner!r}")
    return problems + check_run(
        result,
        box=(s.f_range, s.b_range),
        value_at=lambda f, b: dynamic_utility(s, f, b),
        scale_at=lambda f, b: dynamic_scale(s, f, b),
        u_max=corner,
        epsilon=epsilon,
        n_max=n_max,
    )


def check_linear_run(result, s, target, *, epsilon: float, n_max: int, u_max: float) -> list[str]:
    """``check_run`` for the linear-priced objective with its optimum at ``target``."""
    a, b_coef = linear_coefficients(s, *target)
    f_c, b_c = linear_critical_point(s, a, b_coef)
    critical = float(linear_utility(s, a, b_coef, f_c, b_c))
    problems = []
    if not _close(u_max, critical, linear_scale(s, a, b_coef, f_c, b_c)):
        problems.append(f"gap reference {u_max!r} != critical value {critical!r}")
    return problems + check_run(
        result,
        box=(s.f_range, s.b_range),
        value_at=lambda f, b: linear_utility(s, a, b_coef, f, b),
        scale_at=lambda f, b: linear_scale(s, a, b_coef, f, b),
        u_max=critical,
        epsilon=epsilon,
        n_max=n_max,
    )


def check_price_coefficients(pc, s, target) -> list[str]:
    a, b_coef = linear_coefficients(s, *target)
    if _close(pc.a, a, a) and _close(pc.b_coef, b_coef, b_coef):
        return []
    return [f"price coefficients ({pc.a!r}, {pc.b_coef!r}) != ({a!r}, {b_coef!r})"]


def check_comparison(report, s, *, n_trials: int, epsilon: float, n_max: int) -> list[str]:
    """Check a randomized ``compare_optimizers`` report.

    The per-trial scenarios are not part of the report, so each trial's
    (q, f_local) is recovered from its gap reference: u_max is linear in q,
    so each candidate f_local on the documented 0.1..1 GHz grid gives one q.
    The trial passes when some candidate with q inside the documented range
    reproduces the gap reference and every algorithm's best value there.
    """
    problems = []
    if report.n_trials != n_trials or len(report.u_max_list) != n_trials:
        return [f"report holds {len(report.u_max_list)} trials, expected {n_trials}"]
    for trial, u_max in enumerate(report.u_max_list):
        runs = [(name, SimpleNamespace(
            best_value=st.value_list[trial], best_position=st.position_list[trial],
            iterations_used=st.iteration_list[trial], converged=st.converged_list[trial]))
            for name, st in report.stats.items()]
        matched = False
        for f_local_ghz in TRIAL_F_LOCAL_GHZ:
            unit = replace(s, q=1.0, f_local=f_local_ghz * 1e9)
            per_bit = float(dynamic_utility(unit, s.f_range[1], s.b_range[1]))
            q = u_max / per_bit if per_bit != 0 else math.nan
            q_lo, q_hi = (kb * KB_BITS for kb in TRIAL_Q_KB)
            if not q_lo * (1 - 1e-9) <= q <= q_hi * (1 + 1e-9):
                continue
            candidate = replace(s, q=q, f_local=f_local_ghz * 1e9)
            found = []
            for name, run in runs:
                found += [f"{name}: {p}" for p in check_dynamic_run(
                    run, candidate, epsilon=epsilon, n_max=n_max, u_max=u_max)]
            if not found:
                matched = True
                break
        if not matched:
            problems.append(f"trial {trial}: no documented (q, f_local) reproduces the results")
    return problems


def check_anchor_suite(checks, expected_count: int = 19) -> list[str]:
    problems = [f"anchor failed: {c.name}: {c.detail}" for c in checks if not c.passed]
    if len(checks) != expected_count:
        problems.append(f"{len(checks)} anchors ran, expected {expected_count}")
    return problems


# ---------------------------------------------------------------- figures

def check_surface_grid(grid, s, steps: int) -> list[str]:
    """Every cell of a ``SurfaceGrid`` against the broadcast closed forms."""
    f = np.linspace(s.f_range[0], s.f_range[1], steps)
    b = np.linspace(s.b_range[0], s.b_range[1], steps)
    if len(grid.f_values) != steps or len(grid.b_values) != steps:
        return [f"grid is {len(grid.f_values)}x{len(grid.b_values)}, expected {steps}x{steps}"]
    F, B = np.meshgrid(np.asarray(grid.f_values), np.asarray(grid.b_values), indexing="ij")
    problems = []
    if not (np.allclose(grid.f_values, f, rtol=REL_TOL, atol=0)
            and np.allclose(grid.b_values, b, rtol=REL_TOL, atol=0)):
        problems.append("grid axes are not evenly spaced over the box")
    for name, expected, scale in (
        ("u_user", dynamic_utility(s, F, B), dynamic_scale(s, F, B)),
        ("price", price(s, F, B), price(s, F, B)),
        ("u_server", server_utility(s, F, B), _server_scale(s, F, B)),
    ):
        bad = np.abs(getattr(grid, name) - expected) > REL_TOL * scale
        if bad.any():
            i, j = np.argwhere(bad)[0]
            problems.append(
                f"{name}[{i},{j}]={getattr(grid, name)[i, j]!r} != closed form {expected[i, j]!r}"
                f" ({int(bad.sum())} cells differ)"
            )
    i, j = np.unravel_index(int(np.argmax(grid.u_user)), grid.u_user.shape)
    if (i, j) != (steps - 1, steps - 1):
        problems.append(f"surface argmax at cell ({i}, {j}), not the box corner")
    return problems


def _server_scale(s, f, b):
    t_u, t_p, t_d = offload_times(s, f, b)
    return price(s, f, b) + t_u + t_p + t_d + abs(s.mu * math.log2(1.0 + s.q))


_ARGMAX_LINE = re.compile(
    r"argmax u_user: f_server=(\S+) Hz, b=(\S+) bit/s, u_user=(\S+)"
)


def check_surface_stdout(text: str, s) -> list[str]:
    """The CLI's argmax line names the box corner and its utility at 9 digits."""
    match = _ARGMAX_LINE.search(text)
    if match is None:
        return ["surface output has no argmax line"]
    f_hi, b_hi = s.f_range[1], s.b_range[1]
    corner = float(dynamic_utility(s, f_hi, b_hi))
    problems = []
    for label, printed, expected in (("f_server", match[1], f_hi), ("b", match[2], b_hi),
                                     ("u_user", match[3], corner)):
        if not within_9_digits(printed, expected):
            problems.append(f"argmax {label}={printed} != {expected!r} at 9 digits")
    return problems


def check_heatmap_svg(text: str, s, steps: int, series: str = "u_user") -> list[str]:
    """N^2 cell rects plus background and frame; each cell coloured by its value.

    A cell's colour is the linear blend of the two end colours at its value's
    position between the surface minimum and maximum, rounded per channel;
    a channel may differ by one where rounding order differs.
    """
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        return [f"surface SVG does not parse: {exc}"]
    rects = root.findall(f"{SVG_NS}rect")
    if len(rects) != steps * steps + 2:
        return [f"surface SVG has {len(rects)} rects, expected {steps * steps + 2}"]
    f = np.linspace(s.f_range[0], s.f_range[1], steps)
    b = np.linspace(s.b_range[0], s.b_range[1], steps)
    F, B = np.meshgrid(f, b, indexing="ij")
    values = {"u_user": dynamic_utility, "price": price, "u_server": server_utility}[series](s, F, B)
    lo, hi = float(values.min()), float(values.max())
    low, high = np.array([44, 123, 182]), np.array([215, 25, 28])
    frac = (values - lo) / (hi - lo) if hi > lo else np.full(values.shape, 0.5)
    expected = low + frac[..., None] * (high - low)
    # cells follow the background rect, in (i, j) row-major order
    fills = [r.get("fill", "") for r in rects[1:1 + steps * steps]]
    try:
        got = np.array([[int(c[1:3], 16), int(c[3:5], 16), int(c[5:7], 16)] for c in fills])
    except ValueError:
        return ["surface SVG has a cell without an #rrggbb fill"]
    off = np.abs(got - expected.reshape(-1, 3)) > 1.0 + 1e-9
    if off.any():
        k = int(np.argwhere(off.any(axis=1))[0][0])
        return [f"surface cell {divmod(k, steps)} coloured {fills[k]}, expected ~{expected.reshape(-1, 3)[k].round(2)}"]
    return []


def check_line_svg(text: str, n_points: int) -> list[str]:
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        return [f"sweep SVG does not parse: {exc}"]
    problems = []
    rects = len(root.findall(f"{SVG_NS}rect"))
    circles = len(root.findall(f"{SVG_NS}circle"))
    if rects != 2:
        problems.append(f"sweep SVG has {rects} rects, expected 2")
    if circles != n_points:
        problems.append(f"sweep SVG has {circles} circles, expected one per row ({n_points})")
    return problems


def within_9_digits(printed: str, exact: float, scale: float = 0.0) -> bool:
    """True if ``printed`` is ``exact`` rounded to 9 significant digits.

    Accepts half a unit in the ninth digit, plus a sliver for the last-bit
    differences between two evaluation orders of the same closed form;
    ``scale`` is the magnitude of the terms that cancel to give ``exact``.
    """
    try:
        value = float(printed)
    except ValueError:
        return False
    slack = REL_TOL * abs(scale)
    if exact == 0.0:
        return abs(value) <= slack
    unit = 10.0 ** (math.floor(math.log10(abs(exact))) - 8)
    return abs(value - exact) <= unit * (0.5 + 1e-6) + slack


def check_sweep_csv(text: str, s, parameter: str, grid, allocation) -> list[str]:
    """Every CSV cell against the closed forms at 9 significant digits.

    On f_server sweeps also checks the coupling: each step changes the user
    utility by 2*w2/(1-w2) times the server-utility change, within what the
    9-digit rounding of the four values involved allows.
    """
    rows = list(csv.reader(io.StringIO(text)))
    header = ["param", "value", *SWEEP_COLUMNS]
    if not rows or rows[0] != header:
        return [f"sweep CSV header {rows[:1]} != {header}"]
    rows = rows[1:]
    if len(rows) != len(grid):
        return [f"sweep CSV has {len(rows)} rows, expected {len(grid)}"]
    problems = []
    f0, b0 = allocation
    for index, (row, value) in enumerate(zip(rows, grid)):
        if row[0] != parameter or not within_9_digits(row[1], value):
            problems.append(f"row {index}: param/value {row[:2]} != {parameter}, {value!r}")
            continue
        sc, f, b = s, f0, b0
        if parameter == "f_server":
            f = value
        elif parameter == "b":
            b = value
        elif parameter == "q":
            sc = replace(s, q=value)
        else:
            sc = replace(s, f_local=value)
        expected = sweep_columns(sc, f, b)
        for column, printed in zip(SWEEP_COLUMNS, row[2:]):
            exact, scale = expected[column]
            if not within_9_digits(printed, exact, scale):
                problems.append(f"row {index} {column}: {printed} != {exact!r} at 9 digits")
    if parameter == "f_server" and not problems:
        problems += _check_coupling(rows, s)
    return problems[:5]


def _check_coupling(rows, s) -> list[str]:
    ratio = 2.0 * s.w2 / (1.0 - s.w2)
    u = [float(r[3]) for r in rows]
    v = [float(r[4]) for r in rows]

    def half_unit(x: float) -> float:
        return 0.5 * 10.0 ** (math.floor(math.log10(abs(x))) - 8) if x else 0.0

    for i in range(1, len(rows)):
        du, dv = u[i] - u[i - 1], v[i] - v[i - 1]
        slack = (1 + 1e-6) * (half_unit(u[i]) + half_unit(u[i - 1])
                              + ratio * (half_unit(v[i]) + half_unit(v[i - 1])))
        if abs(du - ratio * dv) > slack:
            return [f"step {i}: du_user {du!r} != {ratio!r} * du_server {dv!r}"]
    return []
