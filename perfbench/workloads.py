"""The benchmark's workloads: fixed, seeded lists of operations per pass.

An operation is one seeded search run, one ``compare_optimizers`` call,
one anchor-suite run or one CLI command. Pass ``p`` of a run with seed
``n`` draws its inputs from ``SeedSequence([n, p])``, so the same seed
always gives the same inputs and every pass holds the same number of
operations of each kind. Inputs are built before the clock starts; each
operation's output is checked after it stops.
"""
from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from edgeprice import cli, svgplot
from edgeprice.harness import (
    ALGORITHMS,
    SweepSpec,
    box_maximum_utility,
    compare_optimizers,
    emit_csv,
    run_sweep,
    surface_grid,
)
from edgeprice.offload import Allocation
from edgeprice.optimizers import SwarmConfig
from edgeprice.pricing import (
    critical_point,
    derive_coefficients,
    dynamic_utility_objective,
    linear_user_utility_value,
)
from edgeprice.scenario import default_scenario, load_scenario
from edgeprice.verification import run_anchor_suite

import checker
from spans import CountingObjective

GHZ, MBPS, KB = 1e9, 1e6, 8192.0

#: Direct default-scenario searches per paper-compare pass; the swarms stop
#: after about one round there, so they get more trials than GA and DE.
PAPER_SEARCHES = {"disc-pso": 120, "pso": 120, "ga": 25, "de": 30}
PAPER_COMPARE_TRIALS = 4
#: The scenario where every searcher wrongly reports convergence: it passes
#: validate() but its utility is negative, and the relative-gap stop test
#: flips sign there. Its trials use fixed seeds, independent of --seed.
NEGATIVE_SCENARIO = {"f_local": 1e9, "b_range": (1e4, 2e4)}
NEGATIVE_SEEDS = (0, 1)
#: The only problem those trials may report: convergence claimed with the
#: gap not met.
NEGATIVE_FAULT = "converged=True but gap"

INTERIOR_PROBE_TARGET = (3.5 * GHZ, 0.55 * MBPS)
INTERIOR_TARGETS = 4          # the probe target plus three seeded ones
INTERIOR_SEEDS = 5            # paired search seeds per target
INTERIOR_EPSILON = 1e-6

SURFACE_STEPS = 150
SURFACE_SERIES = ("u_user", "price")
SWEEP_POINTS = 300
SWEEP_PARAMETERS = ("f_server", "b", "q", "f_local")

#: Fixed cross-layer probes: each workload also reports the end-to-end
#: metrics of the layers it does not focus on, from these small inputs.
#: They run after each pass and are not part of pass_s.
PROBE_SEARCH_SEEDS = (11, 12, 13, 14, 15, 16)
PROBE_SURFACE_STEPS = 60
PROBE_SWEEP_POINTS = 150

ALGOS = tuple(ALGORITHMS)


@dataclass
class Op:
    """One timed operation.

    ``run(tracer)`` is the timed call; ``tracer`` is None in untraced runs.
    ``check(output)`` returns problems. ``in_pass`` is False for the
    cross-layer probes. ``decompose(tracer)``, in traced runs only, times
    the layer calls beneath a CLI command on the same inputs. ``known_fault``
    is the start of the one problem an operation of the failing scenario is
    expected to report; any other problem of it is a check failure.
    """

    kind: str
    run: Callable
    check: Callable
    in_pass: bool = True
    known_fault: str = ""
    decompose: Callable | None = None
    tags: dict = field(default_factory=dict)


def pass_rng(seed: int, pass_id: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, pass_id]))


# ---------------------------------------------------------------- searches

def search_op(kind: str, algo: str, s, objective, u_max: float, cfg: SwarmConfig,
              check, *, in_pass: bool = True, known_fault: str = "") -> Op:
    algorithm = ALGORITHMS[algo]

    def run(tracer):
        if tracer is None:
            return algorithm(s, objective, u_max, cfg)
        counted = CountingObjective(objective)
        with tracer.span(f"optimizers.{algo}", kind=kind, seed=cfg.seed) as attrs:
            result = algorithm(s, counted, u_max, cfg)
        attrs.update(evals=counted.calls, eval_s=counted.seconds,
                     rounds=result.iterations_used, converged=result.converged)
        return result

    return Op(kind, run, check, in_pass=in_pass, known_fault=known_fault,
              tags={"algo": algo})


def dynamic_search_op(kind, algo, s, seed, *, in_pass=True, known_fault="") -> Op:
    cfg = SwarmConfig(seed=int(seed))
    u_max = box_maximum_utility(s)

    def check(result):
        return checker.check_dynamic_run(result, s, epsilon=cfg.epsilon, n_max=cfg.n_max,
                                         u_max=u_max)

    return search_op(kind, algo, s, dynamic_utility_objective(s), u_max, cfg, check,
                     in_pass=in_pass, known_fault=known_fault)


def search_probe_ops() -> list[Op]:
    s = default_scenario()
    return [dynamic_search_op(f"search:{algo}", algo, s, seed, in_pass=False)
            for seed in PROBE_SEARCH_SEEDS for algo in ALGOS]


# ---------------------------------------------------------------- paper-compare

def paper_compare_ops(seed: int, pass_id: int, workdir: Path) -> list[Op]:
    rng = pass_rng(seed, pass_id)
    s = default_scenario()
    ops = [Op("anchors", _anchor_run, checker.check_anchor_suite),
           compare_op(int(rng.integers(2**32)))]
    seeds = rng.integers(2**32, size=max(PAPER_SEARCHES.values()))
    for algo, count in PAPER_SEARCHES.items():
        ops += [dynamic_search_op(f"search:{algo}", algo, s, sd) for sd in seeds[:count]]

    negative = default_scenario(**NEGATIVE_SCENARIO)
    ops += [dynamic_search_op(f"negative:{algo}", algo, negative, sd,
                              known_fault=NEGATIVE_FAULT)
            for sd in NEGATIVE_SEEDS for algo in ALGOS]
    return ops + figure_probe_ops(workdir)


def _anchor_run(tracer):
    with _span(tracer, "verification.run_anchor_suite"):
        return run_anchor_suite(seed=0, n_trials=50)


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def compare_op(seed: int, *, in_pass: bool = True) -> Op:
    """``compare_optimizers(randomize=True)`` on the default scenario."""
    s = default_scenario()
    cfg = SwarmConfig(seed=seed)

    def run(tracer):
        with _span(tracer, "harness.compare_optimizers"):
            return compare_optimizers(s, cfg, PAPER_COMPARE_TRIALS, randomize=True)

    def check(report):
        return checker.check_comparison(report, s, n_trials=PAPER_COMPARE_TRIALS,
                                        epsilon=cfg.epsilon, n_max=cfg.n_max)

    return Op("compare", run, check, in_pass=in_pass)


def layer_probe_ops() -> list[Op]:
    """The anchor suite and one small comparison, for workloads without them."""
    return [Op("anchors", _anchor_run, checker.check_anchor_suite, in_pass=False),
            compare_op(0, in_pass=False)]


# ---------------------------------------------------------------- interior-search

def interior_targets(rng: np.random.Generator) -> list[tuple[float, float]]:
    seeded = [(float(rng.uniform(1.5, 5.5)) * GHZ, float(rng.uniform(0.2, 0.9)) * MBPS)
              for _ in range(INTERIOR_TARGETS - 1)]
    return [INTERIOR_PROBE_TARGET] + seeded


def interior_ops(seed: int, pass_id: int, workdir: Path) -> list[Op]:
    rng = pass_rng(seed, pass_id)
    s = default_scenario()
    ops = []
    for target in interior_targets(rng):
        for sd in rng.integers(2**32, size=INTERIOR_SEEDS):
            cfg = SwarmConfig(seed=int(sd), epsilon=INTERIOR_EPSILON)
            ops += [linear_search_op(algo, s, target, cfg) for algo in ALGOS]
    return ops + figure_probe_ops(workdir)


def linear_search_op(algo: str, s, target, cfg: SwarmConfig) -> Op:
    """One search of the linear-priced utility whose optimum sits at ``target``."""
    pc = derive_coefficients(s, *target)

    def objective(alloc: Allocation) -> float:
        return linear_user_utility_value(s, pc, alloc)

    u_max = objective(critical_point(s, pc))

    def check(result):
        return checker.check_price_coefficients(pc, s, target) + checker.check_linear_run(
            result, s, target, epsilon=cfg.epsilon, n_max=cfg.n_max, u_max=u_max)

    return search_op(f"search:{algo}", algo, s, objective, u_max, cfg, check)


# ---------------------------------------------------------------- figures

def _fmt(x: float) -> str:
    return repr(float(x))


def figure_scenario(rng: np.random.Generator) -> dict[str, float]:
    """Seeded --set overrides in config units, allocation keys included."""
    return {
        "q_kb": float(rng.uniform(100.0, 500.0)),
        "f_local_ghz": float(rng.uniform(0.1, 1.0)),
        "w2": float(rng.uniform(0.3, 0.7)),
        "snr_uplink": float(rng.uniform(10.0, 30.0)),
        "snr_downlink": float(rng.uniform(20.0, 40.0)),
        "f_server_ghz": float(rng.uniform(1.0, 6.0)),
        "b_mbps": float(rng.uniform(0.1, 1.0)),
    }


def sweep_grid(rng: np.random.Generator, parameter: str, s, points: int) -> np.ndarray:
    lo, hi = {
        "f_server": s.f_range,
        "b": s.b_range,
        "q": (100.0 * KB, 500.0 * KB),
        "f_local": (0.1 * GHZ, 1.0 * GHZ),
    }[parameter]
    width = hi - lo
    return np.linspace(lo + 0.1 * width * rng.random(), hi - 0.1 * width * rng.random(), points)


def _set_args(overrides: dict[str, float]) -> list[str]:
    args = []
    for key, value in overrides.items():
        args += ["--set", f"{key}={_fmt(value)}"]
    return args


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def surface_op(overrides, steps: int, path: Path, *, series: str = "u_user",
               in_pass: bool = True, check_grid: bool = False) -> Op:
    s = load_scenario(overrides=overrides)
    argv = ["surface", "--steps", str(steps), "--plot", str(path), "--series", series,
            *_set_args(overrides)]

    def run(tracer):
        with _span(tracer, "cli.surface"):
            return _cli(argv)

    def check(output):
        code, stdout = output
        if code != 0:
            return [f"surface exited {code}"]
        problems = checker.check_surface_stdout(stdout, s)
        problems += checker.check_heatmap_svg(path.read_text(encoding="utf-8"), s, steps, series)
        if check_grid:
            problems += checker.check_surface_grid(surface_grid(s, steps, steps), s, steps)
        return problems

    def decompose(tracer):
        with tracer.span("harness.surface_grid"):
            grid = surface_grid(s, steps, steps)
        cells = getattr(grid, series).tolist()
        with tracer.span("svgplot.heatmap"):
            svgplot.heatmap(grid.f_values, grid.b_values, cells, x_label="f_server [Hz]",
                            y_label="b [bit/s]", title=f"{series} surface")
        return checker.check_surface_grid(grid, s, steps)

    return Op("figure:surface", run, check, in_pass=in_pass, decompose=decompose,
              tags={"files": [path]})


def sweep_op(overrides, parameter: str, grid: np.ndarray, csv_path: Path, svg_path: Path,
             *, in_pass: bool = True) -> Op:
    s = load_scenario(overrides=overrides)
    allocation = (overrides["f_server_ghz"] * GHZ, overrides["b_mbps"] * MBPS)
    values = tuple(float(v) for v in grid)
    argv = ["sweep", "--param", parameter, "--grid", ",".join(_fmt(v) for v in values),
            "--out", str(csv_path), "--plot", str(svg_path), *_set_args(overrides)]

    def run(tracer):
        with _span(tracer, "cli.sweep"):
            return _cli(argv)

    def check(output):
        code, _ = output
        if code != 0:
            return [f"sweep exited {code}"]
        problems = checker.check_sweep_csv(csv_path.read_text(encoding="utf-8"), s, parameter,
                                           values, allocation)
        return problems + checker.check_line_svg(svg_path.read_text(encoding="utf-8"),
                                                 len(values))

    def decompose(tracer):
        spec = SweepSpec(parameter=parameter, grid=values, scenario=s,
                         allocation=Allocation(*allocation))
        with tracer.span("harness.sweep"):
            rows = run_sweep(spec)
            emit_csv(rows, csv_path)
        points = [(row.value, row.u_user) for row in rows]
        with tracer.span("svgplot.line"):
            svgplot.line_plot(points, x_label=parameter, y_label="u_user", title="u_user sweep")
        return checker.check_sweep_csv(csv_path.read_text(encoding="utf-8"), s, parameter,
                                       values, allocation)

    return Op("figure:sweep", run, check, in_pass=in_pass, decompose=decompose,
              tags={"files": [csv_path, svg_path]})


def figures_ops(seed: int, pass_id: int, workdir: Path) -> list[Op]:
    rng = pass_rng(seed, pass_id)
    overrides = figure_scenario(rng)
    s = load_scenario(overrides=overrides)
    ops = [surface_op(overrides, SURFACE_STEPS, workdir / f"surface-{series}.svg",
                      series=series, check_grid=pass_id == 0 and series == "u_user")
           for series in SURFACE_SERIES]
    for parameter in SWEEP_PARAMETERS:
        grid = sweep_grid(rng, parameter, s, SWEEP_POINTS)
        ops.append(sweep_op(overrides, parameter, grid, workdir / f"sweep-{parameter}.csv",
                            workdir / f"sweep-{parameter}.svg"))
    return ops + search_probe_ops()


def figure_probe_ops(workdir: Path) -> list[Op]:
    rng = np.random.default_rng(7)
    overrides = figure_scenario(rng)
    s = load_scenario(overrides=overrides)
    ops = [surface_op(overrides, PROBE_SURFACE_STEPS, workdir / "probe-surface.svg",
                      in_pass=False)]
    for parameter in SWEEP_PARAMETERS:
        grid = sweep_grid(rng, parameter, s, PROBE_SWEEP_POINTS)
        ops.append(sweep_op(overrides, parameter, grid, workdir / f"probe-{parameter}.csv",
                            workdir / f"probe-{parameter}.svg", in_pass=False))
    return ops


WORKLOADS = {
    "paper-compare": paper_compare_ops,
    "interior-search": interior_ops,
    "figures": figures_ops,
}
