"""Command-line front end: sweeps, surfaces, optimization runs, comparisons,
and the built-in anchor validation suite.

Every subcommand is a thin adapter over the library; no arithmetic happens
here. Stochastic subcommands are fully determined by --seed. Files are
written before anything is printed, so a command that exits 2 prints nothing.
"""
from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from .harness import (
    SweepSpec,
    box_maximum_utility,
    compare_optimizers,
    emit_comparison_csv,
    emit_csv,
    emit_positions_plot,
    emit_surface_plot,
    emit_sweep_plot,
    format_number,
    run_sweep,
    surface_grid,
    sweep_csv_lines,
    ALGORITHMS,
    PLOT_SERIES,
    SWEEPABLE_PARAMETERS,
)
from .offload import Allocation
from .pricing import dynamic_utility_objective
from .scenario import ALLOCATION_KEYS, Scenario, default_purchase, load_scenario, parse_config, parse_setting
from .optimizers import OptimizerError, SwarmConfig

SCENARIO_ENV_VAR = "EDGEPRICE_SCENARIO"


def _load_context(args: argparse.Namespace) -> tuple[Scenario, dict[str, float | str]]:
    """Scenario of one invocation, and its settings: the file's lines, then the --set pairs."""
    path = args.scenario or os.environ.get(SCENARIO_ENV_VAR)
    # utf-8-sig: a byte-order mark, as some editors write, is not part of the first key
    config = parse_config(Path(path).read_text(encoding="utf-8-sig")) if path else {}
    config.update(map(parse_setting, args.set or []))
    return load_scenario(overrides=config), config


def _search_inputs(args: argparse.Namespace) -> tuple[Scenario, SwarmConfig]:
    """Scenario and SwarmConfig of a search command; a pinned purchase is refused, as the search finds it."""
    scenario, config = _load_context(args)
    for key in ALLOCATION_KEYS:
        if key in config:
            raise ValueError(f"key {key!r} pins a purchase, which {args.command} searches for")
    return scenario, SwarmConfig(p_n=args.p_n, n_max=args.n_max, epsilon=args.epsilon, seed=args.seed)


def _cmd_sweep(args: argparse.Namespace) -> int:
    scenario, config = _load_context(args)
    try:
        grid = tuple(float(v) for v in args.grid.split(","))
    except ValueError:
        raise ValueError(f"--grid expects comma-separated numbers, got {args.grid!r}") from None
    allocation = Allocation(*default_purchase(scenario, config))
    spec = SweepSpec(parameter=args.param, grid=grid, scenario=scenario, allocation=allocation)
    rows = run_sweep(spec)
    if args.plot:
        emit_sweep_plot(rows, args.plot, series=args.series)
    if args.out:
        emit_csv(rows, args.out)
    else:
        sys.stdout.write("\n".join(sweep_csv_lines(rows)) + "\n")
    return 0


def _cmd_surface(args: argparse.Namespace) -> int:
    # surface evaluates the whole box and ignores a pinned purchase; it still accepts one
    # because the benchmark's surface runs pass the sweep's --set pairs
    scenario, _ = _load_context(args)
    grid = surface_grid(scenario, args.steps, args.steps)
    if args.plot:
        emit_surface_plot(grid, args.plot, series=args.series)
    best = grid.argmax_u_user()
    value = grid.u_user.max()
    print(f"grid: {args.steps}x{args.steps} over f_server={scenario.f_range}, b={scenario.b_range}")
    print(
        f"argmax u_user: f_server={format_number(best.f_server)} Hz, "
        f"b={format_number(best.b)} bit/s, u_user={format_number(value)}"
    )
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    scenario, cfg = _search_inputs(args)
    objective, u_max = dynamic_utility_objective(scenario), box_maximum_utility(scenario)
    result = ALGORITHMS[args.algo](scenario, objective, u_max, cfg)
    print(f"algorithm: {args.algo}")
    print(f"seed: {result.seed}")
    print(f"best value: {format_number(result.best_value)}")
    print(
        f"best position: f_server={format_number(result.best_position.f_server)} Hz, "
        f"b={format_number(result.best_position.b)} bit/s"
    )
    print(f"iterations: {result.iterations_used}")
    print(f"converged: {result.converged}")
    return 0


def _table_number(value: float) -> str:
    """6 decimals where they fit the table's 12-character column, else ``format_number``'s 9 digits."""
    text = f"{value:.6f}"
    return text if len(text) <= 12 else format_number(value)


def _cmd_compare(args: argparse.Namespace) -> int:
    scenario, cfg = _search_inputs(args)
    report = compare_optimizers(scenario, cfg, args.trials, randomize=args.randomize)
    if args.out:
        emit_comparison_csv(report, args.out)
    if args.plot:
        emit_positions_plot(report.stats[args.plot_algo].position_list, args.plot)
    if args.randomize:  # each trial's own corner value, not the base scenario's
        low, high = map(format_number, (min(report.u_max_list), max(report.u_max_list)))
        print(f"gap reference u_max: {low} to {high} per trial  (trials: {args.trials})")
    else:
        print(f"gap reference u_max: {format_number(report.u_max)}  (trials: {args.trials})")
    width = max(10, *map(len, report.stats))
    values = {name: (_table_number(stats.mean_value), _table_number(stats.std_value))
              for name, stats in report.stats.items()}
    cell = max(12, *(len(text) for pair in values.values() for text in pair))
    print(f"{'algorithm':<{width}} {'mean':>{cell}} {'std':>{cell}} {'mean iters':>11} {'converged':>10}")
    for name, stats in report.stats.items():
        mean, std = values[name]
        print(
            f"{name:<{width}} {mean:>{cell}} {std:>{cell}} "
            f"{stats.mean_iterations:>11.3f} {sum(stats.converged_list):>7}/{args.trials}"
        )
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from .verification import run_anchor_suite  # only this command pays for its import

    checks = run_anchor_suite(seed=args.seed, n_trials=args.trials)
    failures = 0
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        failures += not check.passed
        print(f"{status} [{check.basis}] {check.name}: {check.detail}")
    print(f"{len(checks) - failures}/{len(checks)} anchors passed")
    return 0 if failures == 0 else 1


def _add_common_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scenario",
        help=f"key=value scenario file (default: ${SCENARIO_ENV_VAR} or built-in defaults)",
    )
    parser.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override a scenario or purchase key, as one scenario-file line (repeatable)",
    )


def _add_search_options(parser: argparse.ArgumentParser) -> None:
    """The SwarmConfig settings, for the commands that search; SwarmConfig holds the defaults."""
    for flag, kind, text in (("--seed", int, "seed of the searches"),
                             ("--p-n", int, "particle / population count"),
                             ("--n-max", int, "maximum update rounds"),
                             ("--epsilon", float, "relative-gap stop threshold")):
        default = getattr(SwarmConfig, flag[2:].replace("-", "_"))
        parser.add_argument(flag, type=kind, default=default, help=f"{text} (default: {default})")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process and shared: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="edgeprice",
        description="Dynamic-pricing edge-offloading model and allocation search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="sweep one parameter and emit rows")
    _add_common_options(p_sweep)
    p_sweep.add_argument("--param", required=True, choices=SWEEPABLE_PARAMETERS)
    p_sweep.add_argument("--grid", required=True, help="comma-separated values, canonical units")
    p_sweep.add_argument("--out", help="CSV destination (default: stdout)")
    p_sweep.add_argument("--plot", help="optional line-plot SVG destination")
    p_sweep.add_argument(
        "--series", default="u_user", choices=PLOT_SERIES,
        help="series to plot",
    )
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_surface = sub.add_parser("surface", help="dense utility/price surface over the box")
    _add_common_options(p_surface)
    p_surface.add_argument("--steps", type=int, default=100)
    p_surface.add_argument("--plot", help="optional heatmap SVG destination")
    p_surface.add_argument(
        "--series", default="u_user", choices=PLOT_SERIES,
    )
    p_surface.set_defaults(handler=_cmd_surface)

    p_opt = sub.add_parser("optimize", help="run one seeded search")
    _add_common_options(p_opt)
    _add_search_options(p_opt)
    p_opt.add_argument("--algo", default="disc-pso", choices=tuple(ALGORITHMS))
    p_opt.set_defaults(handler=_cmd_optimize)

    p_cmp = sub.add_parser("compare", help="paired-seed comparison of all algorithms")
    _add_common_options(p_cmp)
    _add_search_options(p_cmp)
    p_cmp.add_argument("--trials", type=int, default=50)
    p_cmp.add_argument("--randomize", action="store_true", help="redraw q and f_local per trial")
    p_cmp.add_argument("--out", help="CSV destination")
    p_cmp.add_argument("--plot", help="optional best-position scatter SVG destination")
    p_cmp.add_argument("--plot-algo", default="disc-pso", choices=tuple(ALGORITHMS))
    p_cmp.set_defaults(handler=_cmd_compare)

    p_val = sub.add_parser("validate", help="run the built-in anchor suite")
    # the anchors are fixed to the paper's setting, so scenario options are refused
    p_val.add_argument("--seed", type=int, default=0, help="seed for the optimizer anchors")
    p_val.add_argument("--trials", type=int, default=50, help="optimizer-anchor trial count")
    p_val.set_defaults(handler=_cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.handler(args)
    except (ValueError, OptimizerError, OSError) as exc:
        # ValueError: bad scenario or argument; OptimizerError: non-finite objective; OSError: bad path
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # a grid, batch or population too large for this machine
        print("error: out of memory; try fewer --steps, --trials or --p-n", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
