"""Command-line front end: sweeps, surfaces, optimization runs, comparisons,
and the built-in anchor validation suite.

Every subcommand is a thin adapter over the library; no arithmetic happens
here. Stochastic subcommands are fully determined by --seed. Files are
written before anything is printed, so a command that exits 2 prints nothing.
"""
from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

from .harness import (
    SweepSpec,
    box_maximum_utility,
    compare_optimizers,
    corner_allocation,
    emit_comparison_csv,
    emit_csv,
    emit_plot,
    run_sweep,
    surface_grid,
    sweep_csv_records,
    ALGORITHMS,
    SWEEPABLE_PARAMETERS,
    _format_number,
)
from .offload import Allocation
from .pricing import dynamic_utility_objective
from .scenario import (
    ALLOCATION_KEYS,
    REQUIRED_KEYS,
    Scenario,
    ghz_to_hz,
    load_scenario,
    mbps_to_bps,
    parse_config,
)
from .optimizers import OptimizerError, SwarmConfig
from .verification import run_anchor_suite

SCENARIO_ENV_VAR = "EDGEPRICE_SCENARIO"

_SWARM_FIELD_TYPES = {f.name: type(f.default) for f in fields(SwarmConfig) if f.name != "seed"}


class UsageError(Exception):
    """Argument problem found by the CLI itself; maps to exit code 2, like ValueError."""


def _parse_overrides(pairs: list[str]) -> tuple[dict[str, float | str], dict[str, float | int]]:
    """Split --set key=value pairs into scenario/allocation and swarm overrides."""
    scenario_overrides: dict[str, float | str] = {}
    swarm_overrides: dict[str, float | int] = {}
    for pair in pairs:
        if "=" not in pair:
            raise UsageError(f"--set expects key=value, got {pair!r}")
        key, _, value = pair.partition("=")
        key = key.strip()
        value = value.strip()
        if key in REQUIRED_KEYS or key in ALLOCATION_KEYS:
            if key == "snr_mode":
                scenario_overrides[key] = value
            else:
                try:
                    scenario_overrides[key] = float(value)
                except ValueError:
                    raise UsageError(f"--set {key}: non-numeric value {value!r}") from None
        elif key in _SWARM_FIELD_TYPES:
            try:
                number = float(value)
            except ValueError:
                raise UsageError(f"--set {key}: invalid value {value!r}") from None
            # SwarmConfig rejects any other value of an int field
            integral = _SWARM_FIELD_TYPES[key] is int and number.is_integer()
            swarm_overrides[key] = int(number) if integral else number
        else:
            raise UsageError(f"--set {key}: unknown key")
    return scenario_overrides, swarm_overrides


def _load_context(args: argparse.Namespace) -> tuple[Scenario, Allocation, SwarmConfig]:
    """Scenario, default allocation, and swarm config for one invocation."""
    path = args.scenario or os.environ.get(SCENARIO_ENV_VAR)
    config = parse_config(Path(path).read_text(encoding="utf-8")) if path else {}
    scenario_overrides, swarm_overrides = _parse_overrides(args.set or [])
    config.update(scenario_overrides)
    scenario = load_scenario(overrides=config)

    allocation = corner_allocation(scenario)
    if "f_server_ghz" in config:
        allocation = replace(allocation, f_server=ghz_to_hz(float(config["f_server_ghz"])))
    if "b_mbps" in config:
        allocation = replace(allocation, b=mbps_to_bps(float(config["b_mbps"])))

    cfg = SwarmConfig(seed=getattr(args, "seed", 0) or 0, **swarm_overrides)
    return scenario, allocation, cfg


def _cmd_sweep(args: argparse.Namespace) -> int:
    scenario, allocation, _ = _load_context(args)
    try:
        grid = tuple(float(v) for v in args.grid.split(","))
    except ValueError:
        raise UsageError(f"--grid expects comma-separated numbers, got {args.grid!r}") from None
    spec = SweepSpec(parameter=args.param, grid=grid, scenario=scenario, allocation=allocation)
    rows = run_sweep(spec)
    if args.plot:
        emit_plot(rows, "line", args.plot, series=args.series)
    if args.out:
        emit_csv(rows, args.out)
    else:
        csv.writer(sys.stdout, lineterminator="\n").writerows(sweep_csv_records(rows))
    return 0


def _cmd_surface(args: argparse.Namespace) -> int:
    scenario, _, _ = _load_context(args)
    grid = surface_grid(scenario, args.steps, args.steps)
    if args.plot:
        emit_plot(grid, "heatmap", args.plot, series=args.series)
    best = grid.argmax_u_user()
    value = grid.u_user.max()
    print(f"grid: {args.steps}x{args.steps} over f_server={scenario.f_range}, b={scenario.b_range}")
    print(
        f"argmax u_user: f_server={_format_number(best.f_server)} Hz, "
        f"b={_format_number(best.b)} bit/s, u_user={_format_number(value)}"
    )
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    scenario, _, cfg = _load_context(args)
    objective, u_max = dynamic_utility_objective(scenario), box_maximum_utility(scenario)
    result = ALGORITHMS[args.algo](scenario, objective, u_max, cfg)
    print(f"algorithm: {args.algo}")
    print(f"seed: {result.seed}")
    print(f"best value: {_format_number(result.best_value)}")
    print(
        f"best position: f_server={_format_number(result.best_position.f_server)} Hz, "
        f"b={_format_number(result.best_position.b)} bit/s"
    )
    print(f"iterations: {result.iterations_used}")
    print(f"converged: {result.converged}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    scenario, _, cfg = _load_context(args)
    report = compare_optimizers(scenario, cfg, args.trials, randomize=args.randomize)
    if args.out:
        emit_comparison_csv(report, args.out)
    if args.plot:
        emit_plot(report.stats[args.plot_algo].position_list, "scatter", args.plot)
    print(f"gap reference u_max: {_format_number(report.u_max)}  (trials: {args.trials})")
    print(f"{'algorithm':<10} {'mean':>12} {'std':>12} {'mean iters':>11} {'converged':>10}")
    for name, stats in report.stats.items():
        print(
            f"{name:<10} {stats.mean_value:>12.6f} {stats.std_value:>12.6f} "
            f"{stats.mean_iterations:>11.3f} {sum(stats.converged_list):>7}/{args.trials}"
        )
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
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
        help="override a scenario, allocation, or swarm-config key (repeatable)",
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for stochastic subcommands")


def build_parser() -> argparse.ArgumentParser:
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
        "--series", default="u_user", choices=("price", "u_user", "u_server"),
        help="series to plot",
    )
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_surface = sub.add_parser("surface", help="dense utility/price surface over the box")
    _add_common_options(p_surface)
    p_surface.add_argument("--steps", type=int, default=100)
    p_surface.add_argument("--plot", help="optional heatmap SVG destination")
    p_surface.add_argument(
        "--series", default="u_user", choices=("price", "u_user", "u_server"),
    )
    p_surface.set_defaults(handler=_cmd_surface)

    p_opt = sub.add_parser("optimize", help="run one seeded search")
    _add_common_options(p_opt)
    p_opt.add_argument("--algo", default="disc-pso", choices=tuple(ALGORITHMS))
    p_opt.set_defaults(handler=_cmd_optimize)

    p_cmp = sub.add_parser("compare", help="paired-seed comparison of all algorithms")
    _add_common_options(p_cmp)
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
    except (UsageError, ValueError, OptimizerError, OSError) as exc:
        # ValueError: bad scenario or argument; OptimizerError: non-finite objective; OSError: bad path
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
