"""The benchmark's independent checker agrees with the library on correct
outputs and rejects deliberately wrong ones.

Run with ``PYTHONPATH=src python -m pytest perfbench/tests -q`` from the
repository root.
"""
from __future__ import annotations

import csv
import io
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checker  # noqa: E402
from edgeprice import cli, svgplot  # noqa: E402
from edgeprice.harness import box_maximum_utility, surface_grid  # noqa: E402
from edgeprice.offload import Allocation  # noqa: E402
from edgeprice.optimizers import RunResult, SwarmConfig, baseline_de, disc_pso  # noqa: E402
from edgeprice.pricing import (  # noqa: E402
    critical_point,
    derive_coefficients,
    dynamic_price,
    dynamic_user_utility_value,
    dynamic_utility_objective,
    linear_user_utility_value,
    server_utility,
)
from edgeprice.scenario import ChannelSpec, Scenario, default_scenario, load_scenario  # noqa: E402

KB, GHZ, MBPS = 8192.0, 1e9, 1e6


def random_scenario(rng: np.random.Generator) -> Scenario:
    return Scenario(
        q=rng.uniform(100.0, 500.0) * KB,
        c=rng.uniform(100.0, 5000.0),
        f_local=rng.uniform(0.1, 1.0) * GHZ,
        k=10.0 ** rng.uniform(-28.0, -26.0),
        p_u=rng.uniform(0.01, 1.0),
        p_d=rng.uniform(0.1, 2.0),
        alpha=rng.uniform(0.0, 1.0),
        w1=rng.uniform(0.05, 0.95),
        w2=rng.uniform(0.05, 0.95),
        mu=rng.uniform(0.05, 0.95),
        channel=ChannelSpec(rng.uniform(1.0, 40.0), rng.uniform(1.0, 40.0),
                            "raw" if rng.random() < 0.5 else "db-to-linear"),
        f_range=(1.0 * GHZ, 6.0 * GHZ),
        b_range=(0.1 * MBPS, 1.0 * MBPS),
    )


def seeded_points(n=200, seed=20261018):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        s = random_scenario(rng)
        yield s, rng.uniform(*s.f_range), rng.uniform(*s.b_range)


def rel(a, b, scale):
    return abs(a - b) / max(abs(a), abs(b), abs(scale))


def test_closed_forms_agree_with_library_at_seeded_points():
    for s, f, b in seeded_points():
        alloc = Allocation(f, b)
        scale = float(checker.dynamic_scale(s, f, b))
        assert rel(float(checker.dynamic_utility(s, f, b)), dynamic_user_utility_value(s, alloc), scale) < 1e-13
        assert rel(float(checker.dynamic_utility(s, f, b)), dynamic_utility_objective(s)(alloc), scale) < 1e-13
        assert rel(float(checker.price(s, f, b)), dynamic_price(s, alloc), 0.0) < 1e-13
        server = float(checker.server_utility(s, f, b))
        assert rel(server, server_utility(s, alloc), float(checker._server_scale(s, f, b))) < 1e-12


def test_linear_forms_agree_with_library_at_seeded_points():
    for s, f, b in seeded_points(seed=7):
        target = (f, b)
        pc = derive_coefficients(s, *target)
        a, b_coef = checker.linear_coefficients(s, *target)
        assert rel(a, pc.a, 0.0) < 1e-13 and rel(b_coef, pc.b_coef, 0.0) < 1e-13
        crit = critical_point(s, pc)
        f_c, b_c = checker.linear_critical_point(s, a, b_coef)
        assert rel(f_c, crit.f_server, 0.0) < 1e-13 and rel(b_c, crit.b, 0.0) < 1e-13
        assert rel(f_c, f, 0.0) < 1e-12 and rel(b_c, b, 0.0) < 1e-12
        probe = Allocation(0.5 * (f + s.f_range[0]), 0.5 * (b + s.b_range[1]))
        assert rel(float(checker.linear_utility(s, a, b_coef, probe.f_server, probe.b)),
                   linear_user_utility_value(s, pc, probe),
                   float(checker.linear_scale(s, a, b_coef, probe.f_server, probe.b))) < 1e-13


def test_real_searches_pass_the_run_check():
    s = default_scenario()
    u_max = box_maximum_utility(s)
    for seed in range(5):
        cfg = SwarmConfig(seed=seed)
        for algorithm in (disc_pso, baseline_de):
            result = algorithm(s, dynamic_utility_objective(s), u_max, cfg)
            assert checker.check_dynamic_run(result, s, epsilon=cfg.epsilon, n_max=cfg.n_max,
                                             u_max=u_max) == []


def test_interior_search_passes_the_linear_check():
    s = default_scenario()
    target = (3.5 * GHZ, 0.55 * MBPS)
    pc = derive_coefficients(s, *target)
    u_max = linear_user_utility_value(s, pc, critical_point(s, pc))
    cfg = SwarmConfig(seed=3, epsilon=1e-6)
    result = disc_pso(s, lambda alloc: linear_user_utility_value(s, pc, alloc), u_max, cfg)
    assert checker.check_linear_run(result, s, target, epsilon=cfg.epsilon, n_max=cfg.n_max,
                                    u_max=u_max) == []


def _result(s, f, b, *, converged, rounds):
    value = float(checker.dynamic_utility(s, f, b))
    return RunResult(value, Allocation(f, b), rounds, converged, 0)


def test_rejects_converged_claim_with_gap_not_met():
    s = default_scenario()
    u_max = box_maximum_utility(s)
    far = _result(s, 3e9, 5e5, converged=True, rounds=2)
    problems = checker.check_dynamic_run(far, s, epsilon=1e-3, n_max=50, u_max=u_max)
    assert any("converged=True" in p for p in problems)
    assert checker.check_dynamic_run(replace(far, converged=False, iterations_used=50), s,
                                     epsilon=1e-3, n_max=50, u_max=u_max) == []


def test_rejects_false_convergence_at_negative_utility():
    s = default_scenario(f_local=1e9, b_range=(1e4, 2e4))
    u_max = box_maximum_utility(s)
    assert u_max < 0
    short = _result(s, 5e9, 1.9e4, converged=True, rounds=0)
    problems = checker.check_dynamic_run(short, s, epsilon=1e-3, n_max=50, u_max=u_max)
    assert any("converged=True" in p for p in problems)


def test_rejects_wrong_value_position_and_round_count():
    s = default_scenario()
    u_max = box_maximum_utility(s)
    good = _result(s, 6e9, 1e6, converged=True, rounds=1)
    assert checker.check_dynamic_run(good, s, epsilon=1e-3, n_max=50, u_max=u_max) == []
    off_value = replace(good, best_value=good.best_value * (1 + 1e-9))
    assert checker.check_dynamic_run(off_value, s, epsilon=1e-3, n_max=50, u_max=u_max)
    outside = _result(s, 6.1e9, 1e6, converged=True, rounds=1)
    assert checker.check_dynamic_run(outside, s, epsilon=1e-3, n_max=50, u_max=u_max)
    stopped_early = _result(s, 2e9, 2e5, converged=False, rounds=7)
    assert checker.check_dynamic_run(stopped_early, s, epsilon=1e-3, n_max=50, u_max=u_max)


def test_surface_grid_check_accepts_library_and_rejects_perturbed_cell():
    s = default_scenario(q=300 * KB, w2=0.4)
    grid = surface_grid(s, 30, 30)
    assert checker.check_surface_grid(grid, s, 30) == []
    grid.u_user[12, 7] *= 1 + 1e-9
    problems = checker.check_surface_grid(grid, s, 30)
    assert problems and "u_user[12,7]" in problems[0]


def _sweep_csv(tmp_path, overrides, parameter, grid):
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--param", parameter, "--grid", ",".join(repr(v) for v in grid),
            "--out", str(out)]
    for key, value in overrides.items():
        argv += ["--set", f"{key}={value!r}"]
    assert cli.main(argv) == 0
    return out.read_text(encoding="utf-8")


@pytest.mark.parametrize("parameter,lo,hi", [("f_server", 1.2e9, 5.9e9), ("b", 1.5e5, 9e5),
                                             ("q", 120 * KB, 480 * KB), ("f_local", 1.5e8, 9e8)])
def test_sweep_csv_check_accepts_cli_output(tmp_path, parameter, lo, hi):
    overrides = {"q_kb": 321.5, "f_local_ghz": 0.37, "w2": 0.62, "f_server_ghz": 4.2,
                 "b_mbps": 0.71}
    grid = tuple(float(v) for v in np.linspace(lo, hi, 40))
    text = _sweep_csv(tmp_path, overrides, parameter, grid)
    s = load_scenario(overrides=overrides)
    assert checker.check_sweep_csv(text, s, parameter, grid, (4.2e9, 0.71e6)) == []


def test_sweep_csv_check_rejects_a_value_off_in_its_ninth_digit(tmp_path):
    overrides = {"q_kb": 321.5, "f_server_ghz": 4.2, "b_mbps": 0.71}
    grid = tuple(float(v) for v in np.linspace(1.2e9, 5.9e9, 25))
    text = _sweep_csv(tmp_path, overrides, "f_server", grid)
    s = load_scenario(overrides=overrides)
    rows = list(csv.reader(io.StringIO(text)))
    printed = rows[9][3]                      # u_user of the ninth data row
    mantissa, _, exponent = f"{float(printed):.8e}".partition("e")
    rows[9][3] = f"{float(mantissa) + 1e-8:.8f}e{exponent}"
    assert float(rows[9][3]) != float(printed)
    tampered = io.StringIO()
    csv.writer(tampered, lineterminator="\r\n").writerows(rows)
    problems = checker.check_sweep_csv(tampered.getvalue(), s, "f_server", grid, (4.2e9, 0.71e6))
    assert problems and "row 8 u_user" in problems[0]


def test_svg_checks_count_elements_and_colours():
    s = default_scenario()
    grid = surface_grid(s, 12, 12)
    text = svgplot.heatmap(grid.f_values, grid.b_values, grid.u_user.tolist(),
                           x_label="f", y_label="b", title="t")
    assert checker.check_heatmap_svg(text, s, 12) == []
    assert checker.check_heatmap_svg(text, s, 13)
    first_cell = text.index('fill="#', text.index("<rect", text.index("<rect") + 1))
    recoloured = text[:first_cell] + 'fill="#00ff00' + text[first_cell + len('fill="#xxxxxx'):]
    assert checker.check_heatmap_svg(recoloured, s, 12)
    assert checker.check_heatmap_svg(text[:-20], s, 12)          # truncated: not XML
    line = svgplot.line_plot([(1.0, 2.0), (2.0, 3.0), (3.0, 1.0)], x_label="x", y_label="y",
                             title="t")
    assert checker.check_line_svg(line, 3) == []
    assert checker.check_line_svg(line, 4)


def test_comparison_check_accepts_library_and_rejects_tampered_trial():
    from edgeprice.harness import compare_optimizers

    s = default_scenario()
    cfg = SwarmConfig(seed=4)
    report = compare_optimizers(s, cfg, 3, randomize=True)
    assert checker.check_comparison(report, s, n_trials=3, epsilon=cfg.epsilon,
                                    n_max=cfg.n_max) == []
    stats = report.stats["ga"]
    values = list(stats.value_list)
    values[1] *= 1 + 1e-9
    tampered = replace(report, stats={**report.stats, "ga": replace(stats, value_list=tuple(values))})
    problems = checker.check_comparison(tampered, s, n_trials=3, epsilon=cfg.epsilon,
                                        n_max=cfg.n_max)
    assert problems == ["trial 1: no documented (q, f_local) reproduces the results"]
