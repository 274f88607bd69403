"""Acceptance suite: every shipped numeric contract at its stated tolerance.

Each test prints one PASS line (visible with ``pytest -s`` or on failure);
the same checks back the ``edgeprice validate`` command.
"""
import dataclasses
import math

import numpy as np
import pytest

from edgeprice.harness import (
    SweepSpec,
    compare_optimizers,
    corner_allocation,
    run_sweep,
)
from edgeprice.offload import Allocation
from edgeprice.optimizers import SwarmConfig
from edgeprice.pricing import (
    coupling_ratio,
    critical_point,
    curvature_report,
    derive_coefficients,
    diagnostics,
    dynamic_price,
    dynamic_user_utility_value,
    linear_user_utility_value,
    quadratic_gap,
    server_utility,
    user_utility,
    user_utility_gradient,
)
from edgeprice.scenario import ChannelSpec, default_scenario
from edgeprice.verification import random_scenario

from support import random_allocation, rel_gap

GHZ = 1e9
MBPS = 1e6
KB = 8192.0
CORNER = Allocation(6 * GHZ, 1 * MBPS)

F_SWEEP_GRID = tuple(f * GHZ for f in (1, 2, 3, 4, 5, 6))


def _f_sweep_rows():
    return run_sweep(
        SweepSpec(
            parameter="f_server",
            grid=F_SWEEP_GRID,
            scenario=default_scenario(),
            allocation=Allocation(6 * GHZ, 0.1 * MBPS),
        )
    )


def test_c01_price_anchors():
    s = default_scenario()
    price_100 = dynamic_price(dataclasses.replace(s, q=100 * KB), CORNER)
    price_500 = dynamic_price(s, CORNER)
    assert price_100 == pytest.approx(0.315874, abs=1e-5)
    assert price_500 == pytest.approx(1.57937, abs=1e-5)
    print(f"ACCEPTANCE 01 PASS: price anchors {price_100:.6f}, {price_500:.5f}")


def test_c02_server_utility_deltas():
    rows = _f_sweep_rows()
    deltas = [b.u_server - a.u_server for a, b in zip(rows, rows[1:])]
    expected = (2.70336, 0.90112, 0.45056, 0.27034, 0.18022)
    for actual, ref in zip(deltas, expected):
        assert actual == pytest.approx(ref, abs=1e-4)
    print(f"ACCEPTANCE 02 PASS: server-utility deltas {[round(d, 6) for d in deltas]}")


def test_c03_user_utility_deltas():
    rows = _f_sweep_rows()
    deltas = [b.u_user - a.u_user for a, b in zip(rows, rows[1:])]
    for actual, ref in zip((deltas[0], deltas[2], deltas[3], deltas[4]),
                           (5.4067, 0.9011, 0.5407, 0.3604)):
        assert actual == pytest.approx(ref, abs=1e-3)
    # the 2->3 GHz step: exact against the closed form, loose against the
    # printed reference value (documented discrepancy)
    assert deltas[1] == pytest.approx(1.80224, abs=1e-4)
    assert deltas[1] == pytest.approx(1.8032, abs=1e-2)
    print(f"ACCEPTANCE 03 PASS: user-utility deltas {[round(d, 5) for d in deltas]}")


def test_c04_user_utility_anchor():
    value = dynamic_user_utility_value(default_scenario(), CORNER)
    assert value == pytest.approx(50.9625, abs=1e-3)
    print(f"ACCEPTANCE 04 PASS: corner user utility {value:.6f}")


def test_c05_bandwidth_factor_anchors():
    raw = diagnostics(default_scenario(), CORNER).b_part
    db = diagnostics(
        default_scenario(channel=ChannelSpec(20.0, 30.0, "db-to-linear")), CORNER
    ).b_part
    assert db == pytest.approx(-0.0676, abs=5e-4)
    assert raw == pytest.approx(-0.102451, abs=1e-5)
    print(f"ACCEPTANCE 05 PASS: b_part raw {raw:.6f}, db-to-linear {db:.6f}")


def test_c06_price_slope_interval():
    p_part = diagnostics(default_scenario(), CORNER).p_part
    assert 3.227e-7 <= p_part <= 2.347e-6
    print(f"ACCEPTANCE 06 PASS: p_part {p_part:.4g} inside [3.227e-7, 2.347e-6]")


def test_c07_curvature_property_suite():
    rng = np.random.default_rng(1007)
    for _ in range(1000):
        s = random_scenario(rng)
        pc = derive_coefficients(s, rng.uniform(*s.f_range), rng.uniform(*s.b_range))
        report = curvature_report(s, pc, random_allocation(rng, s))
        assert report.negative_definite
        assert report.lambda1 < 0.0 and report.lambda2 < 0.0
        grad = user_utility_gradient(s, pc, Allocation(report.critical_f, report.critical_b))
        assert abs(grad[0]) < 1e-9 and abs(grad[1]) < 1e-9
    for _ in range(100):
        s = random_scenario(rng)
        pc = derive_coefficients(s, rng.uniform(*s.f_range), rng.uniform(*s.b_range))
        alloc = random_allocation(rng, s)
        grad_f, grad_b = user_utility_gradient(s, pc, alloc)
        h_f = 1e-4 * alloc.f_server
        fd_f = (
            linear_user_utility_value(s, pc, Allocation(alloc.f_server + h_f, alloc.b))
            - linear_user_utility_value(s, pc, Allocation(alloc.f_server - h_f, alloc.b))
        ) / (2 * h_f)
        h_b = 1e-4 * alloc.b
        fd_b = (
            linear_user_utility_value(s, pc, Allocation(alloc.f_server, alloc.b + h_b))
            - linear_user_utility_value(s, pc, Allocation(alloc.f_server, alloc.b - h_b))
        ) / (2 * h_b)
        assert rel_gap(fd_f, grad_f, pc.a) <= 1e-5
        assert rel_gap(fd_b, grad_b, pc.b_coef) <= 1e-5
    print("ACCEPTANCE 07 PASS: 1000 draws negative definite + stationary; 100 FD checks")


def test_c08_quadratic_gap_property():
    s = default_scenario()
    pc = derive_coefficients(s, 6 * GHZ, 1 * MBPS)
    u_max = linear_user_utility_value(s, pc, critical_point(s, pc))
    worst = 0.0
    for frac_f in (-0.1, -0.05, -0.01, 0.0, 0.01, 0.05, 0.1):
        for frac_b in (-0.1, -0.05, -0.01, 0.0, 0.01, 0.05, 0.1):
            estimate = quadratic_gap(s, pc, (frac_f * 6 * GHZ, frac_b * 1 * MBPS))
            assert estimate.actual_drop >= 0.0
            worst = max(worst, abs(estimate.actual_drop - estimate.predicted_drop) / abs(u_max))
    assert worst <= 1e-2
    print(f"ACCEPTANCE 08 PASS: worst normalized Taylor gap {worst:.3g} <= 1e-2")


def test_c09_coupling_property():
    s = default_scenario()
    assert coupling_ratio(s) == pytest.approx(2.0, rel=1e-12)
    for w2 in (0.25, 1.0 / 3.0, 0.5, 0.7):
        s_w = dataclasses.replace(s, w2=w2)
        ratio = coupling_ratio(s_w)
        b = 0.1 * MBPS
        for f1, f2 in zip(F_SWEEP_GRID, F_SWEEP_GRID[1:]):
            du_user = dynamic_user_utility_value(s_w, Allocation(f2, b)) - (
                dynamic_user_utility_value(s_w, Allocation(f1, b))
            )
            du_server = server_utility(s_w, Allocation(f2, b)) - server_utility(
                s_w, Allocation(f1, b)
            )
            assert rel_gap(du_user / du_server, ratio, 1.0) <= 1e-9
    print("ACCEPTANCE 09 PASS: utility-change coupling equals 2*w2/(1-w2) on all sweeps")


@pytest.fixture(scope="module")
def comparison_report():
    return compare_optimizers(default_scenario(), SwarmConfig(seed=0), 50)


def test_c10_optimizer_statistics(comparison_report):
    report = comparison_report
    disc = report.stats["disc-pso"]
    assert all(disc.converged_list), "disc-pso must converge in every trial"
    assert disc.mean_iterations <= 5.0
    means = {name: st.mean_iterations for name, st in report.stats.items()}
    assert means["disc-pso"] < means["pso"] < means["de"] < means["ga"]
    stds = {name: st.std_value for name, st in report.stats.items()}
    assert stds["disc-pso"] == min(stds.values())
    print(
        "ACCEPTANCE 10 PASS: mean iterations "
        + ", ".join(f"{k}={v:.2f}" for k, v in means.items())
        + f"; disc std {stds['disc-pso']:.5f} smallest"
    )


def test_c11_gap_soundness(comparison_report):
    report = comparison_report
    assert report.u_max == pytest.approx(50.9625, abs=1e-3)
    epsilon = SwarmConfig().epsilon
    checked = 0
    for stats in report.stats.values():
        for value, converged in zip(stats.value_list, stats.converged_list):
            if converged:
                assert (report.u_max - value) / value < epsilon
                checked += 1
    assert checked > 0
    print(f"ACCEPTANCE 11 PASS: gap inequality verified on {checked} converged trials")


def test_c12_corner_maximality():
    s = default_scenario()
    best_value, best_cell = -math.inf, None
    for f in np.linspace(s.f_range[0], s.f_range[1], 100):
        for b in np.linspace(s.b_range[0], s.b_range[1], 100):
            value = dynamic_user_utility_value(s, Allocation(f, b))
            if value > best_value:
                best_value, best_cell = value, (f, b)
    assert best_cell == (s.f_range[1], s.b_range[1])
    assert corner_allocation(s) == Allocation(*best_cell)
    print("ACCEPTANCE 12 PASS: brute-force 100x100 argmax at the (f_max, b_max) corner")


def test_c13_server_utility_paths_agree():
    # Absolute server-utility levels are NOT asserted anywhere in this
    # suite: they depend on the unit chosen for q inside the data-revenue
    # term, and no single choice reproduces the published level curves.
    # The falsifiable contract is that both computation paths agree.
    rng = np.random.default_rng(1013)
    worst = 0.0
    for _ in range(1000):
        s = random_scenario(rng)
        alloc = random_allocation(rng, s)
        summary = user_utility(s, alloc)
        closed = server_utility(s, alloc)
        composed = summary.price - summary.time.t_offload + summary.w_revenue
        scale = summary.price + summary.time.t_offload + summary.w_revenue
        worst = max(worst, rel_gap(closed, composed, scale))
    assert worst <= 1e-9
    print(
        "ACCEPTANCE 13 PASS: server-utility paths agree on 1000 draws "
        f"(worst {worst:.3g}); absolute levels documented as non-reproducible"
    )
