import dataclasses
import math

import numpy as np
import pytest

from edgeprice.offload import Allocation, energy_from_times, time_breakdown
from edgeprice.pricing import (
    PriceCoefficients,
    chi,
    coupling_ratio,
    critical_point,
    curvature_report,
    data_revenue,
    derive_coefficients,
    diagnostics,
    dynamic_price,
    dynamic_user_utility_value,
    dynamic_utility_objective,
    linear_price,
    linear_user_utility_value,
    quadratic_gap,
    server_utility,
    upsilon,
    user_utility,
    user_utility_gradient,
)
from edgeprice import pricing, scenario
from edgeprice.scenario import ChannelSpec, default_scenario, libm
from edgeprice.verification import random_scenario

from support import random_allocation, rel_gap

CORNER = Allocation(6e9, 1e6)


@pytest.fixture
def defaults():
    return default_scenario()


@pytest.fixture
def db_mode():
    return default_scenario(channel=ChannelSpec(20.0, 30.0, "db-to-linear"))


# ---------------------------------------------------------------- factors

def test_chi_frozen(defaults):
    assert chi(defaults) == pytest.approx(1.32132e-5, rel=1e-12)
    assert chi(dataclasses.replace(defaults, f_local=1e9)) == pytest.approx(2.64e-6, rel=1e-12)


def test_chi_zero_weights(defaults):
    assert chi(dataclasses.replace(defaults, w1=0.0, w2=0.0)) == 0.0


def test_upsilon_frozen(defaults, db_mode):
    assert upsilon(defaults) == pytest.approx(0.16558845409974412, rel=1e-12)
    assert upsilon(db_mode) == pytest.approx(0.10267052878535080, rel=1e-12)


def test_upsilon_degenerate(defaults):
    s = dataclasses.replace(defaults, alpha=0.0, w1=0.0, w2=0.0)
    assert upsilon(s) == 0.0


# ---------------------------------------------------------------- prices

def test_linear_price_arithmetic():
    pc = PriceCoefficients(a=1.50187e-10, b_coef=6.78253e-7)
    assert linear_price(pc, CORNER) == pytest.approx(0.901122 + 0.678253, rel=1e-6)
    doubled = PriceCoefficients(a=2 * pc.a, b_coef=2 * pc.b_coef)
    assert linear_price(doubled, CORNER) == pytest.approx(2 * linear_price(pc, CORNER), rel=1e-15)


def test_dynamic_price_anchors(defaults):
    assert dynamic_price(dataclasses.replace(defaults, q=819_200.0), CORNER) == pytest.approx(
        0.315874, abs=1e-5
    )
    assert dynamic_price(defaults, CORNER) == pytest.approx(1.5793703079925519, rel=1e-12)


def test_dynamic_price_zero_q(defaults):
    assert dynamic_price(dataclasses.replace(defaults, q=0.0), CORNER) == 0.0


def test_dynamic_price_monotone_decreasing(defaults):
    f_prices = [dynamic_price(defaults, Allocation(f, 5e5)) for f in np.linspace(1e9, 6e9, 12)]
    assert all(b < a for a, b in zip(f_prices, f_prices[1:]))
    b_prices = [dynamic_price(defaults, Allocation(3e9, b)) for b in np.linspace(1e5, 1e6, 12)]
    assert all(b < a for a, b in zip(b_prices, b_prices[1:]))


def test_data_revenue(defaults):
    assert data_revenue(dataclasses.replace(defaults, q=0.0)) == 0.0
    assert data_revenue(defaults) == pytest.approx(17.572627709506010, rel=1e-12)
    assert data_revenue(dataclasses.replace(defaults, mu=1e-12)) == pytest.approx(0.0, abs=1e-9)


# ---------------------------------------------------------------- utilities

def test_user_utility_dynamic_anchor(defaults):
    summary = user_utility(defaults, CORNER)
    assert summary.u_user == pytest.approx(50.962526584014896, rel=1e-12)
    assert summary.price == pytest.approx(1.5793703079925519, rel=1e-12)


def test_user_utility_delta_on_frequency_step(defaults):
    low = dynamic_user_utility_value(defaults, Allocation(1e9, 1e6))
    high = dynamic_user_utility_value(defaults, Allocation(2e9, 1e6))
    assert high - low == pytest.approx(5.40672, abs=1e-3)


def test_user_utility_zero_q(defaults):
    s = dataclasses.replace(defaults, q=0.0)
    assert user_utility(s, CORNER).u_user == 0.0
    pc = PriceCoefficients(1e-10, 1e-7)
    assert linear_user_utility_value(s, pc, CORNER) == pytest.approx(
        -linear_price(pc, CORNER), rel=1e-12
    )


@pytest.fixture
def libm_passes(monkeypatch):
    """Every libm pass the model makes, as (function, argument) pairs."""
    passes = []

    def spy(fn, x, y=None):
        passes.append((fn, x))
        return libm(fn, x, y)

    for module in (scenario, pricing):  # offload reads only the scenario's cached factors
        monkeypatch.setattr(module, "libm", spy)
    return passes


@pytest.mark.parametrize("mode", ["raw", "db-to-linear"])
def test_user_utility_evaluates_each_factor_once(mode, libm_passes):
    s = default_scenario(channel=ChannelSpec(20.0, 30.0, mode))
    exp10_passes = 2 if mode == "db-to-linear" else 0
    user_utility(s, CORNER)
    # log2(1 + snr) twice, f_local^2 once for chi and e_local, log2(1 + q) for the revenue
    assert len(libm_passes) <= 4 + exp10_passes
    assert [x for fn, x in libm_passes if fn is pow] == [s.f_local]
    del libm_passes[:]
    user_utility(s, CORNER)  # the same Scenario and ChannelSpec: their factors are kept
    assert libm_passes == [(math.log2, 1.0 + s.q)]


def test_linear_utility_makes_one_pass(defaults, libm_passes):
    assert upsilon(defaults) > 0  # evaluates the channel's efficiencies, which are then kept
    del libm_passes[:]
    linear_user_utility_value(defaults, PriceCoefficients(1.5e-10, 6.8e-7), CORNER)
    assert [fn for fn, _ in libm_passes] == [pow]  # f_local^2 in chi


@pytest.fixture
def factor_passes(monkeypatch):
    """The name of every chi and upsilon evaluation the model makes."""
    passes = []
    for name in ("chi", "upsilon"):
        factor = getattr(pricing, name)
        monkeypatch.setattr(pricing, name, lambda s, f=factor, n=name: passes.append(n) or f(s))
    return passes


def test_scenario_factors_are_evaluated_once_per_scenario(defaults, factor_passes):
    pc = PriceCoefficients(1.5e-10, 6.8e-7)
    values = {linear_user_utility_value(defaults, pc, CORNER) for _ in range(100)}
    assert factor_passes == ["chi", "upsilon"]
    assert len(values) == 1
    for closed_form in (dynamic_price, server_utility, dynamic_user_utility_value):
        closed_form(defaults, CORNER)
    critical_point(defaults, pc)
    assert factor_passes == ["chi", "upsilon"]


def test_changed_and_array_scenarios_get_their_own_factors(defaults, factor_passes):
    pc = PriceCoefficients(1.5e-10, 6.8e-7)

    def written_out(s):  # the linear utility from chi and upsilon, without the kept factors
        return (s.q * chi(s) - s.q * s.w2 * s.c / CORNER.f_server - s.q * upsilon(s) / CORNER.b
                - linear_price(pc, CORNER))

    value = linear_user_utility_value(defaults, pc, CORNER)
    doubled = dataclasses.replace(defaults, q=2 * defaults.q)
    assert linear_user_utility_value(doubled, pc, CORNER) == written_out(doubled) != value
    q = np.array([1e5, 2e6, 4e6])
    columns = dataclasses.replace(defaults, q=q)
    expected = [written_out(dataclasses.replace(defaults, q=x)) for x in q.tolist()]
    assert linear_user_utility_value(columns, pc, CORNER).tolist() == expected
    assert factor_passes == ["chi", "upsilon"] * 3  # defaults, doubled, columns: one pass each


def test_eu_path_equivalence_random():
    # closed dynamic form against saved-energy/saved-time minus price
    rng = np.random.default_rng(3)
    for _ in range(1000):
        s = random_scenario(rng)
        alloc = random_allocation(rng, s)
        summary = user_utility(s, alloc)
        direct = s.w1 * summary.energy.e_save + s.w2 * summary.time.t_save - summary.price
        scale = s.w1 * abs(summary.energy.e_save) + s.w2 * abs(summary.time.t_save) + summary.price
        assert rel_gap(direct, summary.u_user, scale) <= 1e-9


def test_eu_path_equivalence_linear_mode():
    rng = np.random.default_rng(5)
    for _ in range(300):
        s = random_scenario(rng)
        alloc = random_allocation(rng, s)
        pc = derive_coefficients(s, rng.uniform(*s.f_range), rng.uniform(*s.b_range))
        times = time_breakdown(s, alloc)
        e_save = energy_from_times(s, times).e_save
        t_save = times.t_save
        price = linear_price(pc, alloc)
        direct = s.w1 * e_save + s.w2 * t_save - price
        scale = s.w1 * abs(e_save) + s.w2 * abs(t_save) + price
        assert rel_gap(direct, linear_user_utility_value(s, pc, alloc), scale) <= 1e-9


def test_server_utility_anchor(defaults):
    assert server_utility(defaults, CORNER) == pytest.approx(16.251865907107787, rel=1e-12)


def test_server_utility_delta_on_frequency_step(defaults):
    low = server_utility(defaults, Allocation(1e9, 1e6))
    high = server_utility(defaults, Allocation(2e9, 1e6))
    assert high - low == pytest.approx(2.70336, abs=1e-4)


def test_server_utility_zero_q(defaults):
    assert server_utility(dataclasses.replace(defaults, q=0.0), CORNER) == 0.0


def test_es_path_equivalence_random():
    rng = np.random.default_rng(9)
    for _ in range(1000):
        s = random_scenario(rng)
        alloc = random_allocation(rng, s)
        summary = user_utility(s, alloc)
        closed = server_utility(s, alloc)
        composed = summary.price - summary.time.t_offload + summary.w_revenue
        scale = summary.price + summary.time.t_offload + summary.w_revenue
        assert rel_gap(closed, composed, scale) <= 1e-9


def test_summary_u_server_matches_closed_form(defaults):
    summary = user_utility(defaults, CORNER)
    assert summary.u_server == pytest.approx(server_utility(defaults, CORNER), rel=1e-12)


# ---------------------------------------------------------------- calculus

def test_gradient_frozen_values(defaults):
    pc = PriceCoefficients(a=1.50187e-10, b_coef=6.78253e-7)
    grad_f, grad_b = user_utility_gradient(defaults, pc, Allocation(3e9, 0.5e6))
    assert grad_f == pytest.approx(4.5055966666666667e-10, rel=1e-5)
    assert grad_b == pytest.approx(2.0347482319702076e-6, rel=1e-5)


def test_gradient_vanishes_at_critical_point():
    rng = np.random.default_rng(17)
    for _ in range(200):
        s = random_scenario(rng)
        pc = derive_coefficients(s, rng.uniform(*s.f_range), rng.uniform(*s.b_range))
        crit = critical_point(s, pc)
        grad_f, grad_b = user_utility_gradient(s, pc, crit)
        assert abs(grad_f) < 1e-9 and abs(grad_b) < 1e-9


def _central_difference(fn, x, h):
    return (fn(x + h) - fn(x - h)) / (2 * h)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(19)
    for _ in range(100):
        s = random_scenario(rng)
        pc = derive_coefficients(s, rng.uniform(*s.f_range), rng.uniform(*s.b_range))
        alloc = random_allocation(rng, s)
        grad_f, grad_b = user_utility_gradient(s, pc, alloc)
        fd_f = _central_difference(
            lambda f: linear_user_utility_value(s, pc, Allocation(f, alloc.b)),
            alloc.f_server,
            1e-4 * alloc.f_server,
        )
        fd_b = _central_difference(
            lambda b: linear_user_utility_value(s, pc, Allocation(alloc.f_server, b)),
            alloc.b,
            1e-4 * alloc.b,
        )
        # gradients can vanish inside the box; compare on the coefficient scale
        assert rel_gap(fd_f, grad_f, pc.a) <= 1e-5
        assert rel_gap(fd_b, grad_b, pc.b_coef) <= 1e-5


def test_curvature_frozen_values(defaults):
    pc = derive_coefficients(defaults, 6e9, 1e6)
    report = curvature_report(defaults, pc, CORNER)
    assert report.lambda1 == pytest.approx(-5.006222222222222e-20, rel=1e-12)
    assert report.lambda2 == pytest.approx(-1.3565006159851038e-12, rel=1e-12)
    assert report.negative_definite


def test_curvature_always_negative_definite():
    rng = np.random.default_rng(23)
    for _ in range(1000):
        s = random_scenario(rng)
        pc = derive_coefficients(s, rng.uniform(*s.f_range), rng.uniform(*s.b_range))
        report = curvature_report(s, pc, random_allocation(rng, s))
        assert report.negative_definite
        assert report.lambda1 < 0.0 and report.lambda2 < 0.0


def test_derive_coefficients_frozen(defaults):
    pc = derive_coefficients(defaults, 6e9, 1e6)
    assert pc.a == pytest.approx(1.5018666666666666e-10, rel=1e-12)
    assert pc.b_coef == pytest.approx(6.782503079925519e-7, rel=1e-12)


def test_derive_coefficients_round_trip(defaults):
    pc = derive_coefficients(defaults, 6e9, 1e6)
    crit = critical_point(defaults, pc)
    assert crit.f_server == pytest.approx(6e9, rel=1e-9)
    assert crit.b == pytest.approx(1e6, rel=1e-9)


def test_derive_coefficients_linear_in_q(defaults):
    pc1 = derive_coefficients(defaults, 6e9, 1e6)
    doubled = dataclasses.replace(defaults, q=2 * defaults.q)
    pc2 = derive_coefficients(doubled, 6e9, 1e6)
    assert pc2.a == pytest.approx(2 * pc1.a, rel=1e-12)
    assert pc2.b_coef == pytest.approx(2 * pc1.b_coef, rel=1e-12)


def test_quadratic_gap_zero_displacement(defaults):
    pc = derive_coefficients(defaults, 6e9, 1e6)
    estimate = quadratic_gap(defaults, pc, (0.0, 0.0))
    assert estimate.predicted_drop == 0.0
    assert estimate.actual_drop == 0.0


def test_quadratic_gap_ten_percent(defaults):
    pc = derive_coefficients(defaults, 6e9, 1e6)
    estimate = quadratic_gap(defaults, pc, (0.1 * 6e9, 0.1 * 1e6))
    assert estimate.predicted_drop == pytest.approx(0.015793703079925519, rel=1e-9)
    assert estimate.actual_drop == pytest.approx(0.014357911890841381, rel=1e-9)
    u_max = linear_user_utility_value(defaults, pc, CORNER)
    assert abs(estimate.actual_drop - estimate.predicted_drop) / abs(u_max) <= 1e-2


def test_quadratic_gap_drop_never_negative(defaults):
    pc = derive_coefficients(defaults, 3e9, 5e5)
    rng = np.random.default_rng(29)
    for _ in range(200):
        c1 = rng.uniform(-0.9, 3.0) * 3e9
        c2 = rng.uniform(-0.9, 3.0) * 5e5
        estimate = quadratic_gap(defaults, pc, (c1, c2))
        assert estimate.actual_drop >= 0.0
        assert estimate.predicted_drop >= 0.0


def test_quadratic_gap_rejects_nonpositive_point(defaults):
    pc = derive_coefficients(defaults, 6e9, 1e6)
    with pytest.raises(ValueError, match="positive"):
        quadratic_gap(defaults, pc, (-7e9, 0.0))
    # critical points at 6 and 8 GHz: one displaced element at -1 GHz refuses the array
    pcs = derive_coefficients(defaults, np.array([6e9, 8e9]), 1e6)
    with pytest.raises(ValueError, match="positive"):
        quadratic_gap(defaults, pcs, (-7e9, 0.0))


# ---------------------------------------------------------------- diagnostics

def test_diagnostics_frozen(defaults, db_mode):
    raw = diagnostics(defaults, CORNER)
    assert raw.b_part == pytest.approx(-0.10245161191362885, rel=1e-9)
    assert raw.p_part == pytest.approx(3.855884540997441e-7, rel=1e-9)
    db = diagnostics(db_mode, CORNER)
    assert db.b_part == pytest.approx(-0.0676, abs=5e-4)


def test_diagnostics_u_affect_grid(defaults):
    grid = (819_200.0, 4_096_000.0)
    result = diagnostics(dataclasses.replace(defaults, q=np.array(grid)), CORNER)
    assert result.u_affect[1] == pytest.approx(14.672495599115235, rel=1e-9)
    for q, u in zip(grid, result.u_affect):
        s_q = dataclasses.replace(defaults, q=q)
        expected = -time_breakdown(s_q, CORNER).t_offload + data_revenue(s_q)
        assert u == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------- coupling

def test_coupling_ratio_values(defaults):
    assert coupling_ratio(defaults) == pytest.approx(2.0, rel=1e-12)
    assert coupling_ratio(dataclasses.replace(defaults, w2=1.0 / 3.0)) == pytest.approx(
        1.0, rel=1e-12
    )


def test_coupling_ratio_domain_error(defaults):
    with pytest.raises(ValueError, match="w2"):
        coupling_ratio(dataclasses.replace(defaults, w2=1.0))
    with pytest.raises(ValueError, match="w2"):  # one element outside (0, 1) refuses the array
        coupling_ratio(dataclasses.replace(defaults, w2=np.array([0.3, 1.0])))


def test_coupling_measured_on_sweeps():
    rng = np.random.default_rng(31)
    for _ in range(50):
        s = random_scenario(rng)
        ratio = coupling_ratio(s)
        b = rng.uniform(*s.b_range)
        f_grid = np.linspace(s.f_range[0], s.f_range[1], 7)
        for f1, f2 in zip(f_grid, f_grid[1:]):
            du_user = dynamic_user_utility_value(s, Allocation(f2, b)) - dynamic_user_utility_value(
                s, Allocation(f1, b)
            )
            du_server = server_utility(s, Allocation(f2, b)) - server_utility(s, Allocation(f1, b))
            assert rel_gap(du_user / du_server, ratio, 1.0) <= 1e-9


# ---------------------------------------------------------------- corner max

def test_corner_maximality_against_brute_grid(defaults):
    objective = dynamic_utility_objective(defaults)
    best, best_alloc = -math.inf, None
    for f in np.linspace(1e9, 6e9, 100):
        for b in np.linspace(1e5, 1e6, 100):
            value = objective(Allocation(f, b))
            if value > best:
                best, best_alloc = value, (f, b)
    assert best_alloc == (6e9, 1e6)
    assert best == pytest.approx(dynamic_user_utility_value(defaults, CORNER), rel=1e-12)


def test_dynamic_utility_strictly_increasing(defaults):
    values_f = [
        dynamic_user_utility_value(defaults, Allocation(f, 5e5))
        for f in np.linspace(1e9, 6e9, 15)
    ]
    assert all(b > a for a, b in zip(values_f, values_f[1:]))
    values_b = [
        dynamic_user_utility_value(defaults, Allocation(3e9, b))
        for b in np.linspace(1e5, 1e6, 15)
    ]
    assert all(b > a for a, b in zip(values_b, values_b[1:]))
