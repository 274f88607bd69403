import dataclasses

import numpy as np
import pytest

from edgeprice.offload import Allocation, energy_from_times, link_rates, local_exec_time, time_breakdown
from edgeprice.scenario import default_scenario
from edgeprice.verification import random_scenario

from support import random_allocation

CORNER = Allocation(6e9, 1e6)


@pytest.fixture
def defaults():
    return default_scenario()


def test_link_rates_frozen_values(defaults):
    r_u, r_d = link_rates(defaults, 1e6)
    assert r_u == pytest.approx(4_392_317.422778760, rel=1e-12)   # 1e6*log2(21)
    assert r_d == pytest.approx(4_954_196.310386875, rel=1e-12)   # 1e6*log2(31)


def test_link_rates_linear_in_bandwidth(defaults):
    r1 = link_rates(defaults, 1e6)
    r2 = link_rates(defaults, 2e6)
    assert r2[0] == pytest.approx(2 * r1[0], rel=1e-15)
    assert r2[1] == pytest.approx(2 * r1[1], rel=1e-15)


def test_local_exec_time_frozen(defaults):
    assert local_exec_time(defaults) == pytest.approx(108.1344, rel=1e-12)


def test_local_exec_time_zero_work(defaults):
    assert local_exec_time(dataclasses.replace(defaults, q=0.0)) == 0.0


def test_local_exec_time_inverse_in_frequency(defaults):
    doubled = dataclasses.replace(defaults, f_local=2 * defaults.f_local)
    assert local_exec_time(doubled) == pytest.approx(local_exec_time(defaults) / 2, rel=1e-12)


def test_time_breakdown_frozen_values(defaults):
    t = time_breakdown(defaults, CORNER)
    assert t.t_u == pytest.approx(0.9325373386627195, rel=1e-9)
    assert t.t_p == pytest.approx(1.80224, rel=1e-9)
    assert t.t_d == pytest.approx(0.1653547717280562, rel=1e-9)
    assert t.t_offload == pytest.approx(2.9001321103907757, rel=1e-9)
    assert t.t_save == pytest.approx(105.23426788960922, rel=1e-9)


def test_time_breakdown_no_download_when_alpha_zero(defaults):
    t = time_breakdown(dataclasses.replace(defaults, alpha=0.0), CORNER)
    assert t.t_d == 0.0


def test_time_saving_vanishes_in_symmetric_limit(defaults):
    # remote CPU equal to the local one and effectively infinite bandwidth
    t = time_breakdown(defaults, Allocation(defaults.f_local, 1e18))
    assert t.t_save == pytest.approx(0.0, abs=1e-9)


def test_time_additivity_bit_exact(defaults):
    rng = np.random.default_rng(7)
    for _ in range(200):
        s = random_scenario(rng)
        t = time_breakdown(s, random_allocation(rng, s))
        assert t.t_offload == t.t_u + t.t_p + t.t_d
        assert t.t_save == t.t_local - t.t_offload


def test_energy_breakdown_frozen_values(defaults):
    e = energy_from_times(defaults, time_breakdown(defaults, CORNER))
    assert e.e_local == pytest.approx(0.1081344, rel=1e-12)
    assert e.e_up == pytest.approx(0.09325373386627195, rel=1e-9)
    assert e.e_d == pytest.approx(0.1653547717280562, rel=1e-9)
    assert e.e_save == pytest.approx(-0.15047410559432815, rel=1e-9)


def test_energy_zero_workload(defaults):
    s = dataclasses.replace(defaults, q=0.0)
    e = energy_from_times(s, time_breakdown(s, CORNER))
    assert (e.e_local, e.e_up, e.e_d, e.e_save) == (0.0, 0.0, 0.0, 0.0)


def test_energy_no_compute_energy_when_k_zero(defaults):
    s = dataclasses.replace(defaults, k=0.0)
    e = energy_from_times(s, time_breakdown(s, CORNER))
    assert e.e_local == 0.0
    assert e.e_save == -(e.e_up + e.e_d) <= 0.0


def test_energy_closed_form_equivalence():
    # factored form of the saved-energy expression against the summed parts
    rng = np.random.default_rng(11)
    for _ in range(1000):
        s = random_scenario(rng)
        alloc = random_allocation(rng, s)
        e = energy_from_times(s, time_breakdown(s, alloc))
        r_u, r_d = link_rates(s, alloc.b)
        closed = s.q * (s.k * s.c * s.f_local**2 - s.p_u / r_u - s.p_d * s.alpha / r_d)
        assert closed == pytest.approx(e.e_save, rel=1e-12, abs=1e-15 * e.e_local)


def test_offload_time_closed_form_equivalence():
    rng = np.random.default_rng(13)
    for _ in range(1000):
        s = random_scenario(rng)
        alloc = random_allocation(rng, s)
        t = time_breakdown(s, alloc)
        r_u, r_d = link_rates(s, alloc.b)
        closed = s.q * (s.c / s.f_local - 1.0 / r_u - s.c / alloc.f_server - s.alpha / r_d)
        assert closed == pytest.approx(t.t_save, rel=1e-12, abs=1e-12)


def test_monotonicity_in_resources(defaults):
    f_grid = np.linspace(1e9, 6e9, 10)
    offload_times = [time_breakdown(defaults, Allocation(f, 5e5)).t_offload for f in f_grid]
    assert all(b < a for a, b in zip(offload_times, offload_times[1:]))

    b_grid = np.linspace(1e5, 1e6, 10)
    offload_times = [time_breakdown(defaults, Allocation(3e9, b)).t_offload for b in b_grid]
    assert all(b < a for a, b in zip(offload_times, offload_times[1:]))

    savings = [energy_from_times(defaults, time_breakdown(defaults, Allocation(3e9, b))).e_save
               for b in b_grid]
    assert all(b > a for a, b in zip(savings, savings[1:]))


def test_breakdowns_linear_in_q(defaults):
    doubled = dataclasses.replace(defaults, q=2 * defaults.q)
    t1, t2 = time_breakdown(defaults, CORNER), time_breakdown(doubled, CORNER)
    e1, e2 = energy_from_times(defaults, t1), energy_from_times(doubled, t2)
    for a, b in (
        (t1.t_u, t2.t_u), (t1.t_p, t2.t_p), (t1.t_d, t2.t_d),
        (t1.t_offload, t2.t_offload), (t1.t_save, t2.t_save),
        (e1.e_local, e2.e_local), (e1.e_save, e2.e_save),
    ):
        assert b == pytest.approx(2 * a, rel=1e-12)
