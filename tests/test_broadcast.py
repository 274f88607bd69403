"""Scenario and allocation arrays give the scalar calls' results, bit for bit.

Element i of every array result must equal the scalar call on element i
of the inputs. numpy's log2 and powers differ from the C library's in the
last bit for some inputs, so these tests catch any step that bypasses
``scenario.libm``.
"""
import dataclasses
import math

import numpy as np
import pytest

from edgeprice.offload import Allocation
from edgeprice.pricing import (
    coupling_ratio,
    critical_point,
    curvature_report,
    derive_coefficients,
    diagnostics,
    dynamic_price,
    dynamic_utility_objective,
    linear_price,
    linear_user_utility_value,
    quadratic_gap,
    server_utility,
    user_utility,
    user_utility_gradient,
)
from edgeprice.scenario import ChannelSpec, Scenario, default_scenario
from edgeprice.verification import random_scenario

from support import random_allocation

NUMBER_FIELDS = ("q", "c", "f_local", "k", "p_u", "p_d", "alpha", "w1", "w2", "mu")


def stack(scenarios: list[Scenario]) -> Scenario:
    """One array Scenario whose element i is ``scenarios[i]``; all share one SNR mode."""
    (mode,) = {s.channel.snr_mode for s in scenarios}
    links = [np.array([getattr(s.channel, name) for s in scenarios])
             for name in ("snr_uplink", "snr_downlink")]
    fields = {name: np.array([getattr(s, name) for s in scenarios]) for name in NUMBER_FIELDS}
    return dataclasses.replace(scenarios[0], channel=ChannelSpec(*links, mode), **fields)


def leaves(result) -> list:
    """The numbers of a result (a dataclass, a tuple or a number), nested ones included."""
    if dataclasses.is_dataclass(result):
        result = dataclasses.astuple(result)
    if isinstance(result, tuple):
        return [leaf for part in result for leaf in leaves(part)]
    return [result]


def assert_elementwise(array_result, scalar_results: list) -> None:
    n = len(scalar_results)
    rows = [leaves(r) for r in scalar_results]
    for j, column in enumerate(leaves(array_result)):
        # a list leaf is a malformed result, even where its items equal the scalar calls'
        assert isinstance(column, (float, np.ndarray)), f"leaf {j} is a {type(column).__name__}"
        got = np.broadcast_to(column, (n,)).tolist()
        want = [row[j] for row in rows]
        assert got == want, f"leaf {j}: {sum(g != w for g, w in zip(got, want))} of {n} differ"


def random_draws(seed: int, n: int):
    """``n`` random scenarios split by SNR mode, each with a purchase and a price target."""
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(n):
        s = random_scenario(rng)
        draws.append((s, random_allocation(rng, s), random_allocation(rng, s)))
    return [[d for d in draws if d[0].channel.snr_mode == mode] for mode in ("raw", "db-to-linear")]


def arrays(draws):
    scenarios, allocs, targets = zip(*draws)
    alloc = Allocation(np.array([a.f_server for a in allocs]), np.array([a.b for a in allocs]))
    target = Allocation(np.array([t.f_server for t in targets]), np.array([t.b for t in targets]))
    return stack(list(scenarios)), alloc, target


@pytest.mark.parametrize("seed", range(4))
def test_scenario_arrays_equal_the_scalar_calls(seed):
    for draws in random_draws(seed, 400):
        s, alloc, target = arrays(draws)
        pc = derive_coefficients(s, target.f_server, target.b)
        scalar_pcs = [derive_coefficients(d[0], d[2].f_server, d[2].b) for d in draws]
        assert_elementwise(pc, scalar_pcs)
        cases = [
            (user_utility(s, alloc), [user_utility(d[0], d[1]) for d in draws]),
            (linear_price(pc, alloc), [linear_price(p, d[1]) for d, p in zip(draws, scalar_pcs)]),
            (diagnostics(s, alloc), [diagnostics(d[0], d[1]) for d in draws]),
            (coupling_ratio(s), [coupling_ratio(d[0]) for d in draws]),
            (quadratic_gap(s, pc, (1e8, 1e4)),
             [quadratic_gap(d[0], p, (1e8, 1e4)) for d, p in zip(draws, scalar_pcs)]),
            (server_utility(s, alloc), [server_utility(d[0], d[1]) for d in draws]),
            (dynamic_price(s, alloc), [dynamic_price(d[0], d[1]) for d in draws]),
            (dynamic_utility_objective(s)(alloc),
             [dynamic_utility_objective(d[0])(d[1]) for d in draws]),
            (linear_user_utility_value(s, pc, alloc),
             [linear_user_utility_value(d[0], p, d[1]) for d, p in zip(draws, scalar_pcs)]),
            (critical_point(s, pc), [critical_point(d[0], p) for d, p in zip(draws, scalar_pcs)]),
            (curvature_report(s, pc, alloc),
             [curvature_report(d[0], p, d[1]) for d, p in zip(draws, scalar_pcs)]),
            (user_utility_gradient(s, pc, alloc),
             [user_utility_gradient(d[0], p, d[1]) for d, p in zip(draws, scalar_pcs)]),
        ]
        for array_result, scalar_results in cases:
            assert_elementwise(array_result, scalar_results)


def disagreeing(rng, lo: float, hi: float, numpy_fn, libm_fn) -> list[float]:
    """Uniform draws in [lo, hi) on which numpy_fn and libm_fn differ on this machine (<= 100).

    Random inputs rarely hit them (log2 of 1 + q differs in about 1 of
    20,000 draws), so a step that bypassed libm could pass on random inputs alone.
    """
    x = rng.uniform(lo, hi, 200_000)
    return [v for v, y in zip(x.tolist(), numpy_fn(x).tolist()) if y != libm_fn(v)][:100]


@pytest.mark.parametrize("field, lo, hi, numpy_fn, libm_fn, mode", [
    ("q", 819_200.0, 4_096_000.0, lambda q: np.log2(1.0 + q), lambda q: math.log2(1.0 + q), "raw"),
    ("f_local", 1e8, 1e9, np.square, lambda f: f**2, "raw"),
    ("snr_uplink", 1.0, 40.0, lambda x: np.log2(1.0 + x), lambda x: math.log2(1.0 + x), "raw"),
    ("snr_downlink", 1.0, 40.0, lambda x: np.log2(1.0 + x), lambda x: math.log2(1.0 + x), "raw"),
    ("snr_uplink", 1.0, 40.0, lambda x: 10.0 ** (x / 10.0), lambda x: 10.0 ** (x / 10.0),
     "db-to-linear"),
])
def test_scenario_arrays_equal_the_scalar_calls_where_numpy_differs(field, lo, hi, numpy_fn,
                                                                     libm_fn, mode):
    base = default_scenario(channel=ChannelSpec(20.0, 30.0, mode))
    values = disagreeing(np.random.default_rng(5), lo, hi, numpy_fn, libm_fn)
    scenarios = [
        dataclasses.replace(base, channel=dataclasses.replace(base.channel, **{field: v}))
        if field.startswith("snr") else dataclasses.replace(base, **{field: v})
        for v in values
    ]
    if not scenarios:
        pytest.skip("numpy agrees with libm on every draw on this machine")
    s, alloc = stack(scenarios), Allocation(4.4e9, 6.6e5)
    pc = derive_coefficients(s, 3.5e9, 0.55e6)
    scalar_pcs = [derive_coefficients(sc, 3.5e9, 0.55e6) for sc in scenarios]
    assert_elementwise(pc, scalar_pcs)
    assert_elementwise(user_utility(s, alloc), [user_utility(sc, alloc) for sc in scenarios])
    assert_elementwise(server_utility(s, alloc), [server_utility(sc, alloc) for sc in scenarios])
    assert_elementwise(diagnostics(s, alloc), [diagnostics(sc, alloc) for sc in scenarios])
    assert_elementwise(curvature_report(s, pc, alloc),
                       [curvature_report(sc, p, alloc) for sc, p in zip(scenarios, scalar_pcs)])


def test_allocation_arrays_equal_the_scalar_calls():
    # numpy squares differ from libm pow here in a few rows of 10,000
    rng = np.random.default_rng(3)
    s = random_scenario(rng)
    target = random_allocation(rng, s)
    pc = derive_coefficients(s, target.f_server, target.b)
    f, b = rng.uniform(*s.f_range, 10_000), rng.uniform(*s.b_range, 10_000)
    points = [Allocation(fv, bv) for fv, bv in zip(f.tolist(), b.tolist())]
    alloc = Allocation(f, b)
    assert_elementwise(user_utility_gradient(s, pc, alloc),
                       [user_utility_gradient(s, pc, a) for a in points])
    assert_elementwise(curvature_report(s, pc, alloc), [curvature_report(s, pc, a) for a in points])
    assert_elementwise(derive_coefficients(s, f, b),
                       [derive_coefficients(s, a.f_server, a.b) for a in points])

