"""Pricing models, user/server utilities, and their calculus.

Two pricing modes exist. Linear pricing charges a*f_server + b_coef*b and
is the setting in which the utility has an interior critical point (the
gradient/Hessian operations below). Dynamic pricing substitutes the
critical-point relation back into the price, making the price a decreasing
function of the purchased resources; it is the default objective for
sweeps and optimization.

The per-bit factors:

  chi     -- value of avoiding one bit of local execution (discounted
             energy plus discounted time),
  upsilon -- transfer burden per bit per unit of inverse bandwidth
             (discounted transfer time and energy, both link directions).

In both modes the user utility is q*chi - q*w2*c/f_server - q*upsilon/b
minus the price; the dynamic price is q*w2*c/f_server + q*upsilon/b. The
scenario factors q*chi, q*w2*c and q*upsilon are said once, in
``_scenario_factors``, and evaluated once per ``Scenario`` instance, as
the channel's log2(1 + snr) pair is once per ``ChannelSpec``; the
closed forms below then do only the allocation arithmetic.
Every closed form here broadcasts: an ``Allocation`` or a ``Scenario``
whose numeric fields hold broadcastable numpy arrays is evaluated in one
call, one result per element. Arithmetic operators are IEEE-exact in
numpy as in Python; every log2, power and square root goes through
:func:`~edgeprice.scenario.libm`, the C library's function applied per
element, because numpy's own versions can differ from it in the last
bit. So array results equal the scalar calls bit for bit;
``harness.surface_grid``, ``harness.run_sweep`` and the anchor suite's
random draws work so.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .offload import Allocation, EnergyBreakdown, TimeBreakdown, energy_from_times, time_breakdown
from .scenario import Scenario, libm


@dataclass(frozen=True)
class PriceCoefficients:
    """Linear price-plane slopes: a per Hz, b_coef per bit/s."""

    a: float
    b_coef: float


@dataclass(frozen=True)
class UtilitySummary:
    """Priced outcome of one allocation under one pricing mode."""

    price: float
    u_user: float
    u_server: float
    w_revenue: float
    time: TimeBreakdown
    energy: EnergyBreakdown


@dataclass(frozen=True)
class CurvatureReport:
    """Hessian eigenvalues and critical point of the linear-priced utility."""

    lambda1: float
    lambda2: float
    negative_definite: bool
    critical_f: float
    critical_b: float


@dataclass(frozen=True)
class QuadraticGapEstimate:
    """Second-order prediction of the utility drop away from the maximum."""

    predicted_drop: float
    actual_drop: float


@dataclass(frozen=True)
class Diagnostics:
    """Small-magnitude factors explaining why price and server utility flatten."""

    b_part: float
    p_part: float
    u_affect: tuple[float, ...]


def chi(s: Scenario) -> float:
    """Per-bit value of avoided local execution: w1*k*c*f_local^2 + w2*c/f_local."""
    return s.w1 * s.k * s.c * s.f_local_squared + s.w2 * s.c / s.f_local


def upsilon(s: Scenario) -> float:
    """Per-bit transfer burden factor (multiplied by q/b in the utility)."""
    eff_up, eff_down = s.channel.spectral_efficiencies
    up = (s.w1 * s.p_u + s.w2) / eff_up
    down = (s.w1 * s.p_d * s.alpha + s.w2 * s.alpha) / eff_down
    return up + down


def linear_price(pc: PriceCoefficients, alloc: Allocation) -> float:
    return pc.a * alloc.f_server + pc.b_coef * alloc.b


def dynamic_price(s: Scenario, alloc: Allocation) -> float:
    """Price under dynamic pricing: q*w2*c/f_server + q*upsilon/b."""
    _, q_w2c, q_ups = _scenario_factors(s)
    return q_w2c / alloc.f_server + q_ups / alloc.b


def data_revenue(s: Scenario) -> float:
    """Reward the server draws from the offloaded data: mu*log2(1+q), q in bits."""
    return s.mu * libm(math.log2, 1.0 + s.q)


def _scenario_factors(s: Scenario) -> tuple[float, float, float]:
    """(q*chi, q*w2*c, q*upsilon), kept in the instance's ``__dict__`` as a ``cached_property`` is.

    ``dataclasses.replace`` makes a new instance, which gets its own factors.
    """
    factors = s.__dict__.get("_scenario_factors")
    if factors is None:
        factors = s.__dict__["_scenario_factors"] = (s.q * chi(s), s.q * s.w2 * s.c, s.q * upsilon(s))
    return factors


def linear_user_utility_value(s: Scenario, pc: PriceCoefficients, alloc: Allocation) -> float:
    """User utility under linear pricing (closed form)."""
    q_chi, q_w2c, q_ups = _scenario_factors(s)
    return q_chi - q_w2c / alloc.f_server - q_ups / alloc.b - linear_price(pc, alloc)


def dynamic_user_utility_value(s: Scenario, alloc: Allocation) -> float:
    """User utility under dynamic pricing; equals ``dynamic_utility_objective(s)(alloc)``."""
    return dynamic_utility_objective(s)(alloc)


def dynamic_utility_objective(s: Scenario) -> Callable[[Allocation], float]:
    """The dynamic-mode user utility as an allocation -> value objective.

    The dynamic price equals the two allocation terms of the utility, so
    they count twice: the objective keeps 2*q*w2*c and 2*q*upsilon.
    """
    q_chi, q_w2c, q_ups = _scenario_factors(s)
    q_w2c, q_ups = 2.0 * q_w2c, 2.0 * q_ups

    def objective(alloc: Allocation) -> float:
        return q_chi - q_w2c / alloc.f_server - q_ups / alloc.b

    return objective


def user_utility(
    s: Scenario, alloc: Allocation, coefficients: PriceCoefficients | None = None
) -> UtilitySummary:
    """Full priced outcome of an allocation.

    ``coefficients=None`` selects dynamic pricing (the default objective);
    passing PriceCoefficients selects linear pricing. The server utility is
    always price - t_offload + data revenue.
    """
    times = time_breakdown(s, alloc)
    if coefficients is None:
        price = dynamic_price(s, alloc)
        u_user = dynamic_user_utility_value(s, alloc)
    else:
        price = linear_price(coefficients, alloc)
        u_user = linear_user_utility_value(s, coefficients, alloc)
    revenue = data_revenue(s)
    return UtilitySummary(
        price=price,
        u_user=u_user,
        u_server=price - times.t_offload + revenue,
        w_revenue=revenue,
        time=times,
        energy=energy_from_times(s, times),
    )


def user_utility_gradient(
    s: Scenario, pc: PriceCoefficients, alloc: Allocation
) -> tuple[float, float]:
    """First partials of the linear-priced user utility w.r.t. (f_server, b)."""
    _, q_w2c, q_ups = _scenario_factors(s)
    grad_f = q_w2c / libm(pow, alloc.f_server, 2) - pc.a
    grad_b = q_ups / libm(pow, alloc.b, 2) - pc.b_coef
    return grad_f, grad_b


def critical_point(s: Scenario, pc: PriceCoefficients) -> Allocation:
    """Stationary point of the linear-priced utility: (sqrt(q*w2*c/a), sqrt(q*upsilon/b_coef))."""
    _, q_w2c, q_ups = _scenario_factors(s)
    return Allocation(f_server=libm(math.sqrt, q_w2c / pc.a), b=libm(math.sqrt, q_ups / pc.b_coef))


def curvature_report(s: Scenario, pc: PriceCoefficients, alloc: Allocation) -> CurvatureReport:
    """The Hessian's eigenvalues at ``alloc``, and the critical point.

    The mixed partials vanish identically, so the eigenvalues are the
    diagonal entries and negative definiteness reduces to both being
    negative, which holds for every valid input.
    """
    _, q_w2c, q_ups = _scenario_factors(s)
    lambda1 = -2.0 * q_w2c / libm(pow, alloc.f_server, 3)
    lambda2 = -2.0 * q_ups / libm(pow, alloc.b, 3)
    crit = critical_point(s, pc)
    return CurvatureReport(
        lambda1=lambda1,
        lambda2=lambda2,
        negative_definite=(lambda1 < 0.0) & (lambda2 < 0.0),
        critical_f=crit.f_server,
        critical_b=crit.b,
    )


def derive_coefficients(s: Scenario, f_target: float, b_target: float) -> PriceCoefficients:
    """Price coefficients whose critical point lands on the given targets."""
    _, q_w2c, q_ups = _scenario_factors(s)
    return PriceCoefficients(a=q_w2c / libm(pow, f_target, 2), b_coef=q_ups / libm(pow, b_target, 2))


def quadratic_gap(
    s: Scenario, pc: PriceCoefficients, displacement: tuple[float, float]
) -> QuadraticGapEstimate:
    """Second-order Taylor drop versus the actual drop away from the maximum.

    The Hessian is diagonal, so the eigen-directions are the coordinate
    axes and the displacement coefficients (c1, c2) displace f_server and b
    directly. The displaced point must stay strictly positive.
    """
    c1, c2 = displacement
    crit = critical_point(s, pc)
    displaced = Allocation(f_server=crit.f_server + c1, b=crit.b + c2)
    if displaced.f_server <= 0.0 or displaced.b <= 0.0:
        raise ValueError(
            f"displaced point ({displaced.f_server}, {displaced.b}) leaves the positive domain"
        )
    report = curvature_report(s, pc, crit)
    predicted = 0.5 * (abs(report.lambda1) * c1**2 + abs(report.lambda2) * c2**2)
    u_max = linear_user_utility_value(s, pc, crit)
    actual = u_max - linear_user_utility_value(s, pc, displaced)
    return QuadraticGapEstimate(predicted_drop=predicted, actual_drop=actual)


def _bandwidth_server_factor(s: Scenario) -> float:
    """Numerator of the bandwidth-dependent server-utility term (small, negative)."""
    eff_up, eff_down = s.channel.spectral_efficiencies
    return (s.w1 * s.p_u + s.w2 - 1.0) / eff_up + (
        s.w1 * s.p_d * s.alpha + s.w2 * s.alpha - s.alpha
    ) / eff_down


def server_utility(s: Scenario, alloc: Allocation) -> float:
    """Server utility under dynamic pricing (closed form).

    Equals dynamic_price - t_offload + data_revenue; both paths agree to
    floating-point accuracy and the tests pin that equivalence.
    """
    return (
        s.c * s.q * (s.w2 - 1.0) / alloc.f_server
        + (s.q / alloc.b) * _bandwidth_server_factor(s)
        + data_revenue(s)
    )


def diagnostics(
    s: Scenario, alloc: Allocation, q_grid: Sequence[float] | None = None
) -> Diagnostics:
    """Factors behind the flat price/server-utility trends.

    b_part is the bandwidth-related numerator of the server utility; p_part
    the dynamic price per bit at the given allocation; u_affect the
    q-dependent part of the server utility (-t_offload + data revenue),
    evaluated on ``q_grid`` (default: the scenario's own q) in one call.
    """
    b_part = _bandwidth_server_factor(s)
    p_part = dynamic_price(s, alloc) / s.q

    at_q = replace(s, q=np.array(q_grid if q_grid is not None else (s.q,), dtype=float))
    u_affect = -time_breakdown(at_q, alloc).t_offload + data_revenue(at_q)
    return Diagnostics(b_part=b_part, p_part=p_part, u_affect=tuple(u_affect.tolist()))


def coupling_ratio(s: Scenario) -> float:
    """Exact ratio of user-utility to server-utility change on any f_server step.

    Under dynamic pricing at fixed q and b the ratio is 2*w2/(1-w2),
    independent of which step is taken.
    """
    if not 0.0 < s.w2 < 1.0:
        raise ValueError(f"coupling ratio needs w2 in (0, 1), got {s.w2!r}")
    return 2.0 * s.w2 / (1.0 - s.w2)
