"""Pricing models, user/server utilities, and their calculus.

Two pricing modes exist. Linear pricing charges a*f_server + b_coef*b and
is the setting in which the utility has an interior critical point (the
gradient/Hessian operations below). Dynamic pricing substitutes the
critical-point relation back into the price, making the price a decreasing
function of the purchased resources; it is the default objective for
sweeps and optimization, and the one ``user_utility`` prices.

The per-bit factors:

  chi     -- value of avoiding one bit of local execution (discounted
             energy plus discounted time),
  upsilon -- transfer burden per bit per unit of inverse bandwidth
             (discounted transfer time and energy, both link directions).

In both modes the user utility is q*chi - q*w2*c/f_server - q*upsilon/b
minus the price; the dynamic price is q*w2*c/f_server + q*upsilon/b. The
scenario factors q*chi, q*w2*c and q*upsilon are said once, in
``_scenario_factors``, and kept once per ``Scenario`` instance by
``scenario.kept``, as the channel's log2(1 + snr) pair and f_local^2 are;
the closed forms below do only the allocation arithmetic.
Every closed form here broadcasts: an ``Allocation`` or a ``Scenario``
whose numeric fields hold broadcastable numpy arrays is evaluated in one
call, one result per element. Arithmetic operators are IEEE-exact in
numpy as in Python; every log2, power and square root goes through
:func:`~edgeprice.scenario.libm`, the C library's function applied per
element, because numpy's own versions can differ from it in the last
bit. Each division by a computed value (a power of a purchase coordinate,
a price coefficient) goes through :func:`~edgeprice.scenario.quotient`:
where that divisor is 0, a float call returns inf, -inf or NaN, as the
one-element array call does, not ``ZeroDivisionError``. So array results
equal the scalar calls bit for bit; ``harness.surface_grid``,
``harness.run_sweep`` and the anchor suite's random draws work so. No
command prints such an inf or NaN: ``harness._require_finite`` refuses it
by name, and a search's ``_evaluate_population`` does. A division by a
purchase coordinate stays ``/``, because every valid box has a positive
lower bound, so a coordinate of 0 lies outside it.
"""
from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .offload import Allocation, EnergyBreakdown, TimeBreakdown, energy_from_times, time_breakdown
from .scenario import Scenario, f_local_squared, kept, libm, quotient, spectral_efficiencies


class PriceCoefficients(NamedTuple):
    """Linear price-plane slopes: a per Hz, b_coef per bit/s."""

    a: float
    b_coef: float


class UtilitySummary(NamedTuple):
    """Priced outcome of one allocation under dynamic pricing."""

    price: float
    u_user: float
    u_server: float
    w_revenue: float
    time: TimeBreakdown
    energy: EnergyBreakdown


class CurvatureReport(NamedTuple):
    """Hessian eigenvalues and critical point of the linear-priced utility."""

    lambda1: float
    lambda2: float
    negative_definite: bool
    critical_f: float
    critical_b: float


class QuadraticGapEstimate(NamedTuple):
    """Second-order prediction of the utility drop away from the maximum."""

    predicted_drop: float
    actual_drop: float


class Diagnostics(NamedTuple):
    """Small-magnitude factors explaining why price and server utility flatten."""

    b_part: float
    p_part: float
    u_affect: float


def chi(s: Scenario) -> float:
    """Per-bit value of avoided local execution: w1*k*c*f_local^2 + w2*c/f_local."""
    return s.w1 * s.k * s.c * f_local_squared(s) + s.w2 * s.c / s.f_local


def upsilon(s: Scenario) -> float:
    """Per-bit transfer burden factor (multiplied by q/b in the utility)."""
    eff_up, eff_down = spectral_efficiencies(s)
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
    """(q*chi, q*w2*c, q*upsilon), made once per instance: see :func:`~edgeprice.scenario.kept`."""
    return kept(s, "_scenario_factors", lambda s: (s.q * chi(s), s.q * s.w2 * s.c, s.q * upsilon(s)))


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


def user_utility(s: Scenario, alloc: Allocation) -> UtilitySummary:
    """Full outcome of an allocation under dynamic pricing.

    The server utility is price - t_offload + data revenue.
    """
    times = time_breakdown(s, alloc)
    price = dynamic_price(s, alloc)
    revenue = data_revenue(s)
    return UtilitySummary(
        price=price,
        u_user=dynamic_user_utility_value(s, alloc),
        u_server=price - times.t_offload + revenue,
        w_revenue=revenue,
        time=times,
        energy=energy_from_times(s, times),
    )


def user_utility_gradient(
    s: Scenario, pc: PriceCoefficients, alloc: Allocation
) -> tuple[float, float]:
    """First partials of the linear-priced user utility w.r.t. (f_server, b): the coefficients whose
    critical point is ``alloc``, less the coefficients ``pc`` charged."""
    slope = derive_coefficients(s, alloc.f_server, alloc.b)
    return slope.a - pc.a, slope.b_coef - pc.b_coef


def critical_point(s: Scenario, pc: PriceCoefficients) -> Allocation:
    """Stationary point of the linear-priced utility: (sqrt(q*w2*c/a), sqrt(q*upsilon/b_coef))."""
    _, q_w2c, q_ups = _scenario_factors(s)
    return Allocation(libm(math.sqrt, quotient(q_w2c, pc.a)), libm(math.sqrt, quotient(q_ups, pc.b_coef)))


def curvature_report(s: Scenario, pc: PriceCoefficients, alloc: Allocation) -> CurvatureReport:
    """The Hessian's eigenvalues at ``alloc``, and the critical point.

    The mixed partials vanish identically, so the eigenvalues are the
    diagonal entries and negative definiteness reduces to both being
    negative, which holds for every valid input.
    """
    _, q_w2c, q_ups = _scenario_factors(s)
    lambda1 = quotient(-2.0 * q_w2c, libm(pow, alloc.f_server, 3))
    lambda2 = quotient(-2.0 * q_ups, libm(pow, alloc.b, 3))
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
    return PriceCoefficients(quotient(q_w2c, libm(pow, f_target, 2)), quotient(q_ups, libm(pow, b_target, 2)))


def quadratic_gap(
    s: Scenario, pc: PriceCoefficients, displacement: tuple[float, float]
) -> QuadraticGapEstimate:
    """Second-order Taylor drop versus the actual drop away from the maximum.

    The Hessian is diagonal, so the eigen-directions are the coordinate
    axes and the displacement coefficients (c1, c2) displace f_server and b
    directly. The utility divides by both coordinates of the critical and
    the displaced point, so both must stay strictly positive: a critical
    coordinate is 0 where a coefficient is inf or a factor is 0.
    """
    c1, c2 = displacement
    crit = critical_point(s, pc)
    displaced = Allocation(f_server=crit.f_server + c1, b=crit.b + c2)
    for what, point in (("critical point", crit), ("displaced point", displaced)):
        if np.any(point.f_server <= 0.0) or np.any(point.b <= 0.0):
            raise ValueError(f"{what} ({point.f_server}, {point.b}) leaves the positive domain")
    report = curvature_report(s, pc, crit)
    predicted = 0.5 * (abs(report.lambda1) * libm(pow, c1, 2) + abs(report.lambda2) * libm(pow, c2, 2))
    u_max = linear_user_utility_value(s, pc, crit)
    actual = u_max - linear_user_utility_value(s, pc, displaced)
    return QuadraticGapEstimate(predicted_drop=predicted, actual_drop=actual)


def _bandwidth_server_factor(s: Scenario) -> float:
    """Numerator of the bandwidth-dependent server-utility term (small, negative)."""
    eff_up, eff_down = spectral_efficiencies(s)
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


def diagnostics(s: Scenario, alloc: Allocation) -> Diagnostics:
    """Factors behind the flat price/server-utility trends.

    b_part is the bandwidth-related numerator of the server utility; p_part
    the dynamic price per bit at the given allocation; u_affect the
    q-dependent part of the server utility, -t_offload + data revenue.
    """
    return Diagnostics(
        b_part=_bandwidth_server_factor(s),
        p_part=dynamic_price(s, alloc) / s.q,
        u_affect=-time_breakdown(s, alloc).t_offload + data_revenue(s),
    )


def coupling_ratio(s: Scenario) -> float:
    """Exact ratio of user-utility to server-utility change on any f_server step.

    Under dynamic pricing at fixed q and b the ratio is 2*w2/(1-w2),
    independent of which step is taken.
    """
    if not np.all((0.0 < s.w2) & (s.w2 < 1.0)):
        raise ValueError(f"coupling ratio needs w2 in (0, 1), got {s.w2!r}")
    return 2.0 * s.w2 / (1.0 - s.w2)
