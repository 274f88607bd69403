"""Latency and energy accounting for local versus offloaded execution.

All operations are pure functions of immutable inputs. The composition
fields (t_offload, t_save, e_save) are built from the part fields, so the
additivity identities hold bit-exactly by construction. The allocation
and the scenario fields enter only through arithmetic operators and
:func:`~edgeprice.scenario.libm`, so an ``Allocation`` or a ``Scenario``
holding broadcastable numpy arrays yields breakdowns of arrays, element
for element equal to the scalar results. The upload and download times
divide by a link rate through :func:`~edgeprice.scenario.quotient`: a rate
that underflows to 0 gives an infinite time on floats as on arrays, which
``harness._require_finite`` and a search's ``_evaluate_population`` refuse
by name.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .scenario import Scenario, quotient


@dataclass(frozen=True)
class Allocation:
    """A candidate resource purchase: CPU frequency (Hz) and bandwidth (bit/s)."""

    f_server: float
    b: float


class TimeBreakdown(NamedTuple):
    t_local: float     # local execution time, s
    t_u: float         # upload time, s
    t_p: float         # remote processing time, s
    t_d: float         # download time, s
    t_offload: float   # t_u + t_p + t_d
    t_save: float      # t_local - t_offload


class EnergyBreakdown(NamedTuple):
    e_local: float     # local compute energy, J
    e_up: float        # upload energy, J
    e_d: float         # download energy, J
    e_save: float      # e_local - e_up - e_d (may be negative)


def link_rates(s: Scenario, b: float) -> tuple[float, float]:
    """Shannon-style uplink/downlink rates for a purchased bandwidth b (bit/s)."""
    eff_up, eff_down = s.channel.spectral_efficiencies
    return b * eff_up, b * eff_down


def local_exec_time(s: Scenario) -> float:
    """Seconds to process the whole workload on the local CPU: q*c/f_local."""
    return s.q * s.c / s.f_local


def time_breakdown(s: Scenario, alloc: Allocation) -> TimeBreakdown:
    r_u, r_d = link_rates(s, alloc.b)
    t_u = quotient(s.q, r_u)
    t_p = s.q * s.c / alloc.f_server
    t_d = quotient(s.alpha * s.q, r_d)
    t_offload = t_u + t_p + t_d
    t_local = local_exec_time(s)
    return TimeBreakdown(
        t_local=t_local,
        t_u=t_u,
        t_p=t_p,
        t_d=t_d,
        t_offload=t_offload,
        t_save=t_local - t_offload,
    )


def energy_from_times(s: Scenario, times: TimeBreakdown) -> EnergyBreakdown:
    """Energy accounting of an allocation whose time breakdown is already known."""
    e_local = s.k * (s.q * s.c) * s.f_local_squared
    e_up = s.p_u * times.t_u
    e_d = s.p_d * times.t_d
    return EnergyBreakdown(e_local=e_local, e_up=e_up, e_d=e_d, e_save=e_local - e_up - e_d)
