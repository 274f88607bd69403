"""Latency and energy accounting for local versus offloaded execution.

All operations are pure functions of immutable inputs. The composition
fields (t_offload, t_save, e_save) are built from the part fields, so the
additivity identities hold bit-exactly by construction. The allocation
and the scenario fields enter only through arithmetic operators and
:func:`~edgeprice.scenario.libm`, so an ``Allocation`` or a ``Scenario``
holding broadcastable numpy arrays yields breakdowns of arrays, element
for element equal to the scalar results.
"""
from __future__ import annotations

from dataclasses import dataclass

from .scenario import Scenario, libm


@dataclass(frozen=True)
class Allocation:
    """A candidate resource purchase: CPU frequency (Hz) and bandwidth (bit/s)."""

    f_server: float
    b: float


@dataclass(frozen=True)
class TimeBreakdown:
    t_local: float     # local execution time, s
    r_u: float         # uplink rate, bit/s
    r_d: float         # downlink rate, bit/s
    t_u: float         # upload time, s
    t_p: float         # remote processing time, s
    t_d: float         # download time, s
    t_offload: float   # t_u + t_p + t_d
    t_save: float      # t_local - t_offload


@dataclass(frozen=True)
class EnergyBreakdown:
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
    t_u = s.q / r_u
    t_p = s.q * s.c / alloc.f_server
    t_d = s.alpha * s.q / r_d
    t_offload = t_u + t_p + t_d
    t_local = local_exec_time(s)
    return TimeBreakdown(
        t_local=t_local,
        r_u=r_u,
        r_d=r_d,
        t_u=t_u,
        t_p=t_p,
        t_d=t_d,
        t_offload=t_offload,
        t_save=t_local - t_offload,
    )


def energy_breakdown(s: Scenario, alloc: Allocation) -> EnergyBreakdown:
    return energy_from_times(s, time_breakdown(s, alloc))


def energy_from_times(s: Scenario, times: TimeBreakdown) -> EnergyBreakdown:
    """Energy accounting of an allocation whose time breakdown is already known."""
    e_local = s.k * (s.q * s.c) * libm(pow, s.f_local, 2)
    e_up = s.p_u * times.t_u
    e_d = s.p_d * times.t_d
    return EnergyBreakdown(e_local=e_local, e_up=e_up, e_d=e_d, e_save=e_local - e_up - e_d)
