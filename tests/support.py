"""Shared test helpers: random valid allocations, wide scenario draws, array scenarios, result
leaves and conditioned comparisons."""
from __future__ import annotations

import dataclasses

import numpy as np

from edgeprice.offload import Allocation
from edgeprice.scenario import _NUMBER_FIELDS, _NUMBER_KEYS, ChannelSpec, Scenario


def random_allocation(rng: np.random.Generator, s: Scenario) -> Allocation:
    return Allocation(rng.uniform(*s.f_range), rng.uniform(*s.b_range))


def stack(scenarios: list[Scenario]) -> Scenario:
    """One array Scenario whose element i is ``scenarios[i]``; all share one SNR mode."""
    (mode,) = {s.channel.snr_mode for s in scenarios}
    links = [np.array([getattr(s.channel, name) for s in scenarios])
             for name in ("snr_uplink", "snr_downlink")]
    fields = {name: np.array([getattr(s, name) for s in scenarios]) for name in _NUMBER_FIELDS}
    return dataclasses.replace(scenarios[0], channel=ChannelSpec(*links, mode), **fields)


def leaves(result) -> list:
    """The numbers of a result (a dataclass, a tuple or a number), nested ones included."""
    if dataclasses.is_dataclass(result):
        result = dataclasses.astuple(result)
    if isinstance(result, tuple):
        return [leaf for part in result for leaf in leaves(part)]
    return [result]


def rel_gap(a: float, b: float, scale: float) -> float:
    """|a-b| relative to the larger of the values and the computation scale.

    The scale argument guards comparisons near zero crossings, where a bare
    |a-b|/|a| is dominated by cancellation rather than by real disagreement.
    """
    return abs(a - b) / max(abs(a), abs(b), abs(scale))


#: The keys validate() checks only for sign, with the canonical units per config unit: every
#: number field's but w2's and mu's, in field order.
_WIDE_KEYS = dict(unit for name, unit in _NUMBER_KEYS.items() if name not in ("w2", "mu"))
#: log10 bounds of an SNR figure validate() accepts, per mode: 1 + snr > 1, and 10^(x/10) finite.
_SNR_DECADES = {"raw": (-15.0, 300.0), "db-to-linear": (-300.0, 3.4)}


def wide_settings(rng: np.random.Generator) -> dict[str, float | str]:
    """A draw over what validate() accepts, as scenario settings in config units: log-uniform in
    canonical units, each positive number over 1e-300..1e300, w2 and mu over 1e-300..1, each box's
    bounds as two sorted such draws, and both SNR figures over ``_SNR_DECADES`` of either mode.
    Many overflow the model. The draw starts at 1e-300, so subnormal inputs, which validate()
    accepts, lie outside it, and no draw gives a link rate that underflows to 0: the tests named
    ``..._link_rate_that_underflows_to_zero...`` in ``test_harness.py`` and ``test_cli.py`` cover
    that case, and ``test_float_rule.py`` adds it, with boxes whose squares or cubes underflow, to
    these draws."""
    decades = rng.uniform(-300, 300, len(_WIDE_KEYS))
    values = {key: 10.0 ** x / unit for (key, unit), x in zip(_WIDE_KEYS.items(), decades)}
    values.update(zip(("w2", "mu"), 10.0 ** rng.uniform(-300, 0, 2)))
    for (low, high), unit in ((("f_min_ghz", "f_max_ghz"), 1e9), (("b_min_mbps", "b_max_mbps"), 1e6)):
        values.update(zip((low, high), 10.0 ** np.sort(rng.uniform(-300, 300, 2)) / unit))
    snr_mode = ("raw", "db-to-linear")[rng.integers(2)]
    values.update(zip(("snr_uplink", "snr_downlink"), 10.0 ** rng.uniform(*_SNR_DECADES[snr_mode], 2)))
    return {**{key: float(value) for key, value in values.items()}, "snr_mode": snr_mode}
