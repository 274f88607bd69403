"""Experiment configuration: parsing, validation, unit normalization.

Everything downstream works in one canonical unit system (bits, Hz, bit/s,
seconds, Joules, Watts). Conversions happen at this boundary and nowhere
else, which is why the config keys carry explicit unit suffixes (q_kb,
f_local_ghz, b_min_mbps, ...).

The numeric fields of a Scenario may also hold equal-shape numpy arrays:
every closed form of the model then evaluates one scenario per element.
Each transcendental step (log2, a power, a square root) goes through
:func:`libm`, so an array result equals the scalar calls bit for bit;
the channel's log2(1 + snr) pair is evaluated once per ChannelSpec.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, partial
from typing import Callable, Mapping

import numpy as np

BITS_PER_KB = 8 * 1024  # KB = 1024 bytes, byte = 8 bits
HZ_PER_GHZ = 1e9
BPS_PER_MBPS = 1e6

SNR_MODES = ("raw", "db-to-linear")


def kb_to_bits(kb: float) -> float:
    return kb * BITS_PER_KB


def bits_to_kb(bits: float) -> float:
    return bits / BITS_PER_KB


def ghz_to_hz(ghz: float) -> float:
    return ghz * HZ_PER_GHZ


def hz_to_ghz(hz: float) -> float:
    return hz / HZ_PER_GHZ


def mbps_to_bps(mbps: float) -> float:
    return mbps * BPS_PER_MBPS


def bps_to_mbps(bps: float) -> float:
    return bps / BPS_PER_MBPS


_ndarray = np.ndarray  # bound once: the scalar path of libm is one type test


def libm(fn: Callable[..., float], x, y=None):
    """``fn(x)``, or ``fn(x, y)``: called once for a scalar ``x``, once per element of an array.

    numpy's own log2 and powers can differ from the C library in the last
    bit, so the model routes every transcendental step through here with a
    math-module or builtin ``fn``, and array results equal the scalar calls
    bit for bit. A result too large for a float is ``inf``, as a float
    product gives it, not Python's ``OverflowError``.
    """
    if type(x) is not _ndarray:
        try:
            return fn(x) if y is None else fn(x, y)
        except OverflowError:
            return math.inf
    values = x.ravel().tolist()
    try:
        out = [fn(v) for v in values] if y is None else [fn(v, y) for v in values]
    except OverflowError:
        out = [libm(fn, v, y) for v in values]
    return np.array(out, dtype=float).reshape(x.shape)


#: 10**x through the C library's pow, for :func:`libm`.
exp10 = partial(pow, 10.0)


class ScenarioError(ValueError):
    """Raised when a configuration cannot be parsed or fails validation."""


@dataclass(frozen=True)
class ChannelSpec:
    """Uplink/downlink signal-to-noise figures plus their interpretation.

    In "raw" mode the configured figure is used directly inside
    log2(1 + snr); in "db-to-linear" mode it is first converted via
    10^(figure/10), which is ``inf`` for a figure too large for a float.
    """

    snr_uplink: float
    snr_downlink: float
    snr_mode: str = "raw"

    def effective_snrs(self) -> tuple[float, float]:
        """Effective (uplink, downlink) SNR values entering the rate formulas."""
        if self.snr_mode == "db-to-linear":
            return libm(exp10, self.snr_uplink / 10.0), libm(exp10, self.snr_downlink / 10.0)
        return self.snr_uplink, self.snr_downlink

    @cached_property
    def spectral_efficiencies(self) -> tuple[float, float]:
        """(uplink, downlink) log2(1 + snr), bit/s per Hz; evaluated once, a domain error for snr <= -1."""
        snr_up, snr_down = self.effective_snrs()
        return libm(math.log2, 1.0 + snr_up), libm(math.log2, 1.0 + snr_down)


@dataclass(frozen=True)
class Scenario:
    """One end-user / edge-server pair in canonical units.

    Instances are immutable and safe for concurrent read-only use. Direct
    construction performs no checking; use :func:`validate` or go through
    :func:`load_scenario`, which rejects invalid configurations.
    """

    q: float                      # offload amount, bits
    c: float                      # cycles per bit
    f_local: float                # local CPU frequency, Hz
    k: float                      # switched-capacitance coefficient, W*s^3/cycles^3
    p_u: float                    # upload power, W
    p_d: float                    # download power, W
    alpha: float                  # download/upload data ratio
    w1: float                     # energy-saving discount factor
    w2: float                     # time-saving discount factor
    mu: float                     # data-revenue reward index, in (0, 1)
    channel: ChannelSpec
    f_range: tuple[float, float]  # purchasable CPU frequency box, Hz
    b_range: tuple[float, float]  # purchasable bandwidth box, bit/s


#: Default configuration (key=value form, pre-conversion units).
DEFAULT_CONFIG: dict[str, float | str] = {
    "q_kb": 500.0,
    "c_cycles_per_bit": 2640.0,
    "f_local_ghz": 0.1,
    "k_coeff": 1e-27,
    "p_u_w": 0.1,
    "p_d_w": 1.0,
    "alpha": 0.2,
    "w1": 0.5,
    "w2": 0.5,
    "mu": 0.8,
    "snr_uplink": 20.0,
    "snr_downlink": 30.0,
    "snr_mode": "raw",
    "f_min_ghz": 1.0,
    "f_max_ghz": 6.0,
    "b_min_mbps": 0.1,
    "b_max_mbps": 1.0,
}

REQUIRED_KEYS = tuple(DEFAULT_CONFIG)

#: Recognized but optional keys: a default purchase used by the CLI when the
#: caller does not pin one on the command line.
ALLOCATION_KEYS = ("f_server_ghz", "b_mbps")

_STRING_KEYS = ("snr_mode",)

_NUMBER_FIELDS = ("q", "c", "f_local", "k", "p_u", "p_d", "alpha", "w1", "w2", "mu")


def parse_config(text: str) -> dict[str, float | str]:
    """Parse the flat key=value configuration format.

    One key per line, ``#`` starts a comment, blank lines are ignored.
    String values may be bare or quoted (a TOML-compatible subset).
    Unknown and duplicate keys are errors.
    """
    parsed: dict[str, float | str] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioError(f"line {lineno}: expected key=value, got {raw_line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip().strip("'\"")
        if key not in REQUIRED_KEYS and key not in ALLOCATION_KEYS:
            raise ScenarioError(f"line {lineno}: unknown key {key!r}")
        if key in parsed:
            raise ScenarioError(f"line {lineno}: duplicate key {key!r}")
        if key in _STRING_KEYS:
            parsed[key] = value
        else:
            try:
                parsed[key] = float(value)
            except ValueError:
                raise ScenarioError(
                    f"line {lineno}: non-numeric value {value!r} for key {key!r}"
                ) from None
    return parsed


def scenario_from_config(config: Mapping[str, float | str]) -> Scenario:
    """Build a canonical-unit Scenario from a (complete) config mapping."""
    def num(key: str) -> float:
        return float(config[key])  # type: ignore[arg-type]

    channel = ChannelSpec(
        snr_uplink=num("snr_uplink"),
        snr_downlink=num("snr_downlink"),
        snr_mode=str(config["snr_mode"]),
    )
    return Scenario(
        q=kb_to_bits(num("q_kb")),
        c=num("c_cycles_per_bit"),
        f_local=ghz_to_hz(num("f_local_ghz")),
        k=num("k_coeff"),
        p_u=num("p_u_w"),
        p_d=num("p_d_w"),
        alpha=num("alpha"),
        w1=num("w1"),
        w2=num("w2"),
        mu=num("mu"),
        channel=channel,
        f_range=(ghz_to_hz(num("f_min_ghz")), ghz_to_hz(num("f_max_ghz"))),
        b_range=(mbps_to_bps(num("b_min_mbps")), mbps_to_bps(num("b_max_mbps"))),
    )


def load_scenario(
    config_text: str | None = None,
    *,
    overrides: Mapping[str, float | str] | None = None,
    strict: bool = False,
) -> Scenario:
    """Load, merge with defaults, convert to canonical units, and validate.

    Keys absent from the document take the built-in defaults; with
    ``strict=True`` every required key must appear in the document itself.
    ``overrides`` (already in config units) are applied last. Raises
    :class:`ScenarioError` if the result violates any Scenario invariant.
    """
    parsed = parse_config(config_text) if config_text is not None else {}
    if strict:
        missing = [key for key in REQUIRED_KEYS if key not in parsed]
        if missing:
            raise ScenarioError("missing required key(s): " + ", ".join(missing))
    merged = dict(DEFAULT_CONFIG)
    merged.update(parsed)
    if overrides:
        for key in overrides:
            if key not in REQUIRED_KEYS and key not in ALLOCATION_KEYS:
                raise ScenarioError(f"unknown override key {key!r}")
        merged.update(overrides)

    scenario = scenario_from_config(merged)
    report = validate(scenario)
    if report:
        raise ScenarioError("invalid scenario: " + "; ".join(report))
    return scenario


def default_scenario(**field_overrides: object) -> Scenario:
    """The built-in default Scenario, optionally with canonical-unit field overrides."""
    scenario = scenario_from_config(DEFAULT_CONFIG)
    if field_overrides:
        scenario = replace(scenario, **field_overrides)  # type: ignore[arg-type]
    return scenario


def validate(s: Scenario) -> list[str]:
    """Check every Scenario invariant; one report entry per violation.

    Returns an empty list iff the scenario is valid. Never raises.
    Non-finite numbers are reported alone, before the range checks.
    """
    numbers = {name: getattr(s, name) for name in _NUMBER_FIELDS}
    numbers.update(snr_uplink=s.channel.snr_uplink, snr_downlink=s.channel.snr_downlink)
    numbers.update(f_min=s.f_range[0], f_max=s.f_range[1], b_min=s.b_range[0], b_max=s.b_range[1])
    report = [f"{name}={value!r}: must be finite" for name, value in numbers.items()
              if not math.isfinite(value)]
    if report:
        return report
    for name, value in (("q", s.q), ("c", s.c), ("f_local", s.f_local), ("k", s.k)):
        if not value > 0:
            report.append(f"{name}={value!r}: must be strictly positive")
    if not s.alpha >= 0:
        report.append(f"alpha={s.alpha!r}: must be non-negative")
    if not 0 < s.mu < 1:
        report.append(f"mu={s.mu!r}: outside the open interval (0, 1)")
    if not s.w1 > 0:
        report.append(f"w1={s.w1!r}: must be strictly positive")
    if not s.w2 > 0:
        report.append(f"w2={s.w2!r}: must be strictly positive")
    elif not s.w2 < 1:
        report.append(f"w2={s.w2!r}: w2 < 1 required for ES trend")
    if not s.channel.snr_uplink > 0:
        report.append(f"snr_uplink={s.channel.snr_uplink!r}: must be strictly positive")
    if not s.channel.snr_downlink > 0:
        report.append(f"snr_downlink={s.channel.snr_downlink!r}: must be strictly positive")
    if s.channel.snr_mode not in SNR_MODES:
        report.append(f"snr_mode={s.channel.snr_mode!r}: expected one of {SNR_MODES}")
    else:
        figures = (s.channel.snr_uplink, s.channel.snr_downlink)
        snrs = s.channel.effective_snrs()  # the log2(1 + snr) pair is a domain error for snr <= -1
        efficiencies = s.channel.spectral_efficiencies if min(snrs) > 0 else (None, None)
        for name, value, snr, eff in zip(("snr_uplink", "snr_downlink"), figures, snrs, efficiencies):
            if snr == math.inf:
                report.append(f"{name}={value!r} dB: 10^(x/10) is not finite")
            elif eff == 0:  # 1 + snr rounds to 1: a zero rate
                report.append(f"{name}={value!r}: log2(1 + snr) is 0, so the link carries nothing")
    for name, (lo, hi) in (("f_range", s.f_range), ("b_range", s.b_range)):
        if not (0 < lo < hi):
            report.append(f"{name}={lo!r}..{hi!r}: bounds must satisfy 0 < min < max")
    return report
