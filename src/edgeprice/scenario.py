"""Experiment configuration: parsing, validation, unit normalization.

Everything downstream works in one canonical unit system (bits, Hz, bit/s,
seconds, Joules, Watts). Conversions happen at this boundary and nowhere
else, which is why the config keys carry explicit unit suffixes (q_kb,
f_local_ghz, b_min_mbps, ...). One table, ``_NUMBER_KEYS``, says which
key, in which unit, sets each number field of a Scenario; a key's value
is a string where its default is one, and a float otherwise.
:func:`parse_setting` is the one reader of a ``key=value`` setting,
whether it is a scenario-file line or a CLI ``--set`` pair, and
:func:`default_purchase` converts the optional ``f_server_ghz``/``b_mbps``
purchase.

The numeric fields of a Scenario may also hold equal-shape numpy arrays:
every closed form of the model then evaluates one scenario per element.
Each transcendental step (log2, a power, a square root) goes through
:func:`libm`, and each division by a computed value through
:func:`quotient`, so an array result equals the scalar calls bit for bit;
the channel's log2(1 + snr) pair is evaluated once per ChannelSpec, and
f_local^2 once per Scenario.
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


def quotient(n, d):
    """``n / d``, or numpy's quotient as a float where ``n`` and ``d`` are numbers and ``d`` is 0.

    Python raises ``ZeroDivisionError`` there, where an array divisor of 0
    gives inf, -inf or NaN, so the model divides by each computed value (a
    power, a coefficient, a link rate) through here, and a float call returns
    the bits of its one-element array call. numpy's ``RuntimeWarning`` fires
    under the caller's ``np.errstate``. An allocation coordinate is positive
    in every valid box, so a division by one stays ``/``.
    """
    try:
        return n / d
    except ZeroDivisionError:
        return float(np.divide(n, d))


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
    construction performs no checking. :func:`checked` is the one gate: it
    runs :func:`validate` once per instance and raises :class:`ScenarioError`,
    a ``ValueError``, naming each failing field. Every library entry that
    takes a Scenario calls it: :func:`load_scenario`, ``run_sweep``,
    ``surface_grid``, ``corner_allocation``, ``box_maximum_utility``,
    ``compare_optimizers``, and the search loop behind the four searchers
    and ``replicate``. The closed forms of ``pricing`` and ``offload`` stay
    unchecked.
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

    @cached_property
    def f_local_squared(self) -> float:
        """f_local^2, evaluated once: ``pricing.chi`` and the local energy both read it."""
        return libm(pow, self.f_local, 2)


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

#: Recognized but optional keys: a pinned purchase, see :func:`default_purchase`.
ALLOCATION_KEYS = ("f_server_ghz", "b_mbps")

#: Every key a setting may name: the scenario's, all with defaults, and the purchase's.
_KEYS = frozenset((*DEFAULT_CONFIG, *ALLOCATION_KEYS))

#: Each Scenario number field, in declaration order: the config key that sets it, and that
#: key's canonical units per config unit (x 1.0 is exact for every float).
_NUMBER_KEYS = {"q": ("q_kb", BITS_PER_KB), "c": ("c_cycles_per_bit", 1.0),
                "f_local": ("f_local_ghz", HZ_PER_GHZ), "k": ("k_coeff", 1.0), "p_u": ("p_u_w", 1.0),
                "p_d": ("p_d_w", 1.0), "alpha": ("alpha", 1.0), "w1": ("w1", 1.0), "w2": ("w2", 1.0),
                "mu": ("mu", 1.0)}
_NUMBER_FIELDS = tuple(_NUMBER_KEYS)


def parse_setting(text: str) -> tuple[str, float | str]:
    """Split and type one ``key=value`` setting.

    ``snr_mode`` stays a string, bare or quoted; every other value becomes
    a float. A missing ``=``, an unknown key or a non-numeric value raises
    :class:`ScenarioError` naming the key.
    """
    key, sep, value = text.partition("=")
    key, value = key.strip(), value.strip().strip("'\"")
    if not sep:
        raise ScenarioError(f"expected key=value, got {text!r}")
    if key not in _KEYS:
        raise ScenarioError(f"unknown key {key!r}")
    return key, _typed(key, value)


def _typed(key: str, value: object) -> float | str:
    """A known ``key``'s value as a setting holds it: a string where the key's default is one
    (``snr_mode``), otherwise a float, as for the purchase keys, which have no default.

    A value of another kind raises :class:`ScenarioError` naming the key.
    """
    if isinstance(DEFAULT_CONFIG.get(key), str):
        if isinstance(value, str):
            return value
        raise ScenarioError(f"non-string value {value!r} for key {key!r}")
    try:
        return float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        raise ScenarioError(f"non-numeric value {value!r} for key {key!r}") from None


def parse_config(text: str) -> dict[str, float | str]:
    """Parse the flat key=value configuration format.

    One :func:`parse_setting` per line, ``#`` starts a comment, blank lines
    are ignored (a TOML-compatible subset). Duplicate keys are errors, and
    every error names its line.
    """
    parsed: dict[str, float | str] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            key, value = parse_setting(line)
        except ScenarioError as exc:
            raise ScenarioError(f"line {lineno}: {exc}") from None
        if key in parsed:
            raise ScenarioError(f"line {lineno}: duplicate key {key!r}")
        parsed[key] = value
    return parsed


def scenario_from_config(config: Mapping[str, float | str]) -> Scenario:
    """Build a canonical-unit Scenario from a (complete) config mapping."""
    def num(key: str) -> float:
        return float(config[key])  # type: ignore[arg-type]

    return Scenario(
        **{name: num(key) * unit for name, (key, unit) in _NUMBER_KEYS.items()},
        channel=ChannelSpec(num("snr_uplink"), num("snr_downlink"), str(config["snr_mode"])),
        f_range=(num("f_min_ghz") * HZ_PER_GHZ, num("f_max_ghz") * HZ_PER_GHZ),
        b_range=(num("b_min_mbps") * BPS_PER_MBPS, num("b_max_mbps") * BPS_PER_MBPS),
    )


def load_scenario(*, overrides: Mapping[str, float | str] | None = None) -> Scenario:
    """Merge with defaults, convert to canonical units, and validate.

    Keys absent from ``overrides`` (config units, e.g. a :func:`parse_config`
    mapping) take the built-in defaults. Each value is typed as
    :func:`parse_setting` types it. Raises :class:`ScenarioError` on an
    unknown key, a value of the wrong type, or if the result violates any
    Scenario invariant.
    """
    typed = {}
    for key, value in (overrides or {}).items():
        if key not in _KEYS:
            raise ScenarioError(f"unknown override key {key!r}")
        typed[key] = _typed(key, value)
    return checked(scenario_from_config({**DEFAULT_CONFIG, **typed}))


def default_purchase(s: Scenario, config: Mapping[str, float | str]) -> tuple[float, float]:
    """The (f_server, b) purchase in Hz and bit/s: ``f_server_ghz`` and
    ``b_mbps`` of ``config`` where pinned, otherwise the (f_max, b_max) box corner.

    No check here: a sweep checks its allocation before using it.
    """
    f_server = float(config["f_server_ghz"]) * HZ_PER_GHZ if "f_server_ghz" in config else s.f_range[1]
    b = float(config["b_mbps"]) * BPS_PER_MBPS if "b_mbps" in config else s.b_range[1]
    return f_server, b


def default_scenario(**field_overrides: object) -> Scenario:
    """The built-in default Scenario, optionally with canonical-unit field overrides."""
    scenario = scenario_from_config(DEFAULT_CONFIG)
    if field_overrides:
        scenario = replace(scenario, **field_overrides)  # type: ignore[arg-type]
    return scenario


def scenario_numbers(s: Scenario) -> dict[str, float]:
    """Every number of ``s`` by name: the number fields, the two SNR figures and the box bounds."""
    numbers = {name: getattr(s, name) for name in _NUMBER_FIELDS}
    numbers.update(snr_uplink=s.channel.snr_uplink, snr_downlink=s.channel.snr_downlink)
    numbers.update(f_min=s.f_range[0], f_max=s.f_range[1], b_min=s.b_range[0], b_max=s.b_range[1])
    return numbers


def _every(ok) -> bool:
    """A check's outcome: a scalar field's as it is, an array field's over every element."""
    return ok.all() if type(ok) is _ndarray else ok


def kept(s: Scenario, key: str, make: Callable[[Scenario], object]):
    """``make(s)``, made once per instance and kept under ``key`` in its ``__dict__``.

    The one memo of what a Scenario derives: :func:`checked`'s report, ``pricing``'s
    factors, ``optimizers``' box per candidate count. It keeps a value as a ``cached_property``
    does: a hit is one dict lookup, and a ``dataclasses.replace`` copy makes its own.
    """
    try:
        return s.__dict__[key]
    except KeyError:
        return s.__dict__.setdefault(key, make(s))


def checked(s: Scenario) -> Scenario:
    """``s`` if it passes :func:`validate`, else :class:`ScenarioError` naming each failing field.

    The report is :func:`kept`: each instance is validated once, and an
    invalid one raises the same error on every call.
    """
    report = kept(s, "_validation_report", lambda s: validate(s))
    if report:
        raise ScenarioError("invalid scenario: " + "; ".join(report))
    return s


def validate(s: Scenario) -> list[str]:
    """Check every Scenario invariant; one report entry per violation.

    Returns an empty list iff the scenario is valid. Never raises. An
    array field fails a check, in one entry, if any element fails it.
    Non-finite numbers are reported alone, before the range checks.
    """
    report = [f"{name}={value!r}: must be finite" for name, value in scenario_numbers(s).items()
              if not _every(abs(value) < math.inf)]  # NaN compares false
    if report:
        return report
    for name, value in (("q", s.q), ("c", s.c), ("f_local", s.f_local), ("k", s.k)):
        if not _every(value > 0):
            report.append(f"{name}={value!r}: must be strictly positive")
    if not _every(s.alpha >= 0):
        report.append(f"alpha={s.alpha!r}: must be non-negative")
    if not _every((0 < s.mu) & (s.mu < 1)):
        report.append(f"mu={s.mu!r}: outside the open interval (0, 1)")
    if not _every(s.w1 > 0):
        report.append(f"w1={s.w1!r}: must be strictly positive")
    if not _every(s.w2 > 0):
        report.append(f"w2={s.w2!r}: must be strictly positive")
    elif not _every(s.w2 < 1):
        report.append(f"w2={s.w2!r}: w2 < 1 required for ES trend")
    if not _every(s.channel.snr_uplink > 0):
        report.append(f"snr_uplink={s.channel.snr_uplink!r}: must be strictly positive")
    if not _every(s.channel.snr_downlink > 0):
        report.append(f"snr_downlink={s.channel.snr_downlink!r}: must be strictly positive")
    if s.channel.snr_mode not in SNR_MODES:
        report.append(f"snr_mode={s.channel.snr_mode!r}: expected one of {SNR_MODES}")
    else:
        figures = (s.channel.snr_uplink, s.channel.snr_downlink)
        snrs = s.channel.effective_snrs()  # the log2(1 + snr) pair is a domain error for snr <= -1
        efficiencies = s.channel.spectral_efficiencies if all(_every(x > 0) for x in snrs) else (None, None)
        for name, value, snr, eff in zip(("snr_uplink", "snr_downlink"), figures, snrs, efficiencies):
            if not _every(snr < math.inf):
                report.append(f"{name}={value!r} dB: 10^(x/10) is not finite")
            elif not _every(eff != 0):  # 1 + snr rounds to 1: a zero rate
                report.append(f"{name}={value!r}: log2(1 + snr) is 0, so the link carries nothing")
    for name, (lo, hi) in (("f_range", s.f_range), ("b_range", s.b_range)):
        if not _every((0 < lo) & (lo < hi)):
            report.append(f"{name}={lo!r}..{hi!r}: bounds must satisfy 0 < min < max")
    return report
