"""Experiment configuration: parsing, validation, unit normalization.

Everything downstream works in one canonical unit system (bits, Hz, bit/s,
seconds, Joules, Watts). Conversions happen at this boundary and nowhere
else, which is why the config keys carry explicit unit suffixes (q_kb,
f_local_ghz, b_min_mbps, ...). One table, ``_NUMBER_KEYS``, says which
key, in which unit, sets each number field of a Scenario, and
:func:`number_fields` is the one converter by it, of parsed, default and
drawn settings alike. A key's value is a string where its default is
one, a float otherwise. :func:`parse_setting` is the one reader of a
``key=value`` setting, a scenario-file line or a CLI ``--set`` pair, and
:func:`default_purchase` converts the optional purchase.

The number fields and SNR figures of a Scenario may also hold equal-shape
numpy arrays, its box bounds numbers only: every closed form of the model
then evaluates one scenario per element.
Each transcendental step (log2, a power, a square root) goes through
:func:`libm`, and each division by a computed value through
:func:`quotient`, so an array result equals the scalar calls bit for bit.
:func:`kept` is the one memo of what a Scenario derives, the channel's
log2(1 + snr) pair and f_local^2 among it; ``_spectral_efficiency`` says
a link's log2(1 + snr) once, for that pair and for :func:`validate`.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from functools import partial
from typing import Any, Callable, Mapping

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
    """Uplink/downlink signal-to-noise figures plus their interpretation: data only.

    In "raw" mode the configured figure is the snr inside log2(1 + snr); in
    "db-to-linear" mode the snr is 10^(figure/10), which is ``inf`` for a
    figure too large for a float. :func:`spectral_efficiencies` reads the pair.
    """

    snr_uplink: float
    snr_downlink: float
    snr_mode: str = "raw"


@dataclass(frozen=True)
class Scenario:
    """One end-user / edge-server pair in canonical units.

    Instances are immutable and safe for concurrent read-only use. The number
    fields and SNR figures may hold arrays, one scenario per element; the box
    bounds are numbers. Direct construction performs no checking.
    :func:`checked` is the one gate: it runs :func:`validate` once per instance
    and raises :class:`ScenarioError`, a ``ValueError``, naming each failing field. Every library entry that
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


def number_fields(settings: Mapping[str, Any]) -> dict[str, Any]:
    """``{field: settings[key] * unit}`` for each ``_NUMBER_KEYS`` key of ``settings``: numbers or arrays."""
    return {name: settings[key] * unit for name, (key, unit) in _NUMBER_KEYS.items() if key in settings}


def scenario_from_config(config: Mapping[str, Any]) -> Scenario:
    """The canonical-unit Scenario of complete typed settings: the package's one ``Scenario(...)``
    call. A number setting or SNR figure may be an array, the arrays of one shape."""
    return Scenario(**number_fields(config),
                    channel=ChannelSpec(config["snr_uplink"], config["snr_downlink"], config["snr_mode"]),
                    f_range=(config["f_min_ghz"] * HZ_PER_GHZ, config["f_max_ghz"] * HZ_PER_GHZ),
                    b_range=(config["b_min_mbps"] * BPS_PER_MBPS, config["b_max_mbps"] * BPS_PER_MBPS))


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

    The one memo of what a Scenario derives: :func:`checked`'s report, ``pricing``'s factors, ``optimizers``'
    box per candidate count and shape check per trial count, :func:`spectral_efficiencies` and
    :func:`f_local_squared`. A hit is one dict lookup, and a ``replace`` copy makes its own.
    """
    try:
        return s.__dict__[key]
    except KeyError:
        return s.__dict__.setdefault(key, make(s))


def _spectral_efficiency(mode: str, figure):
    """log2(1 + snr) of one link, bit/s per Hz: snr is 10^(figure/10) in "db-to-linear" mode, the
    figure itself otherwise. A domain error for snr <= -1, and inf only where 10^(figure/10) is."""
    return libm(math.log2, 1.0 + (libm(exp10, figure / 10.0) if mode == "db-to-linear" else figure))


def spectral_efficiencies(s: Scenario) -> tuple[float, float]:
    """(uplink, downlink) :func:`_spectral_efficiency` of ``s.channel``, :func:`kept`."""
    return kept(s, "_spectral_efficiencies", lambda s: (
        _spectral_efficiency(s.channel.snr_mode, s.channel.snr_uplink),
        _spectral_efficiency(s.channel.snr_mode, s.channel.snr_downlink)))


def f_local_squared(s: Scenario) -> float:
    """f_local^2, :func:`kept`: ``pricing.chi`` and the local energy both read it."""
    return kept(s, "_f_local_squared", lambda s: libm(pow, s.f_local, 2))


def checked(s: Scenario) -> Scenario:
    """``s`` if it passes :func:`validate`, else :class:`ScenarioError` naming each failing field.

    The report is :func:`kept`: each instance is validated once, and an
    invalid one raises the same error on every call.
    """
    report = kept(s, "_validation_report", lambda s: validate(s))
    if report:
        raise ScenarioError("invalid scenario: " + "; ".join(report))
    return s


def _is_real(value, arrays: bool = False) -> bool:
    """Whether ``value`` is a real number that is not a bool, or, where ``arrays`` is set, a real array."""
    if type(value) is _ndarray:
        return arrays and value.dtype.kind in "iuf"
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _kind_faults(s: Scenario) -> list[str]:
    """An entry for each number field or SNR figure that is not a real number or array, and each
    box that is not a pair of real numbers: the kinds every later check of :func:`validate` reads."""
    values = {name: getattr(s, name) for name in _NUMBER_FIELDS}
    values.update(snr_uplink=s.channel.snr_uplink, snr_downlink=s.channel.snr_downlink)
    faults = [f"{name}={value!r}: must be a real number (not a bool) or a real array"
              for name, value in values.items() if not _is_real(value, arrays=True)]
    for name, box in (("f_range", s.f_range), ("b_range", s.b_range)):
        # one box per scenario: a search, a sweep and a surface read one
        if not (isinstance(box, (tuple, list)) and len(box) == 2 and all(map(_is_real, box))):
            faults.append(f"{name}={box!r}: must be a pair of real numbers")
    return faults


def validate(s: Scenario) -> list[str]:
    """Check every Scenario invariant; one report entry per violation.

    Returns an empty list iff the scenario is valid. Never raises. A value
    of the wrong kind is reported alone, first: a number field or SNR figure
    that is not a real number or array (a bool is neither), or a box that is
    not a pair of real numbers. An array field fails a check, in one entry,
    if any element fails it. Non-finite numbers are reported alone, before the range checks,
    and each link is checked on its own: a raw figure > 0, a finite and nonzero log2(1 + snr).
    """
    report = _kind_faults(s)
    if report:
        return report
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
    if not (isinstance(s.channel.snr_mode, str) and s.channel.snr_mode in SNR_MODES):
        report.append(f"snr_mode={s.channel.snr_mode!r}: expected one of {SNR_MODES}")
    else:
        for name, value in (("snr_uplink", s.channel.snr_uplink), ("snr_downlink", s.channel.snr_downlink)):
            # log2(1 + snr) is a domain error for snr <= -1; a dB figure may be negative (-3 dB is 0.50)
            if s.channel.snr_mode == "raw" and not _every(value > 0):
                report.append(f"{name}={value!r}: must be strictly positive")
                continue
            efficiency = _spectral_efficiency(s.channel.snr_mode, value)
            if not _every(efficiency < math.inf):  # inf only where 10^(x/10) is
                report.append(f"{name}={value!r} dB: 10^(x/10) is not finite")
            elif not _every(efficiency != 0):  # 1 + snr rounds to 1, or 10^(x/10) underflows to 0: a zero rate
                report.append(f"{name}={value!r}: log2(1 + snr) is 0, so the link carries nothing")
    for name, (lo, hi) in (("f_range", s.f_range), ("b_range", s.b_range)):
        if not 0 < lo < hi:
            report.append(f"{name}={lo!r}..{hi!r}: bounds must satisfy 0 < min < max")
    return report
