"""A Python float evaluates like its one-element array, for every closed form of the model.

Each public function of ``pricing`` and ``offload`` is called on Python
floats, and on one-element arrays: the scenario's number fields and SNR
figures and the purchase, with the price coefficients as floats and, for
the forms that read them, as arrays too. Each array call must return the
bits of the float call, NaN with NaN, or raise the same error. The cases
are thousands of ``support.wide_settings`` draws, a batch of such draws
with negative dB SNR figures, boxes whose squares or cubes underflow to 0,
and bandwidth boxes whose low corner gives a link rate of 0, each at its
box's low corner and centre. The price coefficients of a case are
made once by an array call at 0.6 of each box maximum. Both calls run
under ``np.errstate(all="ignore")``, the rule of every caller in the
package.
"""
import dataclasses
import inspect
import math
import sys
from functools import cache

import numpy as np
import pytest

from edgeprice import offload, pricing
from edgeprice.harness import box_maximum_utility, surface_grid
from edgeprice.offload import Allocation
from edgeprice.pricing import PriceCoefficients
from edgeprice.scenario import DEFAULT_CONFIG, ChannelSpec, default_scenario, scenario_from_config, validate

from support import leaves, negative_db_figures, stack, wide_settings

#: Each public closed form, called as ``form(s, pc, alloc)``. quadratic_gap's displacement stays a
#: pair of floats; it moves b down by a quarter of the purchase, which can leave the positive domain.
CLOSED_FORMS = {
    "chi": lambda s, pc, a: pricing.chi(s),
    "upsilon": lambda s, pc, a: pricing.upsilon(s),
    "data_revenue": lambda s, pc, a: pricing.data_revenue(s),
    "coupling_ratio": lambda s, pc, a: pricing.coupling_ratio(s),
    "linear_price": lambda s, pc, a: pricing.linear_price(pc, a),
    "dynamic_price": lambda s, pc, a: pricing.dynamic_price(s, a),
    "linear_user_utility_value": lambda s, pc, a: pricing.linear_user_utility_value(s, pc, a),
    "dynamic_user_utility_value": lambda s, pc, a: pricing.dynamic_user_utility_value(s, a),
    "dynamic_utility_objective": lambda s, pc, a: pricing.dynamic_utility_objective(s)(a),
    "user_utility": lambda s, pc, a: pricing.user_utility(s, a),
    "user_utility_gradient": lambda s, pc, a: pricing.user_utility_gradient(s, pc, a),
    "critical_point": lambda s, pc, a: pricing.critical_point(s, pc),
    "curvature_report": lambda s, pc, a: pricing.curvature_report(s, pc, a),
    "derive_coefficients": lambda s, pc, a: pricing.derive_coefficients(s, a.f_server, a.b),
    "quadratic_gap": lambda s, pc, a: pricing.quadratic_gap(
        s, pc, (np.ravel(a.f_server).item() / 4, -np.ravel(a.b).item() / 4)),
    "server_utility": lambda s, pc, a: pricing.server_utility(s, a),
    "diagnostics": lambda s, pc, a: pricing.diagnostics(s, a),
    "link_rates": lambda s, pc, a: offload.link_rates(s, a.b),
    "local_exec_time": lambda s, pc, a: offload.local_exec_time(s),
    "time_breakdown": lambda s, pc, a: offload.time_breakdown(s, a),
    "energy_from_times": lambda s, pc, a: offload.energy_from_times(s, offload.time_breakdown(s, a)),
}
#: The forms that read the price coefficients: each is also called with them as arrays.
_READS_PC = {"linear_price", "linear_user_utility_value", "user_utility_gradient", "critical_point",
             "curvature_report", "quadratic_gap"}

#: The wide draws of ``default_rng(0)``; every one passes validate().
_N_WIDE = 2000
#: The wide draws of ``default_rng(1)`` with ``support.negative_db_figures``; every one passes validate().
_N_NEGATIVE_DB = 500


def _special_scenarios():
    """Boxes whose squares (1e-200) or cubes (1e-120) underflow to 0, in either coordinate or both,
    and two bandwidth boxes whose low corner's rate b * log2(1 + 1e-15) underflows to 0."""
    for f_range in ((1e-200, 1e-199), (1e-120, 1e-110), (1e9, 6e9)):
        for b_range in ((1e-200, 1e-199), (1e-120, 1e-110), (1e5, 1e6)):
            yield default_scenario(f_range=f_range, b_range=b_range)
    for b_range in ((1e-310, 1e6), (1e-310, 1e-309)):
        yield default_scenario(channel=ChannelSpec(1e-15, 30.0), b_range=b_range)


@cache
@np.errstate(all="ignore")
def _cases():
    """(float call arguments, one-element array call arguments, with array price coefficients too)."""
    rng = np.random.default_rng(0)
    wide = (scenario_from_config({**DEFAULT_CONFIG, **wide_settings(rng)}) for _ in range(_N_WIDE))
    rng_db = np.random.default_rng(1)
    negative_db = (scenario_from_config({**DEFAULT_CONFIG, **wide_settings(rng_db), **negative_db_figures(rng_db)})
                   for _ in range(_N_NEGATIVE_DB))
    cases = []
    for s in (*wide, *negative_db, *_special_scenarios()):
        assert validate(s) == [], s
        s1 = stack([s])
        pc1 = pricing.derive_coefficients(s1, 0.6 * s.f_range[1], 0.6 * s.b_range[1])
        pc = PriceCoefficients(*(float(x[0]) for x in pc1))
        (f_lo, f_hi), (b_lo, b_hi) = s.f_range, s.b_range
        for alloc in (Allocation(f_lo, b_lo), Allocation(0.5 * (f_lo + f_hi), 0.5 * (b_lo + b_hi))):
            alloc1 = Allocation(np.array([alloc.f_server]), np.array([alloc.b]))
            cases.append(((s, pc, alloc), (s1, pc, alloc1), (s1, pc1, alloc1)))
    return cases


def _call(form, args):
    """The result's leaves, or the type of the error raised."""
    try:
        return leaves(form(*args))
    except Exception as exc:  # the error's type is the outcome the two calls must share
        return type(exc)


def _bits(outcome):
    """The numbers' bits, every NaN as one NaN; an error type as it is."""
    if isinstance(outcome, type):
        return outcome
    values = np.array(outcome, dtype=float)  # a one-element array leaf is one number
    values[np.isnan(values)] = math.nan
    return values.tobytes()


def test_the_table_names_every_public_closed_form():
    public = {name for module in (pricing, offload) for name, value in vars(module).items()
              if inspect.isfunction(value) and value.__module__ == module.__name__ and not name.startswith("_")}
    assert set(CLOSED_FORMS) == public


@pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
@np.errstate(all="ignore")
def test_a_float_call_returns_the_bits_of_its_one_element_array_call(name):
    form = CLOSED_FORMS[name]
    differ = []
    for case in _cases():
        want = _call(form, case[0])
        # the float path returns Python numbers, as the CLI prints them
        assert isinstance(want, type) or {type(x) for x in want} <= {float, bool}, (name, want)
        want = _bits(want)
        for args in case[1:] if name in _READS_PC else case[1:2]:
            got = _bits(_call(form, args))
            if got != want:
                differ.append((case[0], want, got))
    assert not differ, f"{name}: {len(differ)} array calls differ from the float call, e.g. {differ[0]}"


@np.errstate(all="ignore")
def test_a_displacement_whose_square_overflows_gives_inf_as_its_array_call_does():
    # Python's float square of 1e200 raises OverflowError; libm's pow gives inf, as the array call does
    s = default_scenario()
    pc = pricing.derive_coefficients(s, 3.5e9, 5.5e5)
    want = leaves(pricing.quadratic_gap(s, pc, (1e200, 1e4)))
    assert want[0] == math.inf
    assert _bits(leaves(pricing.quadratic_gap(stack([s]), pc, (1e200, 1e4)))) == _bits(want)


#: Magnitudes at the edge of the float range: Python floats, and ints at and past it, which
#: ``validate`` passed while every closed form raised OverflowError on them.
_EDGE = (sys.float_info.max, 1e308, 1e300, 1e200, 1e154, int(sys.float_info.max), 10**308, 10**309, 10**400,
         10**200)


def _edge_scenarios():
    """The default scenario with one number, or q and c together, at each ``_EDGE`` magnitude, as a
    number and, for a float, as a one-element float64 array; the box bounds as numbers only."""
    s = default_scenario()
    for value in _EDGE:
        forms = (value, np.array([value])) if isinstance(value, float) else (value,)
        for form in forms:
            for name in ("q", "c", "f_local", "k", "p_u", "p_d", "alpha", "w1"):
                yield dataclasses.replace(s, **{name: form})
            yield dataclasses.replace(s, q=form, c=form)
            for mode in ("raw", "db-to-linear"):
                yield dataclasses.replace(s, channel=ChannelSpec(form, 30.0, mode))
        yield dataclasses.replace(s, f_range=(1e9, value))
        yield dataclasses.replace(s, b_range=(1e5, value))


def test_a_valid_scenario_at_the_float_range_edge_returns_or_raises_a_named_value_error():
    # a ValueError names the overflow ("non-finite surface cell"); an OverflowError or a TypeError escapes
    valid = 0
    for s in _edge_scenarios():
        if validate(s):
            continue
        valid += 1
        corner = Allocation(s.f_range[1], s.b_range[1])
        for call in (lambda: pricing.user_utility(s, corner), lambda: box_maximum_utility(s),
                     lambda: surface_grid(s, 3, 3)):
            try:
                with np.errstate(all="ignore"):
                    call()
            except ValueError:
                pass
    assert valid >= 50
