import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from edgeprice import optimizers, pricing, scenario
from edgeprice.scenario import (
    ALLOCATION_KEYS,
    DEFAULT_CONFIG,
    SNR_MODES,
    _NUMBER_KEYS,
    ChannelSpec,
    Scenario,
    ScenarioError,
    checked,
    default_scenario,
    exp10,
    f_local_squared,
    kept,
    libm,
    load_scenario,
    number_fields,
    parse_config,
    parse_setting,
    scenario_from_config,
    spectral_efficiencies,
    validate,
)

from support import wide_settings


def test_defaults_are_canonical_units():
    s = default_scenario()
    assert s.q == 4_096_000.0          # 500 KB
    assert s.c == 2640.0
    assert s.f_local == 1e8            # 0.1 GHz
    assert s.k == 1e-27
    assert s.p_u == 0.1 and s.p_d == 1.0
    assert s.alpha == 0.2
    assert s.w1 == 0.5 and s.w2 == 0.5
    assert s.mu == 0.8
    assert s.f_range == (1e9, 6e9)
    assert s.b_range == (1e5, 1e6)
    assert s.channel.snr_mode == "raw"


def test_the_number_table_sets_each_float_field_of_a_scenario_from_its_own_number_key():
    assert list(_NUMBER_KEYS) == [f.name for f in dataclasses.fields(Scenario) if f.type == "float"]
    keys = [key for key, _ in _NUMBER_KEYS.values()]
    assert len(set(keys)) == len(keys)
    assert all(type(DEFAULT_CONFIG[key]) is float for key in keys)


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=float).view(np.uint64).ravel().tolist()


def test_number_fields_gives_the_bits_of_scenario_from_config_on_floats_and_arrays():
    # one conversion: a setting's float, and the same settings stacked as (n,) arrays, convert alike
    rng = np.random.default_rng(39)
    drawn = [{**DEFAULT_CONFIG, **wide_settings(rng)} for _ in range(200)]
    scenarios = [scenario_from_config(settings) for settings in drawn]
    for settings, s in zip(drawn, scenarios):
        fields = number_fields(settings)
        assert list(fields) == list(_NUMBER_KEYS)
        assert _bits(list(fields.values())) == _bits([getattr(s, name) for name in _NUMBER_KEYS])
    keys = [key for key, _ in _NUMBER_KEYS.values()]
    stacked = number_fields({key: np.array([settings[key] for settings in drawn]) for key in keys})
    for name, column in stacked.items():
        assert column.shape == (200,)
        assert _bits(column) == _bits([getattr(s, name) for s in scenarios]), name


def test_number_fields_skips_the_snr_box_and_purchase_keys():
    number_keys = {key for key, _ in _NUMBER_KEYS.values()}
    others = {key: 1.0 for key in (*DEFAULT_CONFIG, *ALLOCATION_KEYS) if key not in number_keys}
    assert sorted(others) == ["b_max_mbps", "b_mbps", "b_min_mbps", "f_max_ghz", "f_min_ghz", "f_server_ghz",
                              "snr_downlink", "snr_mode", "snr_uplink"]
    assert number_fields(others) == {}
    assert list(number_fields({**DEFAULT_CONFIG, **others})) == list(_NUMBER_KEYS)
    assert number_fields({"q_kb": 2.0, "f_server_ghz": 3.0}) == {"q": 2.0 * 8192}


def test_defaults_validate_clean():
    assert validate(default_scenario()) == []


def test_partial_config_fills_defaults():
    s = load_scenario(overrides=parse_config("q_kb=500\nf_local_ghz=0.1\n"))
    assert s.q == 4_096_000.0
    assert s.f_local == 1e8
    assert s.c == 2640.0  # untouched default


def test_alpha_zero_is_accepted():
    s = load_scenario(overrides=parse_config("alpha=0\n"))
    assert s.alpha == 0.0


def test_db_to_linear_effective_snr():
    s = load_scenario(overrides=parse_config("snr_mode=db-to-linear\nsnr_uplink=20\n"))
    up, down = s.channel.effective_snrs()
    assert up == pytest.approx(100.0, rel=1e-12)
    assert down == pytest.approx(1000.0, rel=1e-12)


def test_snr_modes_differ_only_in_effective_values():
    raw = load_scenario(overrides=parse_config("snr_mode=raw\n"))
    db = load_scenario(overrides=parse_config("snr_mode=db-to-linear\n"))
    assert dataclasses.replace(raw, channel=db.channel) == db
    assert raw.channel.effective_snrs() == (20.0, 30.0)
    assert db.channel.effective_snrs() != raw.channel.effective_snrs()


def test_nonpositive_value_names_the_field():
    with pytest.raises(ScenarioError, match="q"):
        load_scenario(overrides=parse_config("q_kb=-5\n"))


def test_validation_report_flags_w2_boundary():
    s = default_scenario(w2=1.0)
    report = validate(s)
    assert any("w2 < 1 required for ES trend" in entry for entry in report)


def test_validation_report_flags_mu_out_of_range():
    report = validate(default_scenario(mu=1.5))
    assert len(report) == 1 and "mu" in report[0]


def test_validation_report_one_entry_per_violation():
    s = default_scenario(q=-1.0, c=0.0, mu=2.0)
    report = validate(s)
    assert len(report) == 3


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"alpha": -1.0}, "alpha=-1.0: must be non-negative"),
        ({"w1": 0.0}, "w1=0.0: must be strictly positive"),
        ({"w2": 0.0}, "w2=0.0: must be strictly positive"),
        ({"f_range": (6e9, 1e9)}, "f_range=6000000000.0..1000000000.0: bounds must satisfy 0 < min < max"),
        ({"b_range": (0.0, 1e6)}, "b_range=0.0..1000000.0: bounds must satisfy 0 < min < max"),
        ({"f_range": (3e9, 3e9)}, "f_range=3000000000.0..3000000000.0: bounds must satisfy 0 < min < max"),
        ({"b_range": (5e5, 5e5)}, "b_range=500000.0..500000.0: bounds must satisfy 0 < min < max"),
    ],
)
def test_validation_message_of_each_range_check(fields, message):
    assert validate(default_scenario(**fields)) == [message]


def _with_field(name, value):
    """The default scenario with one number field, or one SNR figure of its channel, set to ``value``."""
    s = default_scenario()
    if name.startswith("snr_"):
        return dataclasses.replace(s, channel=dataclasses.replace(s.channel, **{name: value}))
    return dataclasses.replace(s, **{name: value})


@pytest.mark.parametrize(
    "name, bad, reason",
    [
        ("q", -1.0, "must be strictly positive"),
        ("k", math.inf, "must be finite"),
        ("alpha", -1.0, "must be non-negative"),
        ("mu", 1.5, "outside the open interval (0, 1)"),
        ("w1", 0.0, "must be strictly positive"),
        ("w2", 1.0, "w2 < 1 required for ES trend"),
        ("snr_uplink", -1.0, "must be strictly positive"),
        ("snr_downlink", 1e-300, "log2(1 + snr) is 0, so the link carries nothing"),
    ],
)
def test_an_array_field_fails_a_check_once_if_any_element_fails_it(name, bad, reason):
    s = default_scenario()
    good = getattr(s.channel if name.startswith("snr_") else s, name)
    values = np.array([good, bad, good])
    assert validate(_with_field(name, bad)) == [f"{name}={bad!r}: {reason}"]
    assert validate(_with_field(name, values)) == [f"{name}={values!r}: {reason}"]
    assert validate(_with_field(name, np.array([good, good]))) == []


def test_array_scenarios_validate_like_their_elements():
    assert validate(default_scenario(q=np.array([1e5, 2e5]))) == []
    overflow = ChannelSpec(np.array([20.0, 4000.0]), 30.0, "db-to-linear")
    (entry,) = validate(default_scenario(channel=overflow))
    assert entry.startswith("snr_uplink=array([  20., 4000.]) dB") and "not finite" in entry
    report = validate(default_scenario(q=np.array([-1.0, 1e5]), mu=np.array([0.5, 2.0]), c=0.0))
    assert [entry.split("=")[0] for entry in report] == ["q", "c", "mu"]


def test_parse_config_comments_and_quotes():
    parsed = parse_config("# comment\nq_kb = 250  # trailing\nsnr_mode = \"raw\"\n\n")
    assert parsed == {"q_kb": 250.0, "snr_mode": "raw"}


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ScenarioError, match="unknown key"):
        parse_config("frequency=3\n")


def test_parse_config_rejects_duplicates():
    with pytest.raises(ScenarioError, match="duplicate"):
        parse_config("q_kb=1\nq_kb=2\n")


def test_parse_config_rejects_non_numeric():
    with pytest.raises(ScenarioError, match="non-numeric"):
        parse_config("q_kb=abc\n")


@pytest.mark.parametrize("quote", ["", "'", '"'])
@pytest.mark.parametrize("key", [*DEFAULT_CONFIG, *ALLOCATION_KEYS])
def test_a_config_line_is_one_setting(key, quote):
    line = f"{key} = {quote}{DEFAULT_CONFIG.get(key, 0.5)}{quote}"
    assert parse_config(line) == dict([parse_setting(line)])


def test_override_unknown_key_rejected():
    with pytest.raises(ScenarioError, match="override"):
        load_scenario(overrides={"bogus": 1.0})


@pytest.mark.parametrize("key, value, message", [
    ("q_kb", "abc", "non-numeric value 'abc' for key 'q_kb'"),
    ("q_kb", None, "non-numeric value None for key 'q_kb'"),
    ("snr_mode", 1.0, "non-string value 1.0 for key 'snr_mode'"),
])
def test_override_of_the_wrong_type_names_its_key(key, value, message):
    # a bad value used to escape as float()'s bare ValueError or TypeError
    with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
        load_scenario(overrides={key: value})


def test_channel_spec_mode_validation():
    report = validate(default_scenario(channel=ChannelSpec(20.0, 30.0, "weird")))
    assert any("snr_mode" in entry for entry in report)


@pytest.mark.parametrize(
    "fields, name",
    [
        ({"k": float("inf")}, "k"),
        ({"q": float("nan")}, "q"),
        ({"p_u": float("inf")}, "p_u"),
        ({"f_range": (1e9, float("inf"))}, "f_max"),
        ({"b_range": (float("-inf"), 1e6)}, "b_min"),
        ({"channel": ChannelSpec(float("inf"), 30.0)}, "snr_uplink"),
    ],
)
def test_validation_rejects_non_finite_numbers(fields, name):
    (entry,) = validate(default_scenario(**fields))
    assert entry.startswith(f"{name}=") and entry.endswith("must be finite")


def test_validation_rejects_db_figures_that_overflow():
    # 10^(4000/10) overflows a float; the figure itself is finite
    (entry,) = validate(default_scenario(channel=ChannelSpec(20.0, 4000.0, "db-to-linear")))
    assert entry.startswith("snr_downlink=4000.0") and "not finite" in entry
    assert validate(default_scenario(channel=ChannelSpec(3000.0, 30.0, "db-to-linear"))) == []
    assert validate(default_scenario(channel=ChannelSpec(4000.0, 30.0, "raw"))) == []


_SNR_FIGURES = st.sampled_from([-5.0, -1.0, 0.0, 1e-300, 4000.0, math.nan, math.inf]) | st.floats()


@given(_SNR_FIGURES, _SNR_FIGURES, st.sampled_from(SNR_MODES))
def test_validate_never_raises_on_snr_figures(up, down, mode):
    # log2(1 + snr) is a domain error for snr <= -1: validate must not evaluate it there
    report = validate(default_scenario(channel=ChannelSpec(up, down, mode)))
    assert isinstance(report, list)
    # a non-finite figure is reported alone, before the range checks; -1 dB is an SNR of 0.79
    for name, figure in (("snr_uplink", up), ("snr_downlink", down)):
        if figure == -1.0 and mode == "db-to-linear":
            assert not any(entry.startswith(f"{name}=") for entry in report), report
        elif figure == -1.0 and math.isfinite(up) and math.isfinite(down):
            assert f"{name}=-1.0: must be strictly positive" in report


@pytest.mark.parametrize("link", ["uplink", "downlink"])
def test_validation_rejects_snr_with_zero_rate(link):
    def channel(snr):
        return ChannelSpec(**{"snr_uplink": 20.0, "snr_downlink": 30.0, f"snr_{link}": snr})

    # 1 + 1e-300 rounds to 1, so log2(1 + snr) is 0 and the rate factor divides by it
    (entry,) = validate(default_scenario(channel=channel(1e-300)))
    assert entry.startswith(f"snr_{link}=1e-300") and "log2(1 + snr) is 0" in entry
    # 1 + 2^-52 is the next float after 1, so that rate is accepted; 1 + 2^-53 ties back to 1
    assert validate(default_scenario(channel=channel(2.0**-52))) == []
    assert len(validate(default_scenario(channel=channel(2.0**-53)))) == 1


@pytest.mark.parametrize("figure", [-3.0, -400.0, -5000.0, np.array([-3.0, -400.0, -5000.0])], ids=str)
def test_a_db_figure_may_be_negative_unless_its_link_carries_nothing(figure):
    # -3 dB is an SNR of 0.50; 1 + 10^-40 rounds to 1, and 10^-500 underflows to 0: one entry each
    report = validate(default_scenario(channel=ChannelSpec(figure, 30.0, "db-to-linear")))
    zero_rate = f"snr_uplink={figure!r}: log2(1 + snr) is 0, so the link carries nothing"
    assert report == ([] if np.all(figure == -3.0) else [zero_rate])


def test_libm_calls_the_function_once_on_a_scalar():
    assert libm(math.log2, 21.0) == math.log2(21.0)
    assert libm(pow, 3.7e9, 3) == 3.7e9**3
    assert libm(exp10, 2.5) == 10.0**2.5


def test_libm_maps_an_array_element_by_element():
    x = np.random.default_rng(0).uniform(1.0, 1e10, (40, 50))
    for fn, args in ((math.log2, ()), (math.sqrt, ()), (pow, (2,)), (pow, (3,)), (exp10, ())):
        y = libm(fn, x / 1e9, *args)
        assert y.shape == x.shape and y.dtype == np.float64
        assert y.ravel().tolist() == [fn(v, *args) for v in (x / 1e9).ravel().tolist()]
    assert libm(math.log2, np.array([])).shape == (0,)


def test_libm_overflow_is_inf_as_in_float_products():
    assert libm(pow, 1e300, 2) == math.inf
    assert libm(exp10, 400.0) == math.inf
    assert libm(pow, np.array([2.0, 1e300, 3.0]), 2).tolist() == [4.0, math.inf, 9.0]


def _report(s):
    """The validation report ``checked`` keeps on ``s``."""
    checked(s)
    return kept(s, "_validation_report", lambda s: pytest.fail("checked kept no report"))


#: Each value a Scenario derives, read off the instance that keeps it.
_DERIVED = {
    "validation report": _report,
    "pricing factors": pricing._scenario_factors,
    "search box, p_n 4": lambda s: optimizers._search_box(s, 4),
    "search box, p_n 30": lambda s: optimizers._search_box(s, 30),
    "f_local_squared": f_local_squared,
    "spectral_efficiencies": spectral_efficiencies,
}


@pytest.mark.parametrize("q", [None, np.array([[1e5], [2e6], [4e6]])], ids=["default", "q-column"])
@pytest.mark.parametrize("name", sorted(_DERIVED))
def test_a_derived_value_is_made_once_per_instance_and_anew_for_a_replaced_copy(name, q):
    derive = _DERIVED[name]
    owner = default_scenario() if q is None else default_scenario(q=q)
    value = derive(owner)
    assert derive(owner) is value
    copy = dataclasses.replace(owner)
    assert derive(copy) is not value and derive(copy) is derive(copy)
    np.testing.assert_equal(derive(copy), value)


def test_the_log2_pair_follows_the_scenario_not_its_channel():
    s = default_scenario()
    pair = spectral_efficiencies(s)
    # a copy that keeps the channel shares it, yet makes its own pair
    kept_channel = dataclasses.replace(s, q=2.0 * s.q)
    assert kept_channel.channel is s.channel and spectral_efficiencies(kept_channel) is not pair
    np.testing.assert_equal(spectral_efficiencies(kept_channel), pair)
    # a copy with a new channel gets the new pair, and s keeps its own
    new_channel = dataclasses.replace(s, channel=ChannelSpec(3.0, 7.0))
    assert spectral_efficiencies(new_channel) == (2.0, 3.0)
    assert spectral_efficiencies(s) is pair and pair == (math.log2(21.0), math.log2(31.0))


@pytest.mark.parametrize("fields", [{"mu": 2.0}, {"q": np.array([[1e5], [-1.0]])}], ids=["mu", "q-column"])
def test_an_invalid_scenario_raises_the_same_error_on_every_checked_call(fields, monkeypatch):
    s = default_scenario(**fields)
    message = "invalid scenario: " + "; ".join(validate(s))
    calls = []
    monkeypatch.setattr(scenario, "validate", lambda s: calls.append(s) or validate(s))
    for _ in range(3):
        with pytest.raises(ScenarioError) as refused:
            checked(s)
        assert str(refused.value) == message
    assert calls == [s]
