import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from edgeprice.scenario import (
    SNR_MODES,
    ChannelSpec,
    ScenarioError,
    bits_to_kb,
    default_scenario,
    ghz_to_hz,
    hz_to_ghz,
    exp10,
    kb_to_bits,
    libm,
    load_scenario,
    parse_config,
    validate,
)


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


def test_defaults_validate_clean():
    assert validate(default_scenario()) == []


def test_partial_config_fills_defaults():
    s = load_scenario("q_kb=500\nf_local_ghz=0.1\n")
    assert s.q == 4_096_000.0
    assert s.f_local == 1e8
    assert s.c == 2640.0  # untouched default


def test_alpha_zero_is_accepted():
    s = load_scenario("alpha=0\n")
    assert s.alpha == 0.0


def test_db_to_linear_effective_snr():
    s = load_scenario("snr_mode=db-to-linear\nsnr_uplink=20\n")
    up, down = s.channel.effective_snrs()
    assert up == pytest.approx(100.0, rel=1e-12)
    assert down == pytest.approx(1000.0, rel=1e-12)


def test_snr_modes_differ_only_in_effective_values():
    raw = load_scenario("snr_mode=raw\n")
    db = load_scenario("snr_mode=db-to-linear\n")
    assert dataclasses.replace(raw, channel=db.channel) == db
    assert raw.channel.effective_snrs() == (20.0, 30.0)
    assert db.channel.effective_snrs() != raw.channel.effective_snrs()


def test_strict_mode_requires_every_key():
    with pytest.raises(ScenarioError, match="q_kb"):
        load_scenario("c_cycles_per_bit=2640\n", strict=True)


def test_nonpositive_value_names_the_field():
    with pytest.raises(ScenarioError, match="q"):
        load_scenario("q_kb=-5\n")


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


def test_override_unknown_key_rejected():
    with pytest.raises(ScenarioError, match="override"):
        load_scenario(None, overrides={"bogus": 1.0})


@given(st.integers(min_value=1, max_value=10**9))
def test_kb_round_trip_exact_for_integers(kb):
    assert bits_to_kb(kb_to_bits(float(kb))) == float(kb)


@given(st.integers(min_value=1, max_value=10**6))
def test_ghz_round_trip_exact_for_integers(ghz):
    assert hz_to_ghz(ghz_to_hz(float(ghz))) == float(ghz)


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
    # a non-finite figure is reported alone, before the range checks
    for name, figure in (("snr_uplink", up), ("snr_downlink", down)):
        if figure == -1.0 and math.isfinite(up) and math.isfinite(down):
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
