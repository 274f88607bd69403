import csv
import dataclasses
import hashlib
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from edgeprice import cli, optimizers
from edgeprice.cli import main
from edgeprice.harness import ALGORITHMS, box_maximum_utility, compare_optimizers, format_number
from edgeprice.optimizers import SwarmConfig
from edgeprice.pricing import dynamic_utility_objective
from edgeprice.scenario import default_scenario

from support import negative_db_figures, wide_settings

SCENARIO_TEXT = """\
# comparison defaults
q_kb=500
f_local_ghz=0.1
b_mbps=0.1
"""


def test_sweep_writes_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        [
            "sweep",
            "--param", "f_server",
            "--grid", "1e9,2e9,3e9,4e9,5e9,6e9",
            "--out", str(out),
        ]
    )
    assert code == 0
    with open(out, newline="") as handle:
        parsed = list(csv.reader(handle))
    assert len(parsed) == 7  # header + 6 rows
    assert parsed[1][0] == "f_server"


def test_sweep_stdout_when_no_out(capsys):
    code = main(["sweep", "--param", "b", "--grid", "1e5,5e5,1e6"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("param,value,price")
    assert len(lines) == 4


def test_sweep_stdout_is_the_file_with_newline_line_ends(tmp_path, capsys):
    argv = ["sweep", "--param", "f_server", "--grid", "1e9,3.5e9,6e9"]
    out = tmp_path / "sweep.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    assert "\r" not in stdout
    assert out.read_bytes() == stdout.replace("\n", "\r\n").encode()


def test_sweep_with_scenario_file_and_plot(tmp_path):
    scenario = tmp_path / "s.conf"
    scenario.write_text(SCENARIO_TEXT)
    out = tmp_path / "sweep.csv"
    plot = tmp_path / "sweep.svg"
    code = main(
        [
            "sweep",
            "--scenario", str(scenario),
            "--param", "f_server",
            "--grid", "1e9,2e9,3e9",
            "--out", str(out),
            "--plot", str(plot),
        ]
    )
    assert code == 0
    assert plot.read_text().startswith("<?xml")


def test_scenario_from_environment(tmp_path, monkeypatch, capsys):
    scenario = tmp_path / "env.conf"
    scenario.write_text("q_kb=100\n")
    monkeypatch.setenv("EDGEPRICE_SCENARIO", str(scenario))
    code = main(["sweep", "--param", "q", "--grid", "819200"])
    assert code == 0
    row = capsys.readouterr().out.strip().splitlines()[1]
    assert row.split(",")[2] == "0.315874062"  # the 100 KB price anchor


@pytest.mark.parametrize("argv, rects", [(["--steps", "50"], 2502),
                                         (["--steps", "40", "--series", "price"], 1602)])
def test_surface_plot_is_one_rect_per_cell_plus_background_and_frame(argv, rects, tmp_path):
    plot = tmp_path / "surface.svg"
    assert main(["surface", *argv, "--plot", str(plot)]) == 0
    text = plot.read_text(encoding="utf-8")
    assert text.count("<rect ") == rects and text.endswith("\n</svg>\n")


def test_optimize_deterministic_output(capsys):
    code = main(["optimize", "--algo", "disc-pso", "--seed", "7"])
    assert code == 0
    first = capsys.readouterr().out
    assert main(["optimize", "--algo", "disc-pso", "--seed", "7"]) == 0
    assert capsys.readouterr().out == first
    assert "best value" in first


@pytest.mark.parametrize("name", tuple(ALGORITHMS))
def test_optimize_prints_the_librarys_single_run(name, capsys):
    lines = _stdout(["optimize", "--algo", name, "--seed", "3"], capsys).splitlines()
    s = default_scenario()
    run = ALGORITHMS[name](s, dynamic_utility_objective(s), box_maximum_utility(s), SwarmConfig(seed=3))
    assert lines[0] == f"algorithm: {name}"
    assert lines[2] == "best value: %.9g" % run.best_value


def test_compare_emits_csv(tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    code = main(["compare", "--trials", "2", "--seed", "5", "--out", str(out)])
    assert code == 0
    with open(out, newline="") as handle:
        parsed = list(csv.reader(handle))
    assert len(parsed) == 1 + 4 * 2
    stdout = capsys.readouterr().out
    assert "disc-pso" in stdout


def test_compare_table_lines_up_under_a_long_algorithm_name(monkeypatch, capsys):
    monkeypatch.setitem(optimizers.ALGORITHMS, "disc-pso-alias", optimizers.disc_pso)
    assert main(["compare", "--trials", "2"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 5 and rows[-1].startswith("disc-pso-alias ")

    def ends(line):
        return [m.end() for m in re.finditer(r"\S+", line)]

    mean, std, iters = (ends(header)[i] for i in (1, 2, 4))
    assert all(ends(row)[1:4] == [mean, std, iters] for row in rows)
    assert len({len(row) for row in rows}) == 1


def _numbers_line_up(stdout: str) -> list[str]:
    """The rows of a compare table whose mean and std columns end where the header's do."""
    header, *rows = stdout.splitlines()[1:]
    ends = [[m.end() for m in re.finditer(r"\S+", line)][1:3] for line in (header, *rows)]
    assert all(row_ends == ends[0] for row_ends in ends[1:]), stdout
    return rows


def test_compare_table_prints_nine_digits_where_six_decimals_overflow(capsys):
    # 101925.053168 is 13 characters: it used to push the rest of its row one column right
    assert main(["compare", "--trials", "2", "--n-max", "5", "--set", "q_kb=1e6"]) == 0
    rows = _numbers_line_up(capsys.readouterr().out)
    assert rows[0].split()[1:3] == ["101925.053", "0.000000"]  # a value that fits keeps 6 decimals


def test_compare_table_widens_both_number_columns_for_a_huge_mean(monkeypatch, capsys):
    def huge_ga(*args, **kwargs):
        report = compare_optimizers(*args, **kwargs)
        ga = dataclasses.replace(report.stats["ga"], mean_value=-9.8e254, std_value=1.23456789e254)
        return dataclasses.replace(report, stats={**report.stats, "ga": ga})

    monkeypatch.setattr(cli, "compare_optimizers", huge_ga)
    assert main(["compare", "--trials", "2", "--n-max", "5"]) == 0
    rows = _numbers_line_up(capsys.readouterr().out)
    assert rows[2].split()[1:3] == ["-9.8e+254", "1.23456789e+254"]


def test_randomized_compare_header_is_the_range_of_trial_references(capsys):
    assert main(["compare", "--trials", "6", "--randomize", "--seed", "4"]) == 0
    header = capsys.readouterr().out.splitlines()[0]
    references = compare_optimizers(default_scenario(), SwarmConfig(seed=4), 6, randomize=True).u_max_list
    assert min(references) < max(references)
    low, high = format_number(min(references)), format_number(max(references))
    assert header == f"gap reference u_max: {low} to {high} per trial  (trials: 6)"


def test_surface_prints_argmax(capsys):
    code = main(["surface", "--steps", "12"])
    assert code == 0
    out = capsys.readouterr().out
    assert "argmax u_user" in out
    assert "6000000000" in out  # corner frequency in Hz


def test_set_overrides_scenario(capsys):
    code = main(["sweep", "--param", "q", "--grid", "819200", "--set", "snr_mode=db-to-linear"])
    assert code == 0
    row = capsys.readouterr().out.strip().splitlines()[1]
    assert row.split(",")[2] != "0.315874062"  # price differs in db mode


def test_unknown_set_key_is_usage_error(capsys):
    code = main(["sweep", "--param", "q", "--grid", "1", "--set", "bogus=1"])
    assert code == 2
    assert "bogus" in capsys.readouterr().err


def _stdout(argv: list[str], capsys) -> str:
    assert main(argv) == 0
    return capsys.readouterr().out


def test_set_pair_reads_as_a_scenario_file_line(tmp_path, capsys):
    # a quoted snr_mode was accepted in a file and refused by --set
    line = "snr_mode='db-to-linear'"
    scenario = tmp_path / "s.conf"
    scenario.write_text(line + "\n")
    from_file = _stdout(["optimize", "--scenario", str(scenario)], capsys)
    assert _stdout(["optimize", "--set", line], capsys) == from_file != _stdout(["optimize"], capsys)


def test_purchase_keys_give_one_sweep_from_set_or_file(tmp_path, capsys):
    scenario = tmp_path / "s.conf"
    scenario.write_text("f_server_ghz=3\nb_mbps=0.5\n")
    argv = ["sweep", "--param", "q", "--grid", "819200,4096000"]
    from_file = _stdout([*argv, "--scenario", str(scenario)], capsys)
    from_set = _stdout([*argv, "--set", "f_server_ghz=3", "--set", "b_mbps=0.5"], capsys)
    assert from_set == from_file != _stdout(argv, capsys)


def test_set_pair_overrides_the_scenario_files_line(tmp_path, capsys):
    scenario = tmp_path / "s.conf"
    scenario.write_text("q_kb=250\nb_mbps=0.5\n")
    argv = ["sweep", "--param", "f_server", "--grid", "1e9,6e9"]
    both = _stdout([*argv, "--scenario", str(scenario), "--set", "q_kb=300"], capsys)
    assert both == _stdout([*argv, "--set", "q_kb=300", "--set", "b_mbps=0.5"], capsys)
    assert len(both.splitlines()) == 3


def test_scenario_file_with_byte_order_mark(tmp_path, capsys):
    plain, marked = tmp_path / "plain.conf", tmp_path / "marked.conf"
    plain.write_text("q_kb=250\nb_mbps=0.5\n", encoding="utf-8")
    marked.write_text("q_kb=250\nb_mbps=0.5\n", encoding="utf-8-sig")
    assert marked.read_bytes()[:3] == b"\xef\xbb\xbf"
    argv = ["sweep", "--param", "f_server", "--grid", "1e9,6e9", "--scenario"]
    assert _stdout([*argv, str(marked)], capsys) == _stdout([*argv, str(plain)], capsys)


@pytest.mark.parametrize("pair, message", [
    ("bogus=1", "unknown key 'bogus'"),
    ("q_kb=abc", "non-numeric value 'abc' for key 'q_kb'"),
    ("q_kb", "expected key=value, got 'q_kb'"),
])
def test_bad_set_pair_is_one_error_line(pair, message, capsys):
    assert main(["optimize", "--set", pair]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


@pytest.mark.parametrize("key", ["w_max", "w_min", "c1_learn", "c2_learn", "delta_f", "delta_b"])
def test_fixed_swarm_settings_are_unknown_keys(key, capsys):
    # disc-pso's inertia, learning factors and velocity floor are fixed, as GA's and DE's settings are
    assert main(["optimize", "--set", f"{key}=1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: unknown key '{key}'\n" and captured.out == ""


def test_swarm_keys_are_set(capsys):
    # p_n, n_max and epsilon stay settable; pso at seed 0 meets epsilon 1e-3 in its initial sampling
    strict = ["optimize", "--algo", "pso", "--epsilon", "1e-12"]
    assert "iterations: 1\nconverged: True\n" in _stdout(strict, capsys)
    assert "iterations: 0\nconverged: False\n" in _stdout([*strict, "--n-max", "0"], capsys)
    assert "iterations: 2\nconverged: True\n" in _stdout([*strict, "--p-n", "10"], capsys)
    # compare reads the same options: no round runs, so no trial converges
    table = _stdout(["compare", "--trials", "2", "--epsilon", "1e-12", "--n-max", "0"], capsys)
    assert [line[-15:] for line in table.splitlines()[2:]] == ["0.000       0/2"] * 4


def test_a_search_at_a_subnormal_utility_converges(capsys):
    # epsilon * |best| underflows to 0 here, and best == u_max still meets the stop test
    out = _stdout(["optimize", "--set", "q_kb=1e-320"], capsys)
    assert "best value: 1.02271589e-321\n" in out and "iterations: 1\nconverged: True\n" in out


@pytest.mark.parametrize("command", [["surface", "--steps", "3"],
                                     ["sweep", "--param", "f_server", "--grid", "1e9,2e9"]])
@pytest.mark.parametrize("option", [["--seed", "1"], ["--set", "p_n=40"], ["--set", "n_max=5"],
                                    ["--set", "epsilon=1e-6"]])
def test_search_settings_are_refused_where_nothing_searches(command, option, capsys):
    # sweep and surface evaluate closed forms; a search setting there would be ignored
    assert main([*command, *option]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command", [["optimize", "--algo", "ga"], ["compare", "--trials", "2"]])
@pytest.mark.parametrize("key", ["f_server_ghz", "b_mbps"])
@pytest.mark.parametrize("source", ["set", "file"])
def test_searching_commands_refuse_a_pinned_purchase(command, key, source, tmp_path, capsys):
    # optimize and compare search for the purchase: a pinned one used to be read and ignored
    option = ["--set", f"{key}=0.5"]
    if source == "file":
        (tmp_path / "s.conf").write_text(f"q_kb=250\n{key}=0.5\n")
        option = ["--scenario", str(tmp_path / "s.conf")]
    assert main([*command, *option]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: key '{key}' pins a purchase, which {command[0]} searches for\n"
    assert captured.out == ""


def test_surface_still_accepts_a_pinned_purchase(capsys):
    # surface ignores the purchase keys, but the benchmark's surface runs still pass them
    plain = _stdout(["surface", "--steps", "3"], capsys)
    pinned = ["surface", "--steps", "3", "--set", "f_server_ghz=3", "--set", "b_mbps=0.5"]
    assert _stdout(pinned, capsys) == plain


@pytest.mark.parametrize("argv, message", [
    (["--param", "f_server", "--grid", "1e9,2e9", "--set", "b_mbps=50"],
     "allocation b=50000000.0 outside the valid b range [100000.0, 1000000.0]"),
    (["--param", "q", "--grid", "819200", "--set", "f_server_ghz=0.5"],
     "allocation f_server=500000000.0 outside the valid f_server range [1000000000.0, 6000000000.0]"),
])
def test_sweep_pinned_purchase_outside_the_box_is_one_error_line(argv, message, capsys):
    assert main(["sweep", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


def test_unknown_flag_exits_two(capsys):
    assert main(["sweep", "--param", "q", "--grid", "1", "--frobnicate"]) == 2
    assert "usage" in capsys.readouterr().err


def test_missing_subcommand_exits_two(capsys):
    assert main([]) == 2


def test_bad_grid_is_usage_error(capsys):
    assert main(["sweep", "--param", "q", "--grid", "abc"]) == 2
    assert "grid" in capsys.readouterr().err


def test_missing_scenario_file_is_usage_error(capsys):
    assert main(["sweep", "--param", "q", "--grid", "1", "--scenario", "/no/such/file"]) == 2


def test_validate_all_anchors_pass(capsys):
    code = main(["validate"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


@pytest.mark.parametrize("option", [["--set", "k_coeff=1e300"], ["--set", "bogus=1"],
                                    ["--scenario", "scenario.toml"]])
def test_validate_refuses_scenario_options(option, capsys):
    # the anchors are fixed to the paper's setting; a scenario option would be ignored
    assert main(["validate", *option]) == 2
    captured = capsys.readouterr()
    assert "unrecognized arguments" in captured.err and captured.out == ""


@pytest.mark.parametrize("link", ["uplink", "downlink"])
@pytest.mark.parametrize("command", [["optimize"], ["surface", "--steps", "3"],
                                     ["sweep", "--param", "q", "--grid", "819200"],
                                     ["compare", "--trials", "1"]])
def test_zero_rate_snr_is_usage_error(command, link, capsys):
    assert main([*command, "--set", f"snr_{link}=1e-300"]) == 2
    captured = capsys.readouterr()
    assert f"snr_{link}=1e-300" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", [
    ["sweep", "--param", "f_server", "--grid", "3e9", "--set", "b_mbps=5e-316"],
    ["sweep", "--param", "f_local", "--grid", "1e8", "--set", "b_mbps=5e-316"],
    ["sweep", "--param", "q", "--grid", "819200"],
    ["sweep", "--param", "b", "--grid", "5e-310"],
    ["surface", "--steps", "3"],
])
def test_a_link_rate_that_underflows_to_zero_is_usage_error(command, capsys):
    # b*log2(1 + 1e-15) on a subnormal b rounds to 0: a Python-float sweep raised ZeroDivisionError,
    # and the numpy evaluations printed a divide-by-zero RuntimeWarning ahead of the error line
    box = ["--set", "b_min_mbps=1e-316", "--set", "b_max_mbps=1e-315", "--set", "snr_uplink=1e-15"]
    assert main([*command, *box]) == 2
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ") and "non-finite" in line
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["surface", "--steps", "3", "--set", "f_local_ghz=1e295"], "non-finite surface cell"),
        (["optimize", "--set", "f_local_ghz=1e295"], "non-finite gap reference"),
        (["compare", "--trials", "2", "--set", "f_local_ghz=1e295"], "non-finite gap reference"),
        (["sweep", "--param", "f_local", "--grid", "1e5,1e300"], "non-finite sweep value"),
    ],
)
def test_overflowing_local_cpu_is_usage_error(argv, message, capsys):
    # f_local**2 overflows a float; it used to escape as an OverflowError traceback
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize("argv", [
    ["sweep", "--param", "f_server", "--grid", "1e9,nan"],
    ["sweep", "--param", "q", "--grid", "1e6,inf"],
])
def test_non_finite_grid_value_is_usage_error(argv, capsys):
    # used to read "non-finite sweep value ...: the scenario overflows the model"
    assert main(argv) == 2
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()
    assert line.startswith("error: sweep grid values must be finite")
    assert captured.out == ""


def test_cli_import_loads_no_network_xml_or_anchor_modules():
    # a fresh interpreter: xml.sax.saxutils used to pull in urllib.request, http, email, ssl and socket
    unwanted = ["xml.sax", "urllib.request", "http", "email", "ssl", "socket", "edgeprice.verification"]
    import edgeprice

    env = dict(os.environ, PYTHONPATH=str(Path(edgeprice.__file__).parents[1]))
    code = f"import sys, edgeprice.cli; print([m for m in {unwanted!r} if m in sys.modules])"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                            check=True)
    assert result.stdout.strip() == "[]"


def test_star_import_binds_the_api_and_no_module():
    # importing a submodule binds its name in the package; `from edgeprice import *` must not take it
    import edgeprice

    values = {name: getattr(edgeprice, name) for name in edgeprice.__all__}
    assert [name for name, value in values.items() if isinstance(value, types.ModuleType)] == []
    assert {"user_utility", "load_scenario", "disc_pso", "run_sweep"} <= values.keys()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", [["surface", "--steps", "3"], ["compare", "--trials", "1"]])
def test_overflowing_scenario_prints_only_the_error_line(command, capsys):
    # q/b overflows numpy's divide; that used to print RuntimeWarnings ahead of the error line
    assert main([*command, "--set", "b_min_mbps=1e-300", "--set", "q_kb=1e300"]) == 2
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ") and "non-finite" in line
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["compare", "--trials", "0"], "n_trials"),
        (["optimize", "--set", "f_max_ghz=inf"], "f_max=inf"),
        pytest.param(["optimize", "--n-max", "-1"], "n_max=-1: must be >= 0", id="argv2-n_max"),
        (["optimize", "--set", "k_coeff=inf"], "k=inf"),
        pytest.param(["optimize", "--p-n", "0"], "p_n=0: must be >= 4", id="argv4-p_n"),
        pytest.param(["optimize", "--algo", "de", "--p-n", "3"], "p_n=3: must be >= 4", id="argv5-p_n"),
        (["optimize", "--set", "snr_mode=db-to-linear", "--set", "snr_uplink=4000"], "snr_uplink"),
        (["optimize", "--set", "k_coeff=1e300"], "non-finite gap reference"),
        (["compare", "--trials", "2", "--set", "k_coeff=1e300"], "non-finite gap reference"),
        (["surface", "--set", "k_coeff=1e300"], "non-finite surface cell"),
        (["sweep", "--param", "q", "--grid", "819200", "--set", "b_mbps=nan"], "b=nan"),
        (["sweep", "--param", "q", "--grid", "819200", "--set", "f_server_ghz=inf"], "f_server=inf"),
        pytest.param(["optimize", "--algo", "ga", "--n-max", "2.5", "--epsilon", "1e-15"],
                     "argument --n-max: invalid int value: '2.5'", id="argv12-n_max=2.5"),
        pytest.param(["optimize", "--p-n", "4.9"], "argument --p-n: invalid int value: '4.9'",
                     id="argv13-p_n=4.9"),
        pytest.param(["optimize", "--p-n", "inf"], "argument --p-n: invalid int value: 'inf'",
                     id="argv14-p_n=inf"),
        (["optimize", "--scenario", "{dir}"], "Is a directory"),
        (["EDGEPRICE_SCENARIO={dir}", "surface", "--steps", "3"], "Is a directory"),
        (["surface", "--steps", "3", "--plot", "{dir}"], "Is a directory"),
        (["sweep", "--param", "q", "--grid", "819200", "--plot", "{dir}"], "Is a directory"),
        (["sweep", "--param", "q", "--grid", "819200", "--out", "{dir}"], "Is a directory"),
        (["compare", "--trials", "1", "--out", "{dir}"], "Is a directory"),
        (["compare", "--trials", "1", "--plot", "{dir}"], "Is a directory"),
        (["optimize", "--seed", "-1"], "seed=-1: must be >= 0"),
        (["compare", "--trials", "1", "--seed", "-5"], "seed=-5: must be >= 0"),
        (["validate", "--seed", "-1"], "seed=-1: must be >= 0"),
        (["validate", "--trials", "0"], "n_trials must be >= 1"),
        (["compare", "--trials", "-1"], "error: n_trials must be >= 1"),
        (["compare", "--trials", "-1", "--randomize"], "error: n_trials must be >= 1"),
        (["compare", "--trials", "2", "--randomize", "--set", "k_coeff=1e300"], "non-finite gap reference"),
        (["optimize", "--algo", "bogus"], "argument --algo: invalid choice: 'bogus'"),
    ],
)
def test_bad_input_is_usage_error(argv, message, tmp_path, monkeypatch, capsys):
    # "{dir}" stands for an existing directory; a leading NAME=value sets the environment.
    # An explicit id names the setting under test, in the form of the generated ids.
    argv = [arg.replace("{dir}", str(tmp_path)) for arg in argv]
    if "=" in argv[0]:
        monkeypatch.setenv(*argv.pop(0).split("=", 1))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("settings, error", [
    (["snr_mode=db-to-linear", "snr_uplink=-3"], None),
    (["snr_mode=db-to-linear", "snr_uplink=-400"], "snr_uplink=-400.0: log2(1 + snr) is 0, so the link carries"),
    (["snr_mode=db-to-linear", "snr_uplink=-5000"], "snr_uplink=-5000.0: log2(1 + snr) is 0, so the link carries"),
    (["snr_uplink=-1"], "snr_uplink=-1.0: must be strictly positive"),
])
def test_a_negative_db_figure_runs_unless_its_link_carries_nothing(settings, error, capsys):
    # -3 dB is an SNR of 0.50; 1 + 10^-40 rounds to 1, and 10^-500 underflows to 0; a raw figure stays positive
    code = main(["optimize", *(arg for setting in settings for arg in ("--set", setting))])
    captured = capsys.readouterr()
    if error is None:
        assert (code, captured.err) == (0, "") and "best value: 44.4672746\n" in captured.out
    else:
        assert (code, captured.out) == (2, "") and captured.err.startswith(f"error: invalid scenario: {error}")
        assert len(captured.err.splitlines()) == 1 and ";" not in captured.err  # one entry


@pytest.mark.parametrize("argv, entry", [
    (["surface", "--steps", "200000"], "surface_grid"),
    (["compare", "--trials", "20000000"], "compare_optimizers"),
])
def test_out_of_memory_is_usage_error(argv, entry, monkeypatch, capsys):
    # a 298 GiB grid or a 20-million-trial batch; the library call raises at once, nothing is allocated
    def exhausted(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(f"edgeprice.cli.{entry}", exhausted)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: out of memory")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("last, message", [
    ("5e9", "must be strictly increasing, got 5000000000.0 at index 300 after 6000000000.0"),
    ("nan", "values must be finite, got nan at index 300"),
])
def test_sweep_grid_error_names_the_bad_value_not_the_grid(last, message, capsys):
    # a 301-value grid whose last value is bad used to print one line of about 5355 characters
    grid = ",".join([*map(repr, np.linspace(1e9, 6e9, 300).tolist()), last])
    assert main(["sweep", "--param", "f_server", "--grid", grid]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line == f"error: sweep grid {message}" and len(line) < 200


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# 301-point grids over each sweepable parameter (canonical units), with the plotted series
_PINNED_SWEEPS = {
    "f_server": ((1e9, 6e9), "u_user"),
    "b": ((1e5, 1e6), "price"),
    "q": ((100 * 8192.0, 500 * 8192.0), "u_server"),
    "f_local": ((1e8, 1e9), "u_user"),
}
# SHA-256 of the --out CSV, the stdout CSV and the --plot line SVG
_SWEEP_SHA256 = {
    "f_server": ("494c4288cd3104d37f52e49fce5457835885f0ca73a5773c298c128ba07beae7",
                 "f0f457b7579039d627f91cb0a5b2e76deb6df9a29cc492729095906f37ac23e4",
                 "f5bfd0db2424407832bdd57b5b6aa5d5ba57bb41dbede5f6e112e5f4ddb5bd12"),
    "b": ("76f47dc0138ced08810ba2c5e9f9be30d90cd8380189550b4bf0c6cc49895a86",
          "b80aa86dd4e49073f0f3ba3f10752537e0d0228dfcfd11740372c5a6e6f17e9b",
          "bdd7ffb9dc2df2e3ec543a3380ea72a9e2201aa6a336f6039ecd6e0745a6baca"),
    "q": ("a4b9da973f70fa95b1dd5c3ec4fb101c0eef8783b577879bb787accd5a82c436",
          "bd6245e44e81ea5e57898baede037ea0be745ba7c50d131e1c8da8337530147b",
          "4f38142d266021ba19f64c422a47ff8845fc4bf53928957a747c00cf0791cd18"),
    "f_local": ("16a1033182a11e383e6b79cc7ac2a234b26e114871ecab57c2c78bcece18ffc1",
                "0b7355ea85ffab6e899647d27d5c0379afeb0b0186fadaf9bbd202c2494373d6",
                "bfb7453bf85fbce0c22a4bd15bff70bf12bd1e294096e6d7ee4cdc7d737fc67d"),
}


@pytest.mark.parametrize("param", list(_PINNED_SWEEPS))
def test_sweep_output_bytes_are_pinned(param, tmp_path, capsys):
    (lo, hi), series = _PINNED_SWEEPS[param]
    grid = ",".join(repr(v) for v in np.linspace(lo, hi, 301).tolist())
    argv = ["sweep", "--param", param, "--grid", grid, "--series", series]
    out, plot = tmp_path / "sweep.csv", tmp_path / "sweep.svg"
    assert main(argv + ["--out", str(out), "--plot", str(plot)]) == 0
    assert main(argv) == 0
    stdout = capsys.readouterr().out.encode()
    digests = (_sha256(out.read_bytes()), _sha256(stdout), _sha256(plot.read_bytes()))
    assert digests == _SWEEP_SHA256[param]


def test_compare_output_bytes_are_pinned(tmp_path, capsys):
    out, plot = tmp_path / "cmp.csv", tmp_path / "cmp.svg"
    argv = ["compare", "--trials", "20", "--randomize", "--seed", "3", "--out", str(out),
            "--plot", str(plot)]
    assert main(argv) == 0
    stdout = capsys.readouterr().out.encode()
    assert _sha256(out.read_bytes()) == "205e8024e96a26b1181b2dc100dbff08aeb5bd4f6fcebab55dab532b7b96e04d"
    assert _sha256(stdout) == "3729b494badc53374b0bdd1247d2fcc92bfaec3326a210747887dd58e41dd465"
    assert _sha256(plot.read_bytes()) == "06a16cc3a748700b375c6b48020f150a370c3bd63418c74501adb7722b354a11"



def test_compare_plots_the_searcher_named_by_plot_algo(tmp_path, capsys):
    # GA's five trials end at five points, disc-pso's all on the box corner
    report = compare_optimizers(default_scenario(), SwarmConfig(), 5)
    for name in ("ga", "disc-pso"):
        plot = tmp_path / f"{name}.svg"
        assert main(["compare", "--trials", "5", "--plot", str(plot), "--plot-algo", name]) == 0
        distinct = {(p.f_server, p.b) for p in report.stats[name].position_list}
        text = plot.read_text(encoding="utf-8")
        assert text.count("<circle ") == len(distinct) == {"ga": 5, "disc-pso": 1}[name]
        assert text.endswith("\n</svg>\n")


# ---------------------------------------------------------------- the CLI over random scenarios
# Every command that takes a scenario, run in process on random draws given as --set pairs: a draw
# either runs (exit 0) or is refused with one error line (exit 2), and nothing the CLI prints is
# inf or NaN. The draws are random_scenario's moderate ones, then support.wide_settings' draws over
# what validate() accepts.

_SWEEP_GRIDS = {"f_server": "1e9,3.5e9,6e9", "b": "1e5,5e5,1e6", "q": "819200,4096000",
                "f_local": "1e8,5e8,1e9"}
_NON_FINITE = re.compile(r"(?i)\b(?:nan|inf(?:inity)?)\b")


def _settings(s) -> dict:
    """``s`` as settings in config units; the box keeps its default."""
    return {"q_kb": s.q / 8192.0, "c_cycles_per_bit": s.c, "f_local_ghz": s.f_local / 1e9, "k_coeff": s.k,
            "p_u_w": s.p_u, "p_d_w": s.p_d, "alpha": s.alpha, "w1": s.w1, "w2": s.w2, "mu": s.mu,
            "snr_uplink": s.channel.snr_uplink, "snr_downlink": s.channel.snr_downlink,
            "snr_mode": s.channel.snr_mode}


def _pairs(settings: dict) -> list[str]:
    return [arg for key, value in settings.items() for arg in ("--set", f"{key}={value}")]


@pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning ahead of the error line fails the draw
def test_every_command_exits_cleanly_with_finite_output_on_random_scenarios(capsys):
    from edgeprice.verification import random_scenario

    def exit_codes(draw) -> list[int]:
        rng = np.random.default_rng(9)
        codes = []
        for i in range(200):
            pairs = draw(rng)
            param = list(_SWEEP_GRIDS)[i % len(_SWEEP_GRIDS)]
            commands = [["optimize", "--algo", algo, "--n-max", "5", "--seed", str(i)] for algo in ALGORITHMS]
            # every other draw redraws (q, f_local) per trial, whose gap references are columns
            compare = ["compare", "--trials", "2", "--n-max", "5", "--seed", str(i)] + ["--randomize"] * (i % 2)
            commands += [["surface", "--steps", "5"],
                         ["sweep", "--param", param, "--grid", _SWEEP_GRIDS[param]],
                         compare]
            for command in commands:
                code = main([*command, *pairs])
                captured = capsys.readouterr()
                assert code in (0, 2), (command, pairs)
                assert "Traceback" not in captured.err
                assert code == 0 or (captured.out == "" and len(captured.err.splitlines()) == 1)
                assert not _NON_FINITE.search(captured.out), (command, pairs, captured.out)
                codes.append(code)
        return codes

    codes = exit_codes(lambda rng: _pairs(_settings(random_scenario(rng))))
    assert codes.count(0) > 0.9 * len(codes)  # the draws are valid scenarios; most must run
    assert 0 in exit_codes(lambda rng: _pairs(wide_settings(rng)))  # most overflow the model; not all
    # the same valid scenarios at SNRs between 1e-10 and 1, given as negative dB figures
    codes = exit_codes(lambda rng: _pairs({**_settings(random_scenario(rng)), **negative_db_figures(rng)}))
    assert codes.count(0) > 0.9 * len(codes)
