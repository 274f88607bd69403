import csv

import pytest

from edgeprice.cli import main

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


def test_optimize_deterministic_output(capsys):
    code = main(["optimize", "--algo", "disc-pso", "--seed", "7"])
    assert code == 0
    first = capsys.readouterr().out
    assert main(["optimize", "--algo", "disc-pso", "--seed", "7"]) == 0
    assert capsys.readouterr().out == first
    assert "best value" in first


def test_compare_emits_csv(tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    code = main(["compare", "--trials", "2", "--seed", "5", "--out", str(out)])
    assert code == 0
    with open(out, newline="") as handle:
        parsed = list(csv.reader(handle))
    assert len(parsed) == 1 + 4 * 2
    stdout = capsys.readouterr().out
    assert "disc-pso" in stdout


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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["surface", "--steps", "3", "--set", "f_local_ghz=1e295"], "non-finite surface cell"),
        (["optimize", "--set", "f_local_ghz=1e295"], "non-finite objective"),
        (["compare", "--trials", "2", "--set", "f_local_ghz=1e295"], "non-finite objective"),
        (["sweep", "--param", "f_local", "--grid", "1e5,1e300"], "non-finite sweep value"),
    ],
)
def test_overflowing_local_cpu_is_usage_error(argv, message, capsys):
    # f_local**2 overflows a float; it used to escape as an OverflowError traceback
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["compare", "--trials", "0"], "n_trials"),
        (["optimize", "--set", "f_max_ghz=inf"], "f_max=inf"),
        (["optimize", "--set", "n_max=-1"], "n_max"),
        (["optimize", "--set", "k_coeff=inf"], "k=inf"),
        (["optimize", "--set", "p_n=0"], "p_n"),
        (["optimize", "--algo", "de", "--set", "p_n=3"], "p_n"),
        (["optimize", "--set", "snr_mode=db-to-linear", "--set", "snr_uplink=4000"], "snr_uplink"),
        (["optimize", "--set", "k_coeff=1e300"], "non-finite objective"),
        (["compare", "--trials", "2", "--set", "k_coeff=1e300"], "non-finite objective"),
        (["surface", "--set", "k_coeff=1e300"], "non-finite surface cell"),
        (["sweep", "--param", "q", "--grid", "819200", "--set", "b_mbps=nan"], "b=nan"),
        (["sweep", "--param", "q", "--grid", "819200", "--set", "f_server_ghz=inf"], "f_server=inf"),
        (["optimize", "--algo", "ga", "--set", "n_max=2.5", "--set", "epsilon=1e-15"], "n_max=2.5"),
        (["optimize", "--set", "p_n=4.9"], "p_n=4.9"),
        (["optimize", "--set", "p_n=inf"], "p_n=inf"),
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
    ],
)
def test_bad_input_is_usage_error(argv, message, tmp_path, monkeypatch, capsys):
    # "{dir}" stands for an existing directory; a leading NAME=value sets the environment
    argv = [arg.replace("{dir}", str(tmp_path)) for arg in argv]
    if "=" in argv[0]:
        monkeypatch.setenv(*argv.pop(0).split("=", 1))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""
