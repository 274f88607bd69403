import csv
import dataclasses
import hashlib
import os
import re
import stat
import tracemalloc
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from edgeprice import harness, optimizers, svgplot
from edgeprice.harness import (
    ALGORITHMS,
    SWEEP_CSV_HEADER,
    SweepRow,
    SweepSpec,
    box_maximum_utility,
    compare_optimizers,
    corner_allocation,
    emit_comparison_csv,
    emit_csv,
    emit_positions_plot,
    emit_surface_plot,
    emit_sweep_plot,
    run_sweep,
    surface_grid,
    _draw_trial_scenarios,
)
from edgeprice.offload import Allocation
from edgeprice.optimizers import SwarmConfig
from edgeprice.pricing import dynamic_price, dynamic_utility_objective, user_utility
from edgeprice.scenario import default_scenario

GHZ = 1e9
MBPS = 1e6

USER_DELTAS = (5.40672, 1.80224, 0.90112, 0.540672, 0.360448)
SERVER_DELTAS = (2.70336, 0.90112, 0.45056, 0.270336, 0.180224)


@pytest.fixture
def defaults():
    return default_scenario()


@pytest.fixture
def f_sweep_spec(defaults):
    return SweepSpec(
        parameter="f_server",
        grid=tuple(f * GHZ for f in (1, 2, 3, 4, 5, 6)),
        scenario=defaults,
        allocation=Allocation(6 * GHZ, 0.1 * MBPS),
    )


def test_f_sweep_matches_reference_deltas(f_sweep_spec):
    rows = run_sweep(f_sweep_spec)
    assert len(rows) == 6
    for (a, b), expected in zip(zip(rows, rows[1:]), USER_DELTAS):
        assert b.u_user - a.u_user == pytest.approx(expected, abs=1e-6)
    for (a, b), expected in zip(zip(rows, rows[1:]), SERVER_DELTAS):
        assert b.u_server - a.u_server == pytest.approx(expected, abs=1e-6)


def test_sweep_rows_reproducible_from_model(f_sweep_spec):
    rows = run_sweep(f_sweep_spec)
    for row in rows:
        summary = user_utility(
            f_sweep_spec.scenario, Allocation(row.value, f_sweep_spec.allocation.b)
        )
        assert row.price == summary.price
        assert row.u_user == summary.u_user
        assert row.u_server == summary.u_server
        assert row.t_offload == summary.time.t_offload
        assert row.t_save == summary.time.t_save
        assert row.e_save == summary.energy.e_save


@pytest.mark.parametrize(
    "parameter, grid",
    [
        ("f_server", (1.3e9, 2.9e9, 4.41e9, 6e9)),
        ("b", (1e5, 3.3e5, 7.7e5)),
        ("q", (819_200.0, 2_222_222.0, 4_096_000.0)),
        ("f_local", (1e8, 3.3e8, 9.9e8)),
    ],
)
def test_every_sweep_row_equals_its_scalar_summary(defaults, parameter, grid):
    alloc = Allocation(4.4e9, 6.6e5)
    rows = run_sweep(SweepSpec(parameter, grid, defaults, alloc))
    for row, value in zip(rows, grid):
        if parameter in ("f_server", "b"):
            s, at = defaults, dataclasses.replace(alloc, **{parameter: value})
        else:
            s, at = dataclasses.replace(defaults, **{parameter: value}), alloc
        summary = user_utility(s, at)
        assert row == SweepRow(
            parameter, value, summary.price, summary.u_user, summary.u_server,
            summary.time.t_offload, summary.time.t_save, summary.energy.e_save,
        )
        assert all(type(v) is float for v in tuple(row)[1:])


def test_sweep_rows_are_immutable_records_in_csv_column_order(f_sweep_spec):
    row = run_sweep(f_sweep_spec)[0]
    assert tuple(row) == tuple(getattr(row, name) for name in ("parameter", *SWEEP_CSV_HEADER[1:]))
    assert repr(row).startswith(f"SweepRow(parameter='f_server', value={row.value!r}, price=")
    with pytest.raises(AttributeError):
        row.price = 0.0


def test_single_point_grid_equals_direct_evaluation(defaults):
    spec = SweepSpec(
        parameter="q",
        grid=(819_200.0,),
        scenario=defaults,
        allocation=Allocation(6 * GHZ, 1 * MBPS),
    )
    (row,) = run_sweep(spec)
    summary = user_utility(
        dataclasses.replace(defaults, q=819_200.0), Allocation(6 * GHZ, 1 * MBPS)
    )
    assert row.u_user == summary.u_user and row.price == summary.price


def test_q_and_f_local_sweeps_vary_scenario(defaults):
    alloc = Allocation(6 * GHZ, 1 * MBPS)
    rows = run_sweep(
        SweepSpec("q", tuple(q * 8192.0 for q in (100, 300, 500)), defaults, alloc)
    )
    assert all(b.u_user > a.u_user for a, b in zip(rows, rows[1:]))
    rows = run_sweep(
        SweepSpec("f_local", (1e8, 5e8, 1e9), defaults, alloc)
    )
    assert rows[0].u_user > rows[1].u_user  # faster local CPU, less to gain


@pytest.mark.parametrize(
    "grid, message",
    [
        ((), "non-empty"),
        ((2e9, 2e9), "strictly increasing"),
        ((3e9, 2e9), "strictly increasing"),
        ((1e8, 2e9), "outside"),
        ((1e9, 9e9), "outside"),
        ((1e9, float("nan")), "values must be finite"),  # NaN passed the order and range checks
        ((float("nan"), 2e9), "values must be finite"),
        ((1e9, float("inf")), "values must be finite"),
    ],
)
def test_sweep_grid_validation(defaults, grid, message):
    spec = SweepSpec("f_server", grid, defaults, Allocation(6 * GHZ, 1 * MBPS))
    with pytest.raises(ValueError, match=message):
        run_sweep(spec)


def test_sweep_rejects_invalid_scenario(defaults):
    bad = dataclasses.replace(defaults, mu=2.0)
    spec = SweepSpec("f_server", (1e9, 2e9), bad, Allocation(6 * GHZ, 1 * MBPS))
    with pytest.raises(ValueError, match="mu"):
        run_sweep(spec)


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"q": np.array([1e5, -1e5])}, r"invalid scenario: q=array\(\[ 100000., -100000.\]\): must be strictly"),
        # valid, and as long as the grid: broadcast, each row would pair a q with a grid value
        ({"q": np.array([1e5, 2e5]), "mu": np.array([0.5, 0.6])}, "one scenario, but it holds arrays in q, mu$"),
        # the shape of a surface's cells: each cell would pair a q with a purchase
        ({"q": np.array([1e5, 4e6])[:, None, None]}, "one scenario, but it holds arrays in q$"),
    ],
)
def test_sweep_refuses_an_array_scenario_by_name(defaults, fields, message):
    # a surface and a comparison, plain or randomized, refuse it too, by the same message under their
    # own name: a comparison's trials would otherwise read the array as their workload columns
    scenario = dataclasses.replace(defaults, **fields)
    spec = SweepSpec("f_server", (1e9, 2e9), scenario, Allocation(6 * GHZ, 1 * MBPS))
    with pytest.raises(ValueError, match=message) as sweep:
        run_sweep(spec)
    with pytest.raises(ValueError, match=message) as surface:
        surface_grid(scenario, 3, 3)
    assert str(surface.value) == str(sweep.value).replace("a sweep pins", "a surface pins")
    for randomize in (False, True):
        with pytest.raises(ValueError, match=message) as comparison:
            compare_optimizers(scenario, SwarmConfig(p_n=4, n_max=2), 2, randomize=randomize)
        assert str(comparison.value) == str(sweep.value).replace("a sweep pins", "a comparison pins")


@pytest.mark.parametrize(
    "allocation, names",
    [
        (Allocation(np.array([6e9, 5e9]), 1e6), "f_server"),
        (Allocation(6e9, np.array([[1e6]])), "b"),
        (Allocation(np.array([6e9]), np.array([1e6])), "f_server, b"),
    ],
)
def test_sweep_refuses_an_array_purchase_by_name(defaults, allocation, names):
    # as an array scenario is refused, by the same ndim rule; the range check would otherwise raise
    # numpy's "truth value of an array with more than one element is ambiguous"
    spec = SweepSpec("q", (1e5,), defaults, allocation)
    message = f"^a sweep pins one purchase, but allocation holds arrays in {names}$"
    with pytest.raises(ValueError, match=message):
        run_sweep(spec)


def test_a_zero_dimensional_array_purchase_is_one_number(defaults):
    rows = run_sweep(SweepSpec("q", (1e5, 2e5), defaults, Allocation(np.array(6e9), np.array(1e6))))
    assert rows == run_sweep(SweepSpec("q", (1e5, 2e5), defaults, Allocation(6e9, 1e6)))


@pytest.mark.parametrize(
    "make_grid",
    [
        lambda: np.array([1e9, 2e9, 3e9]),
        lambda: [1e9, 2e9, 3e9],
        lambda: (1_000_000_000, 2_000_000_000, 3_000_000_000),
        lambda: (f for f in (1e9, 2e9, 3e9)),
    ],
    ids=["ndarray", "list", "int-tuple", "generator"],
)
def test_a_sweep_row_value_is_a_float_whatever_the_grid(defaults, make_grid):
    # every other column comes from .tolist(); a generator grid is read once, by the check
    allocation = Allocation(6 * GHZ, 1 * MBPS)
    rows = run_sweep(SweepSpec("f_server", make_grid(), defaults, allocation))
    assert rows == run_sweep(SweepSpec("f_server", (1e9, 2e9, 3e9), defaults, allocation))
    assert [type(row.value) for row in rows] == [float] * 3


@pytest.mark.parametrize(
    "allocation",
    [Allocation(6 * GHZ, float("nan")), Allocation(float("inf"), 1 * MBPS), Allocation(0.0, 1 * MBPS)],
)
def test_sweep_rejects_non_finite_or_non_positive_allocation(defaults, allocation):
    # NaN passed the old "> 0" reading of this check and gave a row of NaNs
    spec = SweepSpec("q", (819200.0,), defaults, allocation)
    with pytest.raises(ValueError, match="finite and strictly positive"):
        run_sweep(spec)


@pytest.mark.parametrize(
    "parameter, allocation, name",
    [
        ("f_server", Allocation(6 * GHZ, 50 * MBPS), "b"),
        ("b", Allocation(0.5 * GHZ, 1 * MBPS), "f_server"),
        ("q", Allocation(6 * GHZ, 0.05 * MBPS), "b"),
        ("f_local", Allocation(7 * GHZ, 1 * MBPS), "f_server"),
    ],
)
def test_sweep_rejects_a_fixed_purchase_outside_the_box(defaults, parameter, allocation, name):
    # a grid value outside the box was refused, a pinned purchase outside it was swept
    grid = {"f_server": (1e9, 2e9), "b": (1e5, 2e5), "q": (819200.0,), "f_local": (1e8, 5e8)}[parameter]
    with pytest.raises(ValueError, match=rf"^allocation {name}=\S+ outside the valid {name} range \["):
        run_sweep(SweepSpec(parameter, grid, defaults, allocation))


def test_sweep_replaces_the_swept_purchase_coordinate(defaults):
    # only the coordinate the sweep holds fixed must lie in the box
    inside = SweepSpec("b", (1e5, 2e5), defaults, Allocation(6 * GHZ, 1 * MBPS))
    outside = dataclasses.replace(inside, allocation=Allocation(6 * GHZ, 50 * MBPS))
    assert run_sweep(outside) == run_sweep(inside)


@pytest.mark.parametrize("parameter, grid", [("q", (819200.0,)), ("f_server", (1e9, 2e9))])
def test_sweep_rejects_overflowing_model_values(defaults, parameter, grid):
    # k = 1e300 passes validate() but overflows the energy terms to inf
    huge_k = dataclasses.replace(defaults, k=1e300)
    spec = SweepSpec(parameter, grid, huge_k, Allocation(6 * GHZ, 1 * MBPS))
    with pytest.raises(ValueError, match="non-finite"):
        run_sweep(spec)


@pytest.fixture
def zero_rate(defaults):
    """Passes validate(), but b*log2(1 + 1e-15) rounds to 0 on its subnormal bandwidth box."""
    channel = dataclasses.replace(defaults.channel, snr_uplink=1e-15)
    return dataclasses.replace(defaults, b_range=(1e-310, 1e-309), channel=channel)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("parameter, grid", [("f_server", (3e9,)), ("b", (5e-310,)), ("q", (819200.0,)),
                                             ("f_local", (1e8,))])
def test_sweep_refuses_a_link_rate_that_underflows_to_zero(zero_rate, parameter, grid):
    spec = SweepSpec(parameter, grid, zero_rate, Allocation(3e9, 5e-310))
    with pytest.raises(ValueError, match="non-finite"):
        run_sweep(spec)


def test_sweep_rejects_unknown_parameter(defaults):
    spec = SweepSpec("power", (1.0, 2.0), defaults, Allocation(6 * GHZ, 1 * MBPS))
    with pytest.raises(ValueError, match="unknown sweep parameter"):
        run_sweep(spec)


# ---------------------------------------------------------------- surface

def test_surface_two_by_two_equals_direct(defaults):
    grid = surface_grid(defaults, 2, 2)
    assert grid.f_values == (1e9, 6e9)
    assert grid.b_values == (1e5, 1e6)
    for i, f in enumerate(grid.f_values):
        for j, b in enumerate(grid.b_values):
            summary = user_utility(defaults, Allocation(f, b))
            assert grid.u_user[i, j] == pytest.approx(summary.u_user, rel=1e-12)
            assert grid.price[i, j] == pytest.approx(summary.price, rel=1e-12)
            assert grid.u_server[i, j] == pytest.approx(summary.u_server, rel=1e-12)


def test_surface_cells_equal_scalar_closed_forms(defaults):
    grid = surface_grid(defaults, 7, 5)
    objective = dynamic_utility_objective(defaults)
    assert grid.u_user.shape == grid.price.shape == grid.u_server.shape == (7, 5)
    for i, f in enumerate(grid.f_values):
        for j, b in enumerate(grid.b_values):
            alloc = Allocation(f, b)
            assert grid.u_user[i, j] == objective(alloc)
            assert grid.price[i, j] == dynamic_price(defaults, alloc)
            assert grid.u_server[i, j] == user_utility(defaults, alloc).u_server


def test_surface_cells_equal_sweep_rows(defaults):
    grid = surface_grid(defaults, 9, 4)
    for i, f in enumerate(grid.f_values):
        spec = SweepSpec("b", grid.b_values, defaults, Allocation(f, defaults.b_range[1]))
        rows = run_sweep(spec)
        for series in ("price", "u_user", "u_server"):
            assert [getattr(row, series) for row in rows] == getattr(grid, series)[i].tolist(), (f, series)


def test_surface_argmax_at_corner(defaults):
    grid = surface_grid(defaults, 100, 100)
    assert grid.argmax_u_user() == corner_allocation(defaults)


def test_surface_price_monotone(defaults):
    grid = surface_grid(defaults, 20, 20)
    assert (np.diff(grid.price, axis=0) < 0).all()
    assert (np.diff(grid.price, axis=1) < 0).all()


def test_surface_rejects_overflowing_model_values(defaults):
    with pytest.raises(ValueError, match="non-finite surface cell"):
        surface_grid(dataclasses.replace(defaults, k=1e300), 5, 5)


@pytest.mark.filterwarnings("error")
def test_surface_refuses_a_link_rate_that_underflows_to_zero(zero_rate):
    with pytest.raises(ValueError, match="non-finite"):
        surface_grid(zero_rate, 3, 3)


def test_surface_rejects_single_step(defaults):
    with pytest.raises(ValueError, match="steps"):
        surface_grid(defaults, 1, 10)


@pytest.mark.parametrize("steps, message", [
    ((2.0, 3), r"^f_steps=2\.0: must be an integer$"), ((3, True), r"^b_steps=True: must be an integer$"),
    ((np.float64(3.0), 3), r"^f_steps=np\.float64\(3\.0\): must be an integer$"),
    ((1, 2), r"^f_steps=1: must be >= 2$"), ((2, 1), r"^b_steps=1: must be >= 2$"),
])
def test_surface_refuses_a_step_count_that_is_not_an_integer(defaults, steps, message):
    with pytest.raises(ValueError, match=message):
        surface_grid(defaults, *steps)
    assert surface_grid(defaults, np.int64(2), 3).u_user.tolist() == surface_grid(defaults, 2, 3).u_user.tolist()
    assert surface_grid(defaults, 3, 2).u_user.shape == (3, 2)


# ---------------------------------------------------------------- compare

def test_compare_single_trial_has_four_rows(defaults):
    report = compare_optimizers(defaults, SwarmConfig(seed=3), 1)
    assert set(report.stats) == set(ALGORITHMS)
    assert all(len(st.value_list) == 1 for st in report.stats.values())


def test_one_table_lists_the_searchers_by_name_in_report_order(defaults):
    # the CLI's --algo choices, the compare row order and the benchmark's metric names read these keys
    assert harness.ALGORITHMS is optimizers.ALGORITHMS
    assert tuple(ALGORITHMS) == ("disc-pso", "pso", "ga", "de")
    assert all(searcher.name == name for name, searcher in ALGORITHMS.items())
    public = (optimizers.disc_pso, optimizers.baseline_pso, optimizers.baseline_ga, optimizers.baseline_de)
    assert all(a is b for a, b in zip(ALGORITHMS.values(), public, strict=True))
    assert tuple(compare_optimizers(defaults, SwarmConfig(seed=3), 1).stats) == tuple(ALGORITHMS)


def test_compare_seeds_are_paired(defaults):
    report = compare_optimizers(defaults, SwarmConfig(seed=3), 4)
    seed_lists = {st.seed_list for st in report.stats.values()}
    assert len(seed_lists) == 1


def test_compare_u_max_reference(defaults):
    report = compare_optimizers(defaults, SwarmConfig(seed=3), 2)
    assert report.u_max == box_maximum_utility(defaults)
    assert report.u_max_list == (report.u_max, report.u_max)


@pytest.mark.parametrize("k", [1e300, np.array([[1e-27], [1e300]])], ids=["scalar", "column"])
def test_gap_reference_refuses_an_overflowing_scenario_silently(k):
    # a scenario that passes validate() can overflow the model: the reference used to be inf,
    # and on (T, 1) columns numpy warned of the overflow first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^non-finite gap reference \(inf or NaN\)"):
            box_maximum_utility(default_scenario(k=k))


def test_compare_randomized_mode(defaults):
    report = compare_optimizers(defaults, SwarmConfig(seed=5), 3, randomize=True)
    assert len(set(report.u_max_list)) > 1  # scenarios differ per trial
    for stats in report.stats.values():
        assert len(stats.value_list) == 3


@pytest.mark.parametrize("randomize", [False, True])
def test_compare_trials_equal_replayed_single_runs(defaults, randomize):
    # the trials of each searcher run as one batch; each equals its single run
    cfg = SwarmConfig(seed=7)
    report = compare_optimizers(defaults, cfg, 6, randomize=randomize)
    scenarios = [defaults] * 6
    if randomize:  # the (6, 1) columns of the drawn scenario, one scalar scenario per row
        drawn = _draw_trial_scenarios(defaults, cfg.seed, 6)
        scenarios = [dataclasses.replace(defaults, q=q, f_local=f_local)
                     for q, f_local in zip(drawn.q.ravel().tolist(), drawn.f_local.ravel().tolist())]
    for name, stats in report.stats.items():
        for i, (scenario, u_max, seed) in enumerate(zip(scenarios, report.u_max_list, stats.seed_list)):
            objective = dynamic_utility_objective(scenario)
            assert u_max == objective(corner_allocation(scenario))
            run = ALGORITHMS[name](scenario, objective, u_max, dataclasses.replace(cfg, seed=seed))
            recorded = (stats.value_list[i], stats.position_list[i],
                        stats.iteration_list[i], stats.converged_list[i])
            assert (run.best_value, run.best_position, run.iterations_used, run.converged) == recorded


@pytest.mark.parametrize("randomize", [False, True])
def test_compare_scores_each_round_in_one_call(defaults, randomize, monkeypatch):
    # one objective serves every batch: its corner value, then per algorithm the
    # initial sampling and one call per round on the (20, k) rows of the batch
    shapes = []

    def counted(s):
        objective = dynamic_utility_objective(s)

        def spy(alloc):
            shapes.append(np.shape(alloc.f_server))
            return objective(alloc)

        return spy

    monkeypatch.setattr(harness, "dynamic_utility_objective", counted)
    report = compare_optimizers(defaults, SwarmConfig(seed=3), 20, randomize=randomize)
    # box_maximum_utility's calls, for s and then the trials' scenario, then the searches
    searches = shapes[2:]
    assert len(searches) == sum(max(stats.iteration_list) + 1 for stats in report.stats.values())
    assert {shape[0] for shape in searches} == {20}


@pytest.mark.parametrize("randomize", [False, True])
@pytest.mark.parametrize("n_trials", [0, -1])
def test_compare_rejects_zero_trials(defaults, n_trials, randomize):
    # checked before any draw or broadcast, so the message is ours, not numpy's
    with pytest.raises(ValueError, match=rf"^n_trials={n_trials}: must be >= 1$"):
        compare_optimizers(defaults, SwarmConfig(), n_trials, randomize=randomize)
    assert compare_optimizers(defaults, SwarmConfig(n_max=0), 1, randomize=randomize).n_trials == 1


@pytest.mark.parametrize("randomize", [False, True])
@pytest.mark.parametrize("n_trials", [2.0, True, "2"])
def test_compare_refuses_a_trial_count_that_is_not_an_integer(defaults, n_trials, randomize):
    with pytest.raises(ValueError, match=r"^n_trials=.*: must be an integer$"):
        compare_optimizers(defaults, SwarmConfig(), n_trials, randomize=randomize)


# ---------------------------------------------------------------- csv

def _rows(defaults):
    spec = SweepSpec(
        "f_server",
        tuple(f * GHZ for f in (1, 2, 3, 4, 5, 6)),
        defaults,
        Allocation(6 * GHZ, 0.1 * MBPS),
    )
    return run_sweep(spec)


def test_csv_schema_and_round_trip(defaults, tmp_path):
    rows = _rows(defaults)
    path = tmp_path / "sweep.csv"
    emit_csv(rows, path)
    with open(path, newline="") as handle:
        parsed = list(csv.reader(handle))
    assert parsed[0] == ["param", "value", "price", "u_user", "u_server", "t_offload", "t_save", "e_save"]
    assert len(parsed) == 7
    for line, row in zip(parsed[1:], rows):
        assert line[0] == row.parameter
        for text, value in zip(line[1:], (row.value, row.price, row.u_user, row.u_server,
                                          row.t_offload, row.t_save, row.e_save)):
            assert float(text) == pytest.approx(value, rel=1e-8)  # 9 significant digits


def test_csv_empty_rows_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv([], path)
    content = path.read_text()
    assert content.strip() == "param,value,price,u_user,u_server,t_offload,t_save,e_save"


def test_csv_reemission_byte_identical(defaults, tmp_path):
    rows = _rows(defaults)
    path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(rows, path_a)
    emit_csv(rows, path_b)
    assert path_a.read_bytes() == path_b.read_bytes()


def test_comparison_csv_deterministic(defaults, tmp_path):
    cfg = SwarmConfig(seed=9)
    path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_comparison_csv(compare_optimizers(defaults, cfg, 3), path_a)
    emit_comparison_csv(compare_optimizers(defaults, cfg, 3), path_b)
    assert path_a.read_bytes() == path_b.read_bytes()
    with open(path_a, newline="") as handle:
        parsed = list(csv.reader(handle))
    assert parsed[0] == ["algorithm", "trial", "seed", "u_user_final", "iterations", "f_server_hz", "b_bps"]
    assert len(parsed) == 1 + 4 * 3


# ---------------------------------------------------------------- the one writer

@pytest.mark.parametrize("old_size", [0, 3, 100, 300_000])  # empty, shorter, and longer than the CSV
def test_rewriting_a_path_leaves_exactly_the_new_bytes(defaults, tmp_path, old_size):
    rows = _rows(defaults)
    fresh, path = tmp_path / "fresh.csv", tmp_path / "old.csv"
    emit_csv(rows, fresh)
    path.write_bytes(b"x" * old_size)
    inode = path.stat().st_ino
    emit_csv(rows, path)
    assert path.read_bytes() == fresh.read_bytes()
    assert path.stat().st_ino == inode  # rewritten, not replaced by a new file


def test_a_symlink_stays_a_symlink_and_its_target_gets_the_bytes(defaults, tmp_path):
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_bytes(b"y" * 5000)
    link.symlink_to(target)
    emit_csv(_rows(defaults), link)
    emit_csv(_rows(defaults), tmp_path / "fresh.csv")
    assert link.is_symlink() and link.readlink() == target
    assert target.read_bytes() == (tmp_path / "fresh.csv").read_bytes()


def test_a_new_file_gets_the_mode_of_a_write_text_file(tmp_path):
    old = os.umask(0o027)
    try:
        harness._write(["a,b\r\n"], tmp_path / "written.csv")
        (tmp_path / "reference.csv").write_text("a,b\r\n", encoding="utf-8")
    finally:
        os.umask(old)
    modes = {stat.S_IMODE((tmp_path / name).stat().st_mode) for name in ("written.csv", "reference.csv")}
    assert modes == {0o640}


def test_a_document_of_several_pieces_reads_back_as_its_utf8_bytes(tmp_path):
    # a three-byte and a four-byte character on each side of the first two piece boundaries
    piece = svgplot.PIECE_CHARS
    wide = "\u00e9\u20ac\U0001f600"
    text = "a" * (piece - 2) + wide + "b" * (piece - 3) + wide + "c" * 10
    assert text[piece - 1:piece + 1] == text[2 * piece - 1:2 * piece + 1] == "\u20ac\U0001f600"
    path = tmp_path / "long.svg"
    path.write_bytes(b"z" * (3 * len(text)))
    harness._write([text[:piece], text[piece:2 * piece], text[2 * piece:]], path)
    assert path.read_bytes() == text.encode("utf-8")


def test_the_writer_makes_no_document_sized_buffer(tmp_path):
    text = "x" * 2_000_000  # larger than a 150x150 heatmap
    path = tmp_path / "big.svg"
    tracemalloc.start()
    try:
        harness._write([text], path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * svgplot.PIECE_CHARS  # a piece, its bytes and the file buffer; not 2 MB
    assert path.stat().st_size == len(text)


def test_a_surface_plot_holds_less_than_half_its_file(defaults, tmp_path):
    # the heatmap streams its cells: its memory grows with the grid, not with the document
    grid = surface_grid(defaults, 150, 150)
    path = tmp_path / "heat.svg"
    emit_surface_plot(grid, path)  # first calls allocate caches of their own
    tracemalloc.start()
    try:
        emit_surface_plot(grid, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 2


def _bad_surface(defaults, what):
    grid = surface_grid(defaults, 3, 2)
    cells = {"nan": np.array([[1.0, 2.0], [float("nan"), 3.0], [4.0, 5.0]]),
             "shape": np.ones((2, 3)),
             "span": np.array([[-1.5e308, 0.0], [0.0, 0.0], [0.0, 1.5e308]])}.get(what, grid.u_user)
    return grid._replace(u_user=cells)


@pytest.mark.parametrize("what, message", [
    ("nan", "must be finite"),
    ("shape", "shape"),
    ("span", "wider than the largest float"),
    ("series", "unknown series 'bogus'"),
])
def test_a_refused_plot_leaves_an_existing_file_as_it_was(defaults, tmp_path, what, message):
    path = tmp_path / "old.svg"
    path.write_bytes(b"old bytes")
    series = "bogus" if what == "series" else "u_user"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            emit_surface_plot(_bad_surface(defaults, what), path, series=series)
    if what == "series":
        with pytest.raises(ValueError, match=message):
            emit_sweep_plot(_rows(defaults), path, series=series)
    assert path.read_bytes() == b"old bytes"


def test_emit_csv_to_dev_null_succeeds(defaults):
    emit_csv(_rows(defaults), os.devnull)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd on this system")
def test_emit_csv_to_a_pipe_writes_the_csv_bytes(defaults, tmp_path):
    # a pipe has no position: the writer must not tell() or seek it
    rows = _rows(defaults)
    emit_csv(rows, tmp_path / "fresh.csv")
    expected = (tmp_path / "fresh.csv").read_bytes()
    assert len(expected) < 64 * 1024  # the pipe buffer holds it, so nothing blocks
    read_end, write_end = os.pipe()
    with open(read_end, "rb") as pipe:
        try:
            emit_csv(rows, f"/dev/fd/{write_end}")
        finally:
            os.close(write_end)
        assert pipe.read() == expected


# ---------------------------------------------------------------- plots

def test_line_plot_has_one_marker_per_point(defaults, tmp_path):
    rows = _rows(defaults)
    path = tmp_path / "sweep.svg"
    emit_sweep_plot(rows, path)
    tree = ET.parse(path)  # well-formed XML
    circles = tree.getroot().iter("{http://www.w3.org/2000/svg}circle")
    assert len(list(circles)) == 6


def test_scatter_collapses_duplicates(tmp_path):
    positions = [Allocation(6e9, 1e6), Allocation(6e9, 1e6), Allocation(3e9, 5e5)]
    path = tmp_path / "scatter.svg"
    emit_positions_plot(positions, path)
    tree = ET.parse(path)
    circles = list(tree.getroot().iter("{http://www.w3.org/2000/svg}circle"))
    assert len(circles) == 2


def test_heatmap_cell_count(defaults, tmp_path):
    grid = surface_grid(defaults, 100, 100)
    path = tmp_path / "heat.svg"
    emit_surface_plot(grid, path)
    tree = ET.parse(path)
    rects = [
        r
        for r in tree.getroot().iter("{http://www.w3.org/2000/svg}rect")
        if r.get("fill", "").startswith("#") and r.get("fill") not in ("#333",)
    ]
    # background + frame are white/none; the colored cells are the data
    colored = [r for r in rects if r.get("fill") != "white"]
    assert len(colored) == 10_000


# SHA-256 of the heatmaps a per-cell writer produced; the array writer must keep these bytes
_HEATMAP_SHA256 = {
    (150, "u_user"): "c97036d859ce5ff97d4ec486ed0f9f61ba3aae30935260307b36e6fd95b450e0",
    (150, "price"): "4417c657d3aa41469f710c08edf046a1e6263fd94da270f06f065d390366a8a6",
    (150, "u_server"): "1998f554b6a57eb052ad6d3322f6a262612f545c09a2cb929dee04086cb22a65",
    (2, "u_user"): "d48e16c577a9364bde0511ad8fde9e4ac27fcc2a9d5484c9689f6d1be2406612",
}


@pytest.mark.parametrize("steps, series", list(_HEATMAP_SHA256))
def test_heatmap_bytes_are_pinned(defaults, tmp_path, steps, series):
    path = tmp_path / "heat.svg"
    emit_surface_plot(surface_grid(defaults, steps, steps), path, series=series)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == _HEATMAP_SHA256[steps, series]


# non-square, non-flat grids: a swapped or mis-broadcast (f, b) axis changes these bytes
_RECTANGULAR_HEATMAP_SHA256 = {
    (9, 4, "u_user"): "8608b4f52761c4d1d7a4ef66d9d25dec19fcf0ab52e38a7ea28091198829fc8c",
    (4, 9, "u_user"): "d2b014bbaa1e3faebeb4289f9069b0808a658821db5cb94af81f12a77292d513",
    (9, 4, "price"): "3879d9697593fedf8c11f68cf169133ad27ef5f25b81cb3bc22c9588b9816570",
}


@pytest.mark.parametrize("f_steps, b_steps, series", list(_RECTANGULAR_HEATMAP_SHA256))
def test_rectangular_heatmap_bytes_are_pinned(defaults, tmp_path, f_steps, b_steps, series):
    path = tmp_path / "heat.svg"
    emit_surface_plot(surface_grid(defaults, f_steps, b_steps), path, series=series)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == _RECTANGULAR_HEATMAP_SHA256[f_steps, b_steps, series]


def test_flat_heatmap_bytes_are_pinned():
    text = svgplot.heatmap([1.0, 2.0, 3.0], [1.0, 2.0], [[5.0, 5.0]] * 3,
                           x_label="x", y_label="y", title="flat")
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == "ee95dda5d29e7f584ccdfaec10301af0891485b52b023cc1515e522fc1d1edbc"


def _fold_cells(nx, ny, flat=False):
    """Exactly representable, varied cell values: no draw whose stream may change with numpy."""
    if flat:
        return [[5.0] * ny for _ in range(nx)]
    return [[((i * 7919 + j * 104729) % 1000) / 7 for j in range(ny)] for i in range(nx)]


# documents of the joined heatmap writer, before it streamed: a 1000-cell column is longer
# than one piece, and 151 columns are not a whole number of blocks
_SHAPED_HEATMAP_SHA256 = {
    (1, 1000, False): "2da6defc30227a32f0e1d4872b7cb0970937baee43c214a394290e5e45a32ee8",
    (1000, 1, False): "66e484440a1e2b30fd1578e5351f9f5c7e1e371837ee575d4abdaa35e5b32d81",
    (151, 150, False): "093f8ff1a4ea1b29f28332992f56a75212881ba75a89d7afb64e6815663184ea",
    (2, 1000, True): "3fb65b2ff72dc9227f0b8ace112289e3a1b017647e9002dd8dceab5c749575e0",
}


def _pieces_and_text(x_values, y_values, cells, x_label="x", y_label="y", title="t"):
    labels = dict(x_label=x_label, y_label=y_label, title=title)
    pieces = list(svgplot.heatmap_pieces(x_values, y_values, cells, **labels))
    assert "".join(pieces) == svgplot.heatmap(x_values, y_values, cells, **labels)
    return pieces, "".join(pieces)


def _assert_whole_cells(blocks, bound, n_cells):
    assert all(len(block) <= bound for block in blocks)
    assert all(block.startswith("\n<rect x=") and block.endswith('"/>') for block in blocks)
    assert sum(block.count("<rect") for block in blocks) == n_cells


@pytest.mark.parametrize("nx, ny, flat", list(_SHAPED_HEATMAP_SHA256))
def test_heatmap_pieces_join_to_the_pinned_document_within_the_bound(nx, ny, flat):
    pieces, text = _pieces_and_text([float(i) for i in range(nx)], [float(j) for j in range(ny)],
                                    _fold_cells(nx, ny, flat))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == _SHAPED_HEATMAP_SHA256[nx, ny, flat]
    assert all(len(piece) <= svgplot.PIECE_CHARS for piece in pieces)
    _assert_whole_cells(pieces[1:-1], svgplot.PIECE_CHARS, nx * ny)
    assert len(pieces) > 3  # the cells take more than one piece


@pytest.mark.parametrize("series", ["u_user", "price"])
def test_surface_heatmap_pieces_join_to_the_pinned_file(defaults, series):
    grid = surface_grid(defaults, 150, 150)
    pieces, text = _pieces_and_text(grid.f_values, grid.b_values, getattr(grid, series),
                                    "f_server [Hz]", "b [bit/s]", f"{series} surface")
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == _HEATMAP_SHA256[150, series]
    assert all(len(piece) <= svgplot.PIECE_CHARS for piece in pieces)
    _assert_whole_cells(pieces[1:-1], svgplot.PIECE_CHARS, 150 * 150)


@pytest.mark.parametrize("bound", [500, 2000], ids=["part-columns", "columns-not-dividing-nx"])
def test_heatmap_blocks_hold_whole_cells_within_a_smaller_bound(monkeypatch, bound):
    x_values, y_values, cells = [float(i) for i in range(7)], [float(j) for j in range(9)], _fold_cells(7, 9)
    expected = svgplot.heatmap(x_values, y_values, cells, x_label="x", y_label="y", title="t")
    monkeypatch.setattr(svgplot, "PIECE_CHARS", bound)
    pieces, text = _pieces_and_text(x_values, y_values, cells)
    assert text == expected
    _assert_whole_cells(pieces[1:-1], bound, 7 * 9)
    assert len(pieces) - 2 == {500: 14, 2000: 3}[bound]  # 7 columns of 7 + 2 rows; 3 + 3 + 1 columns


def test_heatmap_takes_arrays_and_nested_lists_alike(defaults):
    grid = surface_grid(defaults, 7, 5)
    labels = dict(x_label="f", y_label="b", title="t")
    as_array = svgplot.heatmap(grid.f_values, grid.b_values, grid.u_user, **labels)
    assert as_array == svgplot.heatmap(grid.f_values, grid.b_values, grid.u_user.tolist(), **labels)


def test_heatmap_colours_match_a_per_cell_reference():
    # fractions 0.25 and 0.75 put the green and blue channels on .5 ties
    ties = [0.0, 0.5, 1.0, 1.5, 2.0]
    cells = np.vstack([ties, np.random.default_rng(0).uniform(0.0, 2.0, (3, 5))])
    text = svgplot.heatmap(list(range(4)), list(range(5)), cells, x_label="x", y_label="y", title="t")
    lo, hi = float(cells.min()), float(cells.max())
    expected = []
    for value in cells.ravel().tolist():
        frac = (value - lo) / (hi - lo)
        rgb = [round(a + frac * (b - a)) for a, b in zip((44, 123, 182), (215, 25, 28))]
        expected.append("#{:02x}{:02x}{:02x}".format(*rgb))
    assert expected[:5] == ["#2c7bb6", "#576290", "#824a69", "#ac3242", "#d7191c"]
    assert re.findall(r'<rect x="[^"]*" y="[^"]*" width="[^"]*" height="[^"]*" fill="(#[0-9a-f]{6})"/>',
                      text) == expected


def test_heatmap_rejects_misshapen_or_non_finite_cells():
    labels = dict(x_label="x", y_label="y", title="t")
    with pytest.raises(ValueError, match="shape"):
        svgplot.heatmap([1.0, 2.0], [1.0, 2.0, 3.0], [[1.0, 2.0], [3.0, 4.0]], **labels)
    with pytest.raises(ValueError, match="finite"):
        svgplot.heatmap([1.0, 2.0], [1.0], [[1.0], [float("nan")]], **labels)


@pytest.mark.parametrize("writer", [svgplot.line_plot, svgplot.scatter_plot])
def test_point_plots_refuse_a_span_that_overflows(writer):
    labels = dict(x_label="x", y_label="y", title="t")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warning fails the test too
        with pytest.raises(ValueError, match=r"^y values span -1.5e\+308 to 1.5e\+308, wider"):
            writer([(0.0, -1.5e308), (1.0, 1.5e308)], **labels)
        with pytest.raises(ValueError, match=r"^x values span .* to inf, wider"):  # a flat axis is padded
            writer([(1.79e308, 0.0)], **labels)


def test_heatmap_refuses_a_span_that_overflows():
    labels = dict(x_label="x", y_label="y", title="t")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^heatmap cells span -1.5e\+308 to 1.5e\+308, wider"):
            svgplot.heatmap([1.0, 2.0], [1.0], np.array([[-1.5e308], [1.5e308]]), **labels)
        with pytest.raises(ValueError, match=r"^x values span -1.5e\+308 to 1.5e\+308, wider"):
            svgplot.heatmap([-1.5e308, 1.5e308], [1.0], [[1.0], [2.0]], **labels)


_BAD = [float("nan"), float("inf"), float("-inf")]


@pytest.mark.parametrize("bad", _BAD, ids=repr)
@pytest.mark.parametrize("where", [0, 1, 2], ids=["first", "middle", "last"])
@pytest.mark.parametrize("axis", ["x", "y"])
@pytest.mark.parametrize("writer", [svgplot.line_plot, svgplot.scatter_plot])
def test_point_plots_refuse_a_non_finite_value_anywhere(writer, axis, where, bad):
    points = [[0.0, 1.0], [1.0, 2.0], [2.0, 3.0]]
    points[where][axis == "y"] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"^{axis} values must be finite, got {bad!r}$"):
            writer([tuple(p) for p in points], x_label="x", y_label="y", title="t")


@pytest.mark.parametrize("bad", _BAD, ids=repr)
@pytest.mark.parametrize("where", [0, 1, 2], ids=["first", "middle", "last"])
@pytest.mark.parametrize("axis", ["x", "y"])
def test_heatmap_refuses_a_non_finite_axis_value_anywhere(axis, where, bad):
    values = {"x": [1.0, 2.0, 3.0], "y": [1.0, 2.0, 3.0]}
    values[axis][where] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"^{axis} values must be finite, got {bad!r}$"):
            svgplot.heatmap(values["x"], values["y"], np.ones((3, 3)), x_label="x", y_label="y", title="t")


@pytest.mark.parametrize("writer, args", [
    (svgplot.line_plot, ([],)),
    (svgplot.scatter_plot, ([],)),
    (svgplot.heatmap, ([], [1.0], np.zeros((0, 1)))),
    (svgplot.heatmap, ([1.0], [], np.zeros((1, 0)))),
], ids=["line", "scatter", "heatmap-x", "heatmap-y"])
def test_svg_writers_name_an_empty_axis(writer, args):
    # min() of an empty axis used to raise "min() arg is an empty sequence", naming no axis
    axis = "y" if writer is svgplot.heatmap and not args[1] else "x"
    with pytest.raises(ValueError, match=rf"^{axis} values must be non-empty$"):
        writer(*args, x_label="x", y_label="y", title="t")


def test_plot_labels_are_xml_escaped():
    text = svgplot.line_plot([(1.0, 2.0), (3.0, 4.0)], x_label="x<&>", y_label="a & b",
                             title="<t>&amp;")
    assert ">x&lt;&amp;&gt;</text>" in text and ">a &amp; b</text>" in text
    assert ">&lt;t&gt;&amp;amp;</text>" in text
    ET.fromstring(text)  # well-formed


def test_plot_rejects_empty_and_unknown(tmp_path):
    with pytest.raises(ValueError, match="at least one sweep row"):
        emit_sweep_plot([], tmp_path / "x.svg")
    with pytest.raises(ValueError, match="at least one position"):
        emit_positions_plot([], tmp_path / "x.svg")
    assert not (tmp_path / "x.svg").exists()
