import dataclasses
from pathlib import Path

import numpy as np
import pytest

from edgeprice.cli import main
from edgeprice.offload import Allocation
from edgeprice.optimizers import SwarmConfig
from edgeprice.scenario import ChannelSpec, Scenario, default_scenario
from edgeprice import harness, optimizers, verification
from edgeprice.verification import _random_draw_groups, random_scenario

from support import random_allocation

KB, GHZ, MBPS = 8192.0, 1e9, 1e6


def _scalar_draw_scenario(rng):
    """random_scenario as it was written with one generator call per field."""
    mode = "raw" if rng.random() < 0.5 else "db-to-linear"
    return Scenario(
        q=rng.uniform(100.0, 500.0) * KB,
        c=rng.uniform(100.0, 5000.0),
        f_local=rng.uniform(0.1, 1.0) * GHZ,
        k=10.0 ** rng.uniform(-28.0, -26.0),
        p_u=rng.uniform(0.01, 1.0),
        p_d=rng.uniform(0.1, 2.0),
        alpha=rng.uniform(0.0, 1.0),
        w1=rng.uniform(0.05, 0.95),
        w2=rng.uniform(0.05, 0.95),
        mu=rng.uniform(0.05, 0.95),
        channel=ChannelSpec(rng.uniform(1.0, 40.0), rng.uniform(1.0, 40.0), mode),
        f_range=(1.0 * GHZ, 6.0 * GHZ),
        b_range=(0.1 * MBPS, 1.0 * MBPS),
    )


@pytest.mark.parametrize("seed", range(5))
def test_block_draw_replays_the_scalar_draws(seed):
    block, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(2000):
        assert random_scenario(block) == _scalar_draw_scenario(scalar)
    assert block.random() == scalar.random()  # same generator state afterwards


def _unstack(s: Scenario, alloc: Allocation) -> list[tuple[Scenario, Allocation]]:
    """The scalar (scenario, allocation) pairs held by an array Scenario and Allocation."""
    names = ("q", "c", "f_local", "k", "p_u", "p_d", "alpha", "w1", "w2", "mu")
    columns = [getattr(s, name).tolist() for name in names]
    links = (s.channel.snr_uplink.tolist(), s.channel.snr_downlink.tolist())
    return [
        (
            dataclasses.replace(
                s, **dict(zip(names, values)), channel=ChannelSpec(up, down, s.channel.snr_mode)
            ),
            Allocation(f, b),
        )
        for *values, up, down, f, b in zip(*columns, *links, alloc.f_server.tolist(), alloc.b.tolist())
    ]


@pytest.mark.parametrize("seed, n", [(0, 1000), (1, 37), (2, 1)])
def test_draw_groups_replay_the_sequential_draws(seed, n):
    block, sequential = np.random.default_rng(seed), np.random.default_rng(seed)
    groups = _random_draw_groups(block, n)
    draws = []
    for _ in range(n):
        s = random_scenario(sequential)
        draws.append((s, random_allocation(sequential, s)))
    assert [s.channel.snr_mode for s, _ in groups] == ["raw", "db-to-linear"]
    replayed = [pair for group in groups for pair in _unstack(*group)]
    raw_first = sorted(draws, key=lambda d: d[0].channel.snr_mode != "raw")  # a stable sort
    assert replayed == raw_first
    assert block.random() == sequential.random()


def test_validate_stdout_is_the_golden_file(capsys):
    assert main(["validate"]) == 0
    golden = Path(__file__).parent / "golden" / "validate-seed0.txt"
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_validate_stdout_at_other_seeds_is_its_golden_file(seed, capsys):
    assert main(["validate", "--seed", str(seed)]) == 0
    golden = Path(__file__).parent / "golden" / f"validate-seed{seed}.txt"
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


def test_relative_gap_anchor_does_not_read_the_stop_test_it_checks(monkeypatch):
    # a stop test ten times too loose lets trials stop short of the gap: the anchor must see it
    def loose(u_max, best, epsilon):
        return u_max - best < 10 * epsilon * abs(best)

    monkeypatch.setattr(optimizers, "_gap_met", loose)
    monkeypatch.setattr(verification, "_gap_met", loose, raising=False)
    checks = verification._optimizer_anchors(SwarmConfig(), 50)
    (gap,) = [c for c in checks if c.name == "every converged trial satisfies the relative-gap inequality"]
    assert not gap.passed


@pytest.mark.parametrize("kwargs, message", [({"seed": -1}, "seed=-1"), ({"n_trials": 0}, "n_trials")])
def test_anchor_suite_refuses_bad_input_before_any_anchor(kwargs, message, monkeypatch):
    def fail():
        raise AssertionError("an anchor ran before the input check")

    monkeypatch.setattr(verification, "_price_anchors", fail)
    monkeypatch.setattr(verification, "_f_server_sweep", fail)
    with pytest.raises(ValueError, match=message):
        verification.run_anchor_suite(**kwargs)


def test_corner_maximality_anchor_evaluates_the_grid_its_name_states(monkeypatch):
    shapes = []
    surface_grid = verification.surface_grid

    def recorded(s, f_steps, b_steps):
        shapes.append((f_steps, b_steps))
        return surface_grid(s, f_steps, b_steps)

    monkeypatch.setattr(verification, "surface_grid", recorded)
    check = verification._corner_maximality_anchor()
    assert check.passed and check.name.startswith("100x100 grid ")
    assert shapes == [(100, 100)]


def test_anchor_suite_runs_fifty_paired_trials_by_default(monkeypatch):
    # README's seed scan calls run_anchor_suite(seed=s) and relies on this default, not the CLI's
    runs = []

    def optimizer_anchors(cfg, n_trials):
        runs.append((cfg.seed, n_trials))
        return []

    monkeypatch.setattr(verification, "_optimizer_anchors", optimizer_anchors)
    verification.run_anchor_suite(seed=3)
    assert runs == [(3, 50)]


_ORDERING = "mean-iteration ordering disc-pso < pso < de < ga"
_SPREAD = "disc-pso final-value spread is the smallest of the four"


@pytest.mark.parametrize("seeds, anchor", [((246, 298, 479, 1465, 1951), _ORDERING),
                                           ((361, 389, 445, 452, 503, 621), _SPREAD)],
                         ids=["ordering", "spread"])
def test_the_failing_anchor_seeds_the_readme_names_fail_that_anchor_alone(seeds, anchor):
    # README "The anchors pass at those five seeds, not at every seed": each seed fails one anchor
    for seed in seeds:
        failed = [check.name for check in verification.run_anchor_suite(seed=seed) if not check.passed]
        assert failed == [anchor], seed
        if anchor == _ORDERING:  # disc-pso and pso tie
            stats = harness.compare_optimizers(default_scenario(), SwarmConfig(seed=seed), 50).stats
            assert stats["disc-pso"].mean_iterations == stats["pso"].mean_iterations, seed
