import numpy as np
import pytest

from edgeprice.offload import Allocation
from edgeprice.scenario import ChannelSpec, Scenario
from edgeprice import verification
from edgeprice.verification import _random_allocation, random_scenario

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


@pytest.mark.parametrize("seed", range(5))
def test_random_allocation_replays_two_uniform_draws(seed):
    block, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(200):
        s = random_scenario(block)
        assert s == _scalar_draw_scenario(scalar)
        expected = Allocation(scalar.uniform(*s.f_range), scalar.uniform(*s.b_range))
        assert _random_allocation(block, s) == expected
    assert block.random() == scalar.random()


@pytest.mark.parametrize("kwargs, message", [({"seed": -1}, "seed=-1"), ({"n_trials": 0}, "n_trials")])
def test_anchor_suite_refuses_bad_input_before_any_anchor(kwargs, message, monkeypatch):
    def fail():
        raise AssertionError("an anchor ran before the input check")

    monkeypatch.setattr(verification, "_price_anchors", fail)
    monkeypatch.setattr(verification, "_f_server_sweep", fail)
    with pytest.raises(ValueError, match=message):
        verification.run_anchor_suite(**kwargs)
