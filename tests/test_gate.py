"""The one validity gate: ``scenario.checked``, called by every library entry that takes a Scenario."""
import dataclasses
import sys
import warnings

import numpy as np
import pytest

from edgeprice import cli, scenario
from edgeprice.harness import (
    SweepSpec,
    box_maximum_utility,
    compare_optimizers,
    corner_allocation,
    run_sweep,
    surface_grid,
)
from edgeprice.offload import Allocation
from edgeprice.optimizers import ALGORITHMS, SwarmConfig, replicate
from edgeprice.scenario import ScenarioError, default_scenario, load_scenario, validate

_CFG = SwarmConfig(p_n=4, n_max=2)

#: Invalid scenarios: canonical-unit fields, and the same scenario as config
#: overrides for load_scenario; a config holds no arrays.
_INVALID = [
    ({"f_range": (6e9, 1e9)}, {"f_min_ghz": 6.0, "f_max_ghz": 1.0}),
    ({"q": -1e5}, {"q_kb": -1e5 / 8192}),
    ({"w2": 1.5}, {"w2": 1.5}),
    ({"alpha": -1.0}, {"alpha": -1.0}),
    ({"mu": 2.0}, {"mu": 2.0}),
    ({"b_range": (0.0, 1e6)}, {"b_min_mbps": 0.0}),
    ({"mu": np.array([[0.8], [1.0]])}, None),  # fails in one element
]


def _objective(alloc):
    # not the model's: its closed forms are unchecked and may fail first on an invalid scenario
    return np.zeros(np.shape(alloc.f_server))


_ENTRIES = {
    "run_sweep": lambda s: run_sweep(SweepSpec("f_server", (1e9, 2e9), s, Allocation(6e9, 1e6))),
    "surface_grid": lambda s: surface_grid(s, 3, 3),
    "compare_optimizers": lambda s: compare_optimizers(s, _CFG, 2),
    "compare_optimizers(randomize)": lambda s: compare_optimizers(s, _CFG, 2, randomize=True),
    "corner_allocation": corner_allocation,
    "box_maximum_utility": box_maximum_utility,
    "replicate": lambda s: replicate(ALGORITHMS["de"], s, _objective, 1.0, _CFG, 2),
    **{name: (lambda s, algo=algo: algo(s, _objective, 1.0, _CFG)) for name, algo in ALGORITHMS.items()},
}


@pytest.mark.parametrize("fields, overrides", _INVALID)
def test_every_entry_refuses_every_validate_message(fields, overrides):
    s = default_scenario(**fields)
    assert validate(s)
    message = "invalid scenario: " + "; ".join(validate(s))
    calls = dict(_ENTRIES)
    if overrides is not None:
        calls["load_scenario"] = lambda _: load_scenario(overrides=overrides)
    for name, call in calls.items():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ScenarioError) as refused:
                call(dataclasses.replace(s))  # a fresh instance per entry: each checks it itself
        assert str(refused.value) == message, name


@pytest.fixture
def validate_calls(monkeypatch):
    """The scenarios given to ``validate``, under any module's binding of it."""
    calls = []

    def counting(s):
        calls.append(s)
        return validate(s)

    for name, module in list(sys.modules.items()):
        if name.startswith("edgeprice") and getattr(module, "validate", None) is validate:
            monkeypatch.setattr(module, "validate", counting)
    return calls


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--param", "q", "--grid", "819200,1638400"],
        ["surface", "--steps", "3"],
        ["optimize", "--n-max", "2"],
        ["compare", "--trials", "2", "--p-n", "4", "--n-max", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_a_command_validates_its_scenario_once(argv, validate_calls, capsys):
    assert cli.main(argv) == 0
    assert len(validate_calls) == 1


def test_validate_runs_once_per_instance(validate_calls):
    s = default_scenario()
    compare_optimizers(s, _CFG, 2)
    assert len(validate_calls) == 1 and validate_calls[0] is s
    surface_grid(s, 3, 3)
    ALGORITHMS["pso"](s, _objective, 1.0, _CFG)
    assert scenario.checked(s) is s and len(validate_calls) == 1
    copy = dataclasses.replace(s)
    surface_grid(copy, 3, 3)
    assert len(validate_calls) == 2 and validate_calls[1] is copy
