"""Canaries: what the seeded digests and pins rest on besides the program, each failure naming it.

``_RESULTS_DIGEST``, ``_BLOCKS_DIGEST`` and ``_SMALL_POPULATION_DIGEST`` in
``test_optimizers.py`` hash the ``repr`` of full-precision search results,
and its ``_PINS`` hold full-precision values. Those rest on three
dependencies: numpy's ``Generator`` streams (``random``,
``standard_normal``, ``integers``), which numpy does not promise to keep
across releases (NEP 19); the C library's ``pow`` and ``log2`` through
``scenario.libm``; and the ``repr`` of the result records. If one of them
moves, the digests fail together and say nothing of why; the canary of
that dependency fails here too, by name. A canary explains a digest
failure; it does not excuse it. This file runs first, in file order and
in CI.
"""
import hashlib
import math
import sys

import numpy as np
import pytest

from edgeprice.harness import ComparisonReport
from edgeprice.offload import Allocation
from edgeprice.optimizers import RunResult, TrialStats
from edgeprice.scenario import exp10, libm

#: The draw shapes of the searchers at p_n 30, per Generator method: the initial sample, one
#: round of swarm learning factors, the GA's uniforms of its 29 children and the DE keys and
#: crossover draws; the GA's mutation noise; the GA's tournaments (from [0, 30)) and DE's j_rand
#: (from [0, 2)).
_DRAWS = {
    "random": [((30, 2), None), ((1, 30, 2, 2), None), ((116,), None), ((960,), None)],
    "standard_normal": [((29, 2), None)],
    "integers": [((2, 29, 2), 30), ((30,), 2)],
}

#: sha256 of the draws below at seeds 0 and 7, recorded with numpy 2.4.6.
_STREAM_DIGESTS = {
    "random": "a0212b0353ce01ca89d3cdbeffaf7f74b7df5a6575d08dcd3563705a3cd5f97a",
    "standard_normal": "f4efde4075049e2279906efc4abe6851a73aa905fd1056d6d3675c698485ca34",
    "integers": "5b1664a2db165a18ce78d2b0d65a2c2959207d8439ddd26c6b55a1e528008ef0",
}


def _first_draws(kind: str, seed: int) -> list[np.ndarray]:
    """Per shape, the calls ``optimizers._draws`` makes: one trial's single call with a leading
    axis of 1, and a 2-trial batch, one call per trial (into ``out=`` where the method has it)."""
    arrays = []
    for shape, high in _DRAWS[kind]:
        rng, pair = np.random.default_rng(seed), [np.random.default_rng(s) for s in (seed, seed + 1)]
        if kind == "integers":
            single = rng.integers(high, size=(1, *shape))
            batch = np.array([r.integers(high, size=shape) for r in pair])
        else:
            single = getattr(rng, kind)(size=(1, *shape))
            batch = np.empty((2, *shape))
            for r, block in zip(pair, batch):
                getattr(np.random.Generator, kind)(r, out=block)
        arrays += [single, batch]
    return arrays


@pytest.mark.parametrize("kind", sorted(_DRAWS))
def test_numpy_generator_streams_are_pinned(kind):
    draws = b"".join(a.tobytes() for seed in (0, 7) for a in _first_draws(kind, seed))
    assert hashlib.sha256(draws).hexdigest() == _STREAM_DIGESTS[kind], (
        f"numpy {np.__version__} moved the Generator.{kind} stream (or its dtype) that every seeded "
        "search draws from: the digests and _PINS of test_optimizers.py fail with it"
    )


#: (function, x, y, libm(function, x, y)) at inputs the pinned runs use: the k exponent and the
#: dB figures of random_scenario(default_rng(0)) and the default dB figures; log2(1 + snr) of the
#: default and seeded figures and log2(1 + q) of the data revenue; squares and cubes of f_local and
#: of the interior and seeded targets.
_LIBM = [
    ("exp10", -26.373459521599454, None, 4.231949517477546e-27),
    ("exp10", 0.11068015066357757, None, 1.2902686661322114),
    ("exp10", 3.44387667869152, None, 2778.9240585332873),
    ("exp10", 2.0, None, 100.0),
    ("exp10", 3.0, None, 1000.0),
    ("log2", 21.0, None, 4.392317422778761),
    ("log2", 31.0, None, 4.954196310386875),
    ("log2", 26.0000193477689, None, 4.700440791714933),
    ("log2", 4096001.0, None, 21.965784636882514),
    ("log2", 1703238.10366145, None, 20.69984869956081),
    ("pow", 114874871.9756762, 2, 1.3196236211427996e16),
    ("pow", 3834584194.3968253, 2, 1.4704035943917949e19),
    ("pow", 487669.73094116704, 2, 237821766476.23026),
    ("pow", 3.5e9, 3, 4.2875e28),
    ("pow", 114874871.9756762, 3, 1.5159159453485732e24),
    ("pow", 3834584194.3968253, 3, 5.638386382439058e28),
    ("pow", 487669.73094116704, 3, 1.1597847686941627e17),
]
_FUNCTIONS = {"exp10": exp10, "log2": math.log2, "pow": pow}


@pytest.mark.parametrize("name, x, y, pinned", _LIBM)
def test_c_library_results_are_pinned(name, x, y, pinned):
    got = libm(_FUNCTIONS[name], x, y)
    assert got == pinned, (
        f"the C library's {name}({x!r}{'' if y is None else f', {y}'}) gives {got!r}, pinned {pinned!r}: "
        "scenario.libm routes every log2, power and 10**x of the model through it, so the pins move with it"
    )


_POSITIONS = (Allocation(3.5e9, 5.5e5), Allocation(6e9, 1e6))
_STATS = TrialStats(1.25, 0.5, 2.0, (0.75, 1.75), (1, 3), _POSITIONS, (7, 2**32 - 1), (False, True))
_STATS_REPR = (
    "TrialStats(mean_value=1.25, std_value=0.5, mean_iterations=2.0, value_list=(0.75, 1.75), "
    "iteration_list=(1, 3), position_list=(Allocation(f_server=3500000000.0, b=550000.0), "
    "Allocation(f_server=6000000000.0, b=1000000.0)), seed_list=(7, 4294967295), "
    "converged_list=(False, True))"
)


@pytest.mark.parametrize("record, pinned", [
    (RunResult(-0.1, _POSITIONS[1], 3, True, 7),
     "RunResult(best_value=-0.1, best_position=Allocation(f_server=6000000000.0, b=1000000.0), "
     "iterations_used=3, converged=True, seed=7)"),
    (_STATS, _STATS_REPR),
    (ComparisonReport(2, 1e-300, (1e-300, 2.5e-310), {"disc-pso": _STATS}),
     "ComparisonReport(n_trials=2, u_max=1e-300, u_max_list=(1e-300, 2.5e-310), "
     f"stats={{'disc-pso': {_STATS_REPR}}})"),
], ids=["RunResult", "TrialStats", "ComparisonReport"])
def test_result_record_reprs_are_pinned(record, pinned):
    assert repr(record) == pinned, (
        f"Python {sys.version.split()[0]} prints a {type(record).__name__} "
        "differently: the digests of test_optimizers.py hash these reprs"
    )
