"""Shared test helpers: random valid allocations and conditioned comparisons."""
from __future__ import annotations

import numpy as np

from edgeprice.offload import Allocation
from edgeprice.scenario import Scenario


def random_allocation(rng: np.random.Generator, s: Scenario) -> Allocation:
    return Allocation(rng.uniform(*s.f_range), rng.uniform(*s.b_range))


def rel_gap(a: float, b: float, scale: float) -> float:
    """|a-b| relative to the larger of the values and the computation scale.

    The scale argument guards comparisons near zero crossings, where a bare
    |a-b|/|a| is dominated by cancellation rather than by real disagreement.
    """
    return abs(a - b) / max(abs(a), abs(b), abs(scale))
