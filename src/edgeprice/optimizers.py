"""Search for near-optimal allocations over the bounded (f_server, b) box.

Four maximizers share one search loop (``_search``), which seeds the
generator, samples the initial population, tracks the global best and
stops once the gap u_max - best falls below epsilon*|best|, or after
n_max update rounds. For best > 0 this is the relative gap
(u_max - best)/best below epsilon; unlike that ratio, it keeps its
meaning when the utility is negative. ``iterations_used`` counts
completed update rounds, so a run whose initial sampling already
satisfies the gap reports 0.

Each searcher is a proposal rule plus an acceptance rule over (p_n, 2)
arrays of (f_server, b) rows, and each population is scored in one
objective call. disc_pso is the enhanced swarm (linearly decaying
inertia plus a per-coordinate minimum velocity magnitude); baseline_pso
is the same rules with fixed inertia and no velocity floor.
The GA and DE baselines use conventional operator settings and breed
whole generations with array draws, so their seeded results differ from
the per-individual loops of earlier versions; swarm results do not.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace
from typing import Callable, Sequence

import numpy as np

from .offload import Allocation
from .scenario import Scenario

#: An ``Allocation`` of (k,) arrays in, the (k,) values of its rows out.
Objective = Callable[[Allocation], np.ndarray]


class OptimizerError(RuntimeError):
    """A run aborted, e.g. the objective produced a non-finite value."""


@dataclass(frozen=True)
class SwarmConfig:
    """Hyperparameters shared by all four search algorithms.

    The velocity floors are the accelerating mechanism of disc_pso and
    only bite when they are a substantial fraction of the search box; the
    defaults are ~60% of the default box widths. Scale them with the box
    when the search ranges change.
    """

    p_n: int = 30               # particle / population count
    w_max: float = 0.9          # inertia upper bound
    w_min: float = 0.4          # inertia lower bound
    c1_learn: float = 2.0       # individual learning factor
    c2_learn: float = 2.0       # social learning factor
    delta_f: float = 3e9        # minimum velocity magnitude, Hz per round
    delta_b: float = 5e5        # minimum velocity magnitude, bit/s per round
    n_max: int = 50             # maximum update rounds
    epsilon: float = 1e-3       # relative-gap termination threshold
    seed: int = 0

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(f.default, int) and not isinstance(value, numbers.Integral):
                raise ValueError(f"{f.name}={value!r}: must be an integer")
            if f.name != "seed" and not math.isfinite(value):
                raise ValueError(f"{f.name}={value!r}: must be finite")
        if self.p_n < 4:
            raise ValueError(f"p_n={self.p_n!r}: must be >= 4 (DE draws three other individuals)")
        if self.n_max < 0:
            raise ValueError(f"n_max={self.n_max!r}: must be >= 0")
        if not self.epsilon > 0:
            raise ValueError(f"epsilon={self.epsilon!r}: must be > 0")


@dataclass(frozen=True)
class RunResult:
    best_value: float
    best_position: Allocation
    iterations_used: int
    converged: bool
    seed: int


@dataclass(frozen=True)
class TrialStats:
    """Aggregates over independent replications of one algorithm."""

    mean_value: float
    std_value: float
    mean_iterations: float
    value_list: tuple[float, ...]
    iteration_list: tuple[int, ...]
    position_list: tuple[Allocation, ...]
    seed_list: tuple[int, ...]
    converged_list: tuple[bool, ...]


def _gap_met(u_max: float, best: float, epsilon: float) -> bool:
    return u_max - best < epsilon * abs(best)


def _with_min_magnitude(v: np.ndarray, floor: np.ndarray) -> np.ndarray:
    """Sign-preserving minimum magnitude per element; an exactly-zero velocity stays zero."""
    return np.where(v == 0.0, 0.0, np.copysign(np.maximum(np.abs(v), floor), v))


def _initial_population(
    rng: np.random.Generator, cfg: SwarmConfig, lo: np.ndarray, hi: np.ndarray,
    initial_positions: Sequence[tuple[float, float]] | None,
) -> np.ndarray:
    if initial_positions is not None:
        pop = np.array(initial_positions, dtype=float)
        if pop.shape != (cfg.p_n, 2):
            raise ValueError(f"initial positions must have shape ({cfg.p_n}, 2), got {pop.shape}")
        return pop
    return lo + (hi - lo) * rng.random((cfg.p_n, 2))


def _evaluate_population(objective: Objective, pop: np.ndarray, where: str) -> np.ndarray:
    values = np.asarray(objective(Allocation(pop[:, 0], pop[:, 1])), dtype=float)
    if values.shape != (len(pop),):
        raise OptimizerError(f"objective returned shape {values.shape} for {len(pop)} rows during {where}")
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        i = int(bad[0])
        f, b = pop[i].tolist()
        raise OptimizerError(
            f"non-finite objective value {float(values[i])!r} at "
            f"(f_server={f!r}, b={b!r}) during {where} (individual {i})"
        )
    return values


def _search(
    s: Scenario,
    objective: Objective,
    u_max: float,
    cfg: SwarmConfig,
    start: Callable[..., tuple[Callable, Callable]],
    initial_positions: Sequence[tuple[float, float]] | None = None,
) -> RunResult:
    """The loop every searcher shares; a searcher is the ``start`` that makes its rules.

    ``start(rng, lo, hi, pop)`` gets the seeded generator, the box and the
    initial population and returns ``propose(round, pop, values, p_gb)``,
    which gives a (k, 2) array of candidates, and ``accept(pop, values,
    candidates, candidate_values)``, which gives the next (pop, values). The
    global best is the best candidate ever evaluated (first argmax, replaced
    only when strictly greater); the rules see a copy of its position.
    """
    rng = np.random.default_rng(cfg.seed)
    lo = np.array([s.f_range[0], s.b_range[0]])
    hi = np.array([s.f_range[1], s.b_range[1]])
    pop = _initial_population(rng, cfg, lo, hi, initial_positions)
    values = _evaluate_population(objective, pop, "initial sampling")
    propose, accept = start(rng, lo, hi, pop)
    i = int(np.argmax(values))
    s_gb, p_gb = float(values[i]), pop[i].copy()

    n_f = 0
    converged = _gap_met(u_max, s_gb, cfg.epsilon)
    while not converged and n_f < cfg.n_max:
        candidates = propose(n_f, pop, values, p_gb)
        candidate_values = _evaluate_population(objective, candidates, f"round {n_f}")
        i = int(np.argmax(candidate_values))
        if candidate_values[i] > s_gb:
            s_gb, p_gb = float(candidate_values[i]), candidates[i].copy()
        pop, values = accept(pop, values, candidates, candidate_values)
        n_f += 1
        converged = _gap_met(u_max, s_gb, cfg.epsilon)

    return RunResult(s_gb, Allocation(*p_gb.tolist()), n_f, converged, cfg.seed)


def _replace_where(better: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> Callable:
    """Acceptance: candidate i replaces member i where ``better(its value, the member's)``."""
    def accept(pop, values, candidates, candidate_values):
        keep = better(candidate_values, values)
        return np.where(keep[:, None], candidates, pop), np.where(keep, candidate_values, values)
    return accept


def _swarm(cfg: SwarmConfig, *, dynamic_inertia: bool, velocity_floor: bool) -> Callable:
    """Swarm rules: the population is the personal bests; positions and velocities are state."""
    floor = np.array([cfg.delta_f, cfg.delta_b])

    def start(rng, lo, hi, pop):
        position, velocity = pop, np.zeros_like(pop)

        def propose(n_f, best_position, best_values, p_gb):
            nonlocal position, velocity
            if dynamic_inertia:
                w = cfg.w_max - (cfg.w_max - cfg.w_min) * n_f / cfg.n_max
            else:
                w = cfg.w_max
            # per particle, the draws for (c1 f, c2 f, c1 b, c2 b), in that order
            r = rng.random((cfg.p_n, 4))
            velocity = (
                w * velocity
                + cfg.c1_learn * r[:, 0::2] * (best_position - position)
                + cfg.c2_learn * r[:, 1::2] * (p_gb - position)
            )
            if velocity_floor:
                velocity = _with_min_magnitude(velocity, floor)
            position = np.clip(position + velocity, lo, hi)
            return position

        return propose, _replace_where(np.greater)

    return start


def disc_pso(s: Scenario, objective: Objective, u_max: float, cfg: SwarmConfig) -> RunResult:
    """Swarm search with decaying inertia and per-coordinate velocity floors."""
    return _search(s, objective, u_max, cfg, _swarm(cfg, dynamic_inertia=True, velocity_floor=True))


def baseline_pso(s: Scenario, objective: Objective, u_max: float, cfg: SwarmConfig) -> RunResult:
    """Plain swarm search: inertia fixed at w_max, no minimum-velocity floor."""
    return _search(s, objective, u_max, cfg, _swarm(cfg, dynamic_inertia=False, velocity_floor=False))


def baseline_ga(
    s: Scenario,
    objective: Objective,
    u_max: float,
    cfg: SwarmConfig,
    *,
    crossover_rate: float = 0.8,
    mutation_rate: float = 0.1,
    mutation_scale: float = 0.05,
    initial_positions: Sequence[tuple[float, float]] | None = None,
) -> RunResult:
    """Genetic-algorithm baseline: tournament-2, arithmetic crossover, Gaussian mutation.

    Each generation is the elite (the best member, kept without being
    evaluated again) plus p_n - 1 children. Mutation noise per gene is
    ``mutation_scale`` times the box width of that coordinate. The keyword
    hyperparameters exist for experiments and tests; defaults are the
    comparison settings.
    """
    n = cfg.p_n - 1

    def start(rng, lo, hi, pop):
        sigma = mutation_scale * (hi - lo)

        def propose(n_f, pop, values, p_gb):
            # [parent, child, contestant]: two tournaments of two per child
            a, b = np.moveaxis(rng.integers(cfg.p_n, size=(2, n, 2)), -1, 0)
            parent1, parent2 = pop[np.where(values[a] >= values[b], a, b)]
            cross = rng.random(n) < crossover_rate
            lam = rng.random((n, 1))
            child = np.where(cross[:, None], lam * parent1 + (1.0 - lam) * parent2, parent1)
            mutate = rng.random((n, 2)) < mutation_rate
            child = child + np.where(mutate, rng.normal(0.0, sigma, (n, 2)), 0.0)
            return np.clip(child, lo, hi)

        def accept(pop, values, children, child_values):
            e = int(np.argmax(values))
            return np.vstack([pop[e], children]), np.concatenate([values[e : e + 1], child_values])

        return propose, accept

    return _search(s, objective, u_max, cfg, start, initial_positions)


def baseline_de(
    s: Scenario,
    objective: Objective,
    u_max: float,
    cfg: SwarmConfig,
    *,
    weight: float = 0.5,
    crossover: float = 0.9,
    initial_positions: Sequence[tuple[float, float]] | None = None,
) -> RunResult:
    """Differential-evolution baseline (rand/1/bin, Storn & Price 1997) with box clamping.

    r1, r2, r3 are distinct and never the target: the first three columns
    of the argsort of a random-key matrix whose diagonal sorts last.
    """
    rows = np.arange(cfg.p_n)

    def start(rng, lo, hi, pop):
        def propose(n_f, pop, values, p_gb):
            keys = rng.random((cfg.p_n, cfg.p_n))
            keys[rows, rows] = 2.0
            r1, r2, r3 = np.argsort(keys, axis=1)[:, :3].T
            mutant = np.clip(pop[r1] + weight * (pop[r2] - pop[r3]), lo, hi)
            mask = rng.random((cfg.p_n, 2)) < crossover
            j_rand = rng.integers(2, size=cfg.p_n)
            if crossover > 0.0:
                mask[rows, j_rand] = True
            return np.where(mask, mutant, pop)

        return propose, _replace_where(np.greater_equal)

    return _search(s, objective, u_max, cfg, start, initial_positions)


Algorithm = Callable[[Scenario, Objective, float, SwarmConfig], RunResult]


def trial_seeds(seed: int, n_trials: int) -> tuple[int, ...]:
    """Deterministic per-trial seeds derived from one master seed."""
    return tuple(int(x) for x in np.random.SeedSequence(seed).generate_state(n_trials))


def stats_from_runs(runs: Sequence[RunResult]) -> TrialStats:
    values = np.array([r.best_value for r in runs])
    iterations = np.array([r.iterations_used for r in runs])
    return TrialStats(
        mean_value=float(values.mean()),
        std_value=float(values.std()),
        mean_iterations=float(iterations.mean()),
        value_list=tuple(float(v) for v in values),
        iteration_list=tuple(int(i) for i in iterations),
        position_list=tuple(r.best_position for r in runs),
        seed_list=tuple(r.seed for r in runs),
        converged_list=tuple(r.converged for r in runs),
    )


def run_trials(
    algorithm: Algorithm,
    settings: Sequence[tuple[Scenario, Objective, float]],
    cfg: SwarmConfig,
) -> TrialStats:
    """Run trial i on ``settings[i]`` (scenario, objective, u_max) and aggregate.

    Trial i uses the i-th of ``trial_seeds(cfg.seed, len(settings))``, so
    algorithms run on the same settings and cfg see paired seeds.
    """
    if not settings:
        raise ValueError("n_trials must be >= 1")
    runs: list[RunResult] = []
    for trial, ((s, objective, u_max), seed) in enumerate(
        zip(settings, trial_seeds(cfg.seed, len(settings)))
    ):
        try:
            runs.append(algorithm(s, objective, u_max, replace(cfg, seed=seed)))
        except OptimizerError as exc:
            raise OptimizerError(f"trial {trial}: {exc}") from exc
    return stats_from_runs(runs)


def replicate(
    algorithm: Algorithm,
    s: Scenario,
    objective: Objective,
    u_max: float,
    cfg: SwarmConfig,
    n_trials: int,
) -> TrialStats:
    """Run ``n_trials`` independent seeded trials and aggregate the outcomes."""
    return run_trials(algorithm, [(s, objective, u_max)] * n_trials, cfg)
