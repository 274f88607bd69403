"""Search for near-optimal allocations over the bounded (f_server, b) box.

Four maximizers share the same termination contract: stop once the
gap u_max - best falls below epsilon*|best|, or after n_max update
rounds. For best > 0 this is the relative gap (u_max - best)/best below
epsilon; unlike that ratio, it keeps its meaning when the utility is
negative. ``iterations_used`` counts completed update rounds, so a
run whose initial sampling already satisfies the gap reports 0.

disc_pso is the enhanced swarm (linearly decaying inertia plus a
per-coordinate minimum velocity magnitude); baseline_pso is the same
machinery with fixed inertia and no velocity floor, so the two produce
identical trajectories when configured to coincide. The swarm state is
held as (p_n, 2) arrays of (f_server, b) rows and updated in one step per
round; the objective still sees one ``Allocation`` of floats per
particle. The GA and DE baselines use conventional operator settings and
the same termination predicate, which keeps iteration counts comparable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Callable, Sequence

import numpy as np

from .offload import Allocation
from .scenario import Scenario

Objective = Callable[[Allocation], float]


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


def _checked_value(objective: Objective, alloc: Allocation, where: str) -> float:
    value = float(objective(alloc))
    if not math.isfinite(value):
        raise OptimizerError(
            f"non-finite objective value {value!r} at "
            f"(f_server={alloc.f_server!r}, b={alloc.b!r}) during {where}"
        )
    return value


def _gap_met(u_max: float, best: float, epsilon: float) -> bool:
    return u_max - best < epsilon * abs(best)


def _with_min_magnitude(v: np.ndarray, floor: np.ndarray) -> np.ndarray:
    """Sign-preserving minimum magnitude per element; an exactly-zero velocity stays zero."""
    return np.where(v == 0.0, 0.0, np.copysign(np.maximum(np.abs(v), floor), v))


def _swarm_search(
    s: Scenario,
    objective: Objective,
    u_max: float,
    cfg: SwarmConfig,
    *,
    dynamic_inertia: bool,
    velocity_floor: bool,
) -> RunResult:
    rng = np.random.default_rng(cfg.seed)
    lo = np.array([s.f_range[0], s.b_range[0]])
    hi = np.array([s.f_range[1], s.b_range[1]])
    floor = np.array([cfg.delta_f, cfg.delta_b])

    position = _initial_population(rng, cfg, s.f_range, s.b_range, None)
    velocity = np.zeros_like(position)
    best_position = position.copy()
    best_values = _evaluate_population(objective, position, "initial sampling")
    i = int(np.argmax(best_values))
    s_gb, p_gb = float(best_values[i]), best_position[i].copy()

    n_f = 0
    converged = _gap_met(u_max, s_gb, cfg.epsilon)
    while not converged and n_f < cfg.n_max:
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
        values = _evaluate_population(objective, position, f"round {n_f}")
        improved = values > best_values
        best_position[improved] = position[improved]
        best_values[improved] = values[improved]
        i = int(np.argmax(best_values))
        if best_values[i] > s_gb:
            s_gb, p_gb = float(best_values[i]), best_position[i].copy()
        n_f += 1
        converged = _gap_met(u_max, s_gb, cfg.epsilon)

    return RunResult(s_gb, Allocation(*p_gb.tolist()), n_f, converged, cfg.seed)


def disc_pso(s: Scenario, objective: Objective, u_max: float, cfg: SwarmConfig) -> RunResult:
    """Swarm search with decaying inertia and per-coordinate velocity floors."""
    return _swarm_search(s, objective, u_max, cfg, dynamic_inertia=True, velocity_floor=True)


def baseline_pso(s: Scenario, objective: Objective, u_max: float, cfg: SwarmConfig) -> RunResult:
    """Plain swarm search: inertia fixed at w_max, no minimum-velocity floor."""
    return _swarm_search(s, objective, u_max, cfg, dynamic_inertia=False, velocity_floor=False)


def _initial_population(
    rng: np.random.Generator,
    cfg: SwarmConfig,
    f_range: tuple[float, float],
    b_range: tuple[float, float],
    initial_positions: Sequence[tuple[float, float]] | None,
) -> np.ndarray:
    if initial_positions is not None:
        pop = np.array(initial_positions, dtype=float)
        if pop.shape != (cfg.p_n, 2):
            raise ValueError(f"initial positions must have shape ({cfg.p_n}, 2), got {pop.shape}")
        return pop
    lo = np.array([f_range[0], b_range[0]])
    hi = np.array([f_range[1], b_range[1]])
    return lo + (hi - lo) * rng.random((cfg.p_n, 2))


def _evaluate_population(objective: Objective, pop: np.ndarray, where: str) -> np.ndarray:
    return np.array(
        [
            _checked_value(objective, Allocation(f, b), f"{where} (individual {i})")
            for i, (f, b) in enumerate(pop.tolist())
        ]
    )


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

    Mutation noise per gene is ``mutation_scale`` times the box width of
    that coordinate; elitism of one keeps the best individual. The keyword
    hyperparameters exist for experiments and tests; defaults are the
    comparison settings.
    """
    rng = np.random.default_rng(cfg.seed)
    lo = np.array([s.f_range[0], s.b_range[0]])
    hi = np.array([s.f_range[1], s.b_range[1]])
    width = hi - lo

    pop = _initial_population(rng, cfg, s.f_range, s.b_range, initial_positions)
    values = _evaluate_population(objective, pop, "initial sampling")
    best_idx = int(np.argmax(values))
    s_gb = float(values[best_idx])
    p_gb = Allocation(float(pop[best_idx, 0]), float(pop[best_idx, 1]))

    def tournament() -> np.ndarray:
        i = int(rng.integers(cfg.p_n))
        j = int(rng.integers(cfg.p_n))
        return pop[i] if values[i] >= values[j] else pop[j]

    n_f = 0
    converged = _gap_met(u_max, s_gb, cfg.epsilon)
    while not converged and n_f < cfg.n_max:
        elite_idx = int(np.argmax(values))
        new_pop = [pop[elite_idx].copy()]
        new_values = [float(values[elite_idx])]
        while len(new_pop) < cfg.p_n:
            parent1 = tournament()
            parent2 = tournament()
            if rng.random() < crossover_rate:
                lam = rng.random()
                child = lam * parent1 + (1.0 - lam) * parent2
            else:
                child = parent1.copy()
            for gene in (0, 1):
                if rng.random() < mutation_rate:
                    child[gene] += rng.normal(0.0, mutation_scale * width[gene])
            child = np.clip(child, lo, hi)
            value = _checked_value(
                objective,
                Allocation(float(child[0]), float(child[1])),
                f"generation {n_f} (offspring {len(new_pop)})",
            )
            new_pop.append(child)
            new_values.append(value)
        pop = np.array(new_pop)
        values = np.array(new_values)
        best_idx = int(np.argmax(values))
        if float(values[best_idx]) > s_gb:
            s_gb = float(values[best_idx])
            p_gb = Allocation(float(pop[best_idx, 0]), float(pop[best_idx, 1]))
        n_f += 1
        converged = _gap_met(u_max, s_gb, cfg.epsilon)

    return RunResult(s_gb, p_gb, n_f, converged, cfg.seed)


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
    """Differential-evolution baseline (rand/1/bin) with box clamping."""
    rng = np.random.default_rng(cfg.seed)
    lo = np.array([s.f_range[0], s.b_range[0]])
    hi = np.array([s.f_range[1], s.b_range[1]])

    pop = _initial_population(rng, cfg, s.f_range, s.b_range, initial_positions)
    values = _evaluate_population(objective, pop, "initial sampling")
    best_idx = int(np.argmax(values))
    s_gb = float(values[best_idx])
    p_gb = Allocation(float(pop[best_idx, 0]), float(pop[best_idx, 1]))

    n_f = 0
    converged = _gap_met(u_max, s_gb, cfg.epsilon)
    while not converged and n_f < cfg.n_max:
        new_pop = pop.copy()
        new_values = values.copy()
        for i in range(cfg.p_n):
            others = np.delete(np.arange(cfg.p_n), i)
            r1, r2, r3 = rng.choice(others, size=3, replace=False)
            mutant = np.clip(pop[r1] + weight * (pop[r2] - pop[r3]), lo, hi)
            j_rand = int(rng.integers(2))
            mask = rng.random(2) < crossover
            if crossover > 0.0:
                mask[j_rand] = True
            trial = np.where(mask, mutant, pop[i])
            value = _checked_value(
                objective,
                Allocation(float(trial[0]), float(trial[1])),
                f"generation {n_f} (individual {i})",
            )
            if value >= values[i]:
                new_pop[i] = trial
                new_values[i] = value
        pop = new_pop
        values = new_values
        best_idx = int(np.argmax(values))
        if float(values[best_idx]) > s_gb:
            s_gb = float(values[best_idx])
            p_gb = Allocation(float(pop[best_idx, 0]), float(pop[best_idx, 1]))
        n_f += 1
        converged = _gap_met(u_max, s_gb, cfg.epsilon)

    return RunResult(s_gb, p_gb, n_f, converged, cfg.seed)


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
