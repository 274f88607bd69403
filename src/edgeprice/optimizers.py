"""Search for near-optimal allocations over the bounded (f_server, b) box.

Four maximizers share one search loop (``_search``), which seeds the
generators, samples the initial populations, tracks the global bests and
stops a trial once its gap u_max - best falls below epsilon*|best|, or
after n_max update rounds. For best > 0 this is the relative gap
(u_max - best)/best below epsilon; unlike that ratio, it keeps its
meaning when the utility is negative. ``iterations_used`` counts
completed update rounds, so a run whose initial sampling already
satisfies the gap reports 0.

The loop runs a batch of trials in lockstep: ``run_trials`` and
``replicate`` pass all their trials at once, and a single run is a batch
of one. Positions are (2, T, k) arrays, the f_server and b planes of k
rows for each of T trials, and values are (T, k); every per-trial array
has the trial axis second to last. Each trial draws from its own
generator, in the order it would alone, so a trial's result does not
depend on the batch it ran in. The proposal arithmetic, clipping and
acceptance then run once per round over all live trials. A trial that
meets the gap or reaches n_max is finished: its result is recorded and
it is dropped from the batch, so it draws and evaluates nothing further.
When every trial shares one objective, each round is scored in one call
over all live rows; otherwise each trial's objective scores its own rows
in one call per trial. When objectives fail, the ``OptimizerError`` names the
lowest-index trial among those that fail in the earliest failing round.

Each searcher is a proposal rule plus an acceptance rule over these
arrays. disc_pso is the enhanced swarm (linearly decaying inertia plus a
per-coordinate minimum velocity magnitude); baseline_pso is the same
rules with fixed inertia and no velocity floor. The GA and DE baselines
run fixed conventional operator settings (GA crossover 0.8, mutation
0.1 at 0.05 box widths; DE F = 0.5, CR = 0.9) and breed whole
generations with array draws.
"""
from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .offload import Allocation
from .scenario import Scenario

#: An ``Allocation`` of (k,) arrays in, the (k,) values of its rows out.
Objective = Callable[[Allocation], np.ndarray]


class OptimizerError(RuntimeError):
    """A run aborted, e.g. the objective produced a non-finite value.

    ``trial`` is the index of the failing trial in its batch (0 for a single run).
    """

    def __init__(self, message: str, trial: int = 0) -> None:
        super().__init__(message)
        self.trial = trial


@dataclass(frozen=True)
class SwarmConfig:
    """Search hyperparameters.

    All four searchers read p_n, n_max, epsilon and seed. The inertia
    bounds ``w_*``, learning factors ``c*_learn`` and velocity floors
    ``delta_*`` are swarm-only: baseline_pso reads w_max, c1_learn and
    c2_learn, disc_pso all of them; GA and DE read none.

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
        if self.seed < 0:
            raise ValueError(f"seed={self.seed!r}: must be >= 0")


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


def _uniforms(rngs: Sequence[np.random.Generator], shape: tuple[int, ...]) -> np.ndarray:
    """Each trial's next ``rng.random(shape)``, stacked on a leading trial axis."""
    out = np.empty((len(rngs), *shape))
    for rng, block in zip(rngs, out):
        rng.random(out=block)
    return out


def _planes(rows: np.ndarray) -> np.ndarray:
    """(T, k, c) per-trial rows of c columns as contiguous (c, T, k) planes."""
    return np.ascontiguousarray(rows.transpose(2, 0, 1))


def _score(objective: Objective, pop: np.ndarray, where: str, trial: int) -> np.ndarray:
    """The (T, k) values of the (2, T, k) rows ``pop``, scored in one objective call."""
    f, b = pop
    out = np.asarray(objective(Allocation(f.ravel(), b.ravel())), dtype=float)
    if out.shape != (f.size,):
        raise OptimizerError(
            f"objective returned shape {out.shape} for {f.size} rows during {where}", trial
        )
    return out.reshape(f.shape)


def _evaluate_population(
    objectives: Sequence[Objective], shared: bool, trials: list[int], pop: np.ndarray, where: str,
) -> np.ndarray:
    """The (T, k) values of a (2, T, k) batch: one call if ``shared``, else one per trial on its rows."""
    if shared:
        values = _score(objectives[0], pop, where, trials[0])
    else:
        values = np.concatenate(
            [_score(objectives[trial], pop[:, t : t + 1], where, trial) for t, trial in enumerate(trials)]
        )
    finite = np.isfinite(values)
    if np.count_nonzero(finite) < finite.size:
        t, i = np.argwhere(~finite)[0].tolist()  # lowest trial, then individual
        f, b = pop[:, t, i].tolist()
        raise OptimizerError(
            f"non-finite objective value {float(values[t, i])!r} at "
            f"(f_server={f!r}, b={b!r}) during {where} (individual {i})",
            trials[t],
        )
    return values


def _track_best(
    s_gb: list[float], p_gb: np.ndarray, candidates: np.ndarray, candidate_values: np.ndarray,
) -> list[int]:
    """Per trial, the first best candidate replaces the global best where strictly greater.

    ``s_gb`` and ``p_gb`` are updated in place; the batch positions whose
    best changed are returned. The bookkeeping is a few scalar steps per
    trial, which cost less in Python than numpy calls on arrays of a few rows.
    """
    improved = []
    for t, i in enumerate(candidate_values.argmax(axis=1).tolist()):
        value = float(candidate_values[t, i])
        if value > s_gb[t]:
            s_gb[t] = value
            p_gb[:, t, 0] = candidates[:, t, i]
            improved.append(t)
    return improved


@functools.lru_cache(maxsize=64)
def _first_rows(n_trials: int, k: int) -> np.ndarray:
    """The flat index of each trial's first row in a (T, k) batch (read-only)."""
    first = np.arange(0, n_trials * k, k)
    first.flags.writeable = False
    return first


class _Rules(NamedTuple):
    """A searcher: its state, proposal and acceptance over a batch of T trials.

    Positions are (2, T, k) arrays, the f_server and b planes of k rows
    per trial; values are (T, k). ``init(pop)`` gives the rule state, a
    tuple of (2, T, k) arrays. ``propose(cfg, round, rngs, lo, hi, pop,
    values, p_gb, state)`` gives the candidates inside the (2, T, 1) box
    bounds ``lo``/``hi`` and the next state, drawing from each trial's
    generator in ``rngs``; ``p_gb`` holds the (2, T, 1) global bests.
    ``accept(pop, values, candidates, candidate_values)`` gives the next
    (pop, values). Rules keep no state of their own, so one set serves
    every run.
    """

    init: Callable[[np.ndarray], tuple[np.ndarray, ...]]
    propose: Callable[..., tuple[np.ndarray, tuple[np.ndarray, ...]]]
    accept: Callable[..., tuple[np.ndarray, np.ndarray]]


def _stateless(pop: np.ndarray) -> tuple[np.ndarray, ...]:
    return ()


@np.errstate(over="ignore", invalid="ignore")
def _search(
    settings: Sequence[tuple[Scenario, Objective, float]],
    seeds: Sequence[int],
    cfg: SwarmConfig,
    rules: _Rules,
) -> list[RunResult]:
    """The loop every searcher shares: trial i runs on ``settings[i]`` from ``seeds[i]``.

    The global best of a trial is the best candidate it ever evaluated
    (first argmax, replaced only when strictly greater). All live trials
    have completed the same number of rounds; the finished ones are
    recorded and dropped from every per-trial array, whose trial axis is
    the second to last, before the next round. Like float arithmetic, the
    objectives overflow to inf silently; a non-finite value raises.
    """
    n = len(settings)
    rngs = list(map(np.random.default_rng, seeds))
    _, objectives, u_max = zip(*settings)
    trials, u_max = list(range(n)), list(map(float, u_max))
    box = np.array([(s.f_range, s.b_range) for s, _, _ in settings]).T[..., None]  # (lo/hi, 2, T, 1)
    lo, hi = box[0], box[1]
    shared = all(objective is objectives[0] for objective in objectives)
    pop = lo + (hi - lo) * _planes(_uniforms(rngs, (cfg.p_n, 2)))
    values = _evaluate_population(objectives, shared, trials, pop, "initial sampling")
    state = rules.init(pop)
    s_gb, p_gb, converged = [-math.inf] * n, np.empty((2, n, 1)), [False] * n
    for t in _track_best(s_gb, p_gb, pop, values):
        converged[t] = _gap_met(u_max[t], s_gb[t], cfg.epsilon)

    results: list[RunResult] = [None] * n  # type: ignore[list-item]
    n_f = 0
    while True:
        done = converged if n_f < cfg.n_max else [True] * len(converged)
        if any(done):
            for t, trial in enumerate(trials):
                if done[t]:
                    results[trial] = RunResult(
                        s_gb[t], Allocation(*p_gb[:, t, 0].tolist()), n_f, converged[t], seeds[trial]
                    )
            if all(done):
                return results
            live = np.logical_not(done)
            lo, hi, pop, values, p_gb = (a[..., live, :] for a in (lo, hi, pop, values, p_gb))
            state = tuple(a[..., live, :] for a in state)
            trials, rngs, u_max, s_gb, converged = (
                [x for x, finished in zip(xs, done) if not finished]
                for xs in (trials, rngs, u_max, s_gb, converged)
            )

        candidates, state = rules.propose(cfg, n_f, rngs, lo, hi, pop, values, p_gb, state)
        candidate_values = _evaluate_population(objectives, shared, trials, candidates, f"round {n_f}")
        for t in _track_best(s_gb, p_gb, candidates, candidate_values):
            converged[t] = _gap_met(u_max[t], s_gb[t], cfg.epsilon)
        pop, values = rules.accept(pop, values, candidates, candidate_values)
        n_f += 1


def _replace_where(better: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> Callable:
    """Acceptance: candidate i replaces member i where ``better(its value, the member's)``."""
    def accept(pop, values, candidates, candidate_values):
        keep = better(candidate_values, values)
        return np.where(keep, candidates, pop), np.where(keep, candidate_values, values)
    return accept


@functools.lru_cache(maxsize=64)
def _velocity_floor(delta_f: float, delta_b: float) -> np.ndarray:
    """The per-coordinate minimum velocity magnitudes as read-only (2, 1, 1) planes."""
    floor = np.array([delta_f, delta_b]).reshape(2, 1, 1)
    floor.flags.writeable = False
    return floor


def _swarm(enhanced: bool) -> _Rules:
    """Swarm rules: the population is the personal bests; positions and velocities are state.

    ``enhanced`` adds disc_pso's decaying inertia and velocity floor to the plain swarm.
    """

    def init(pop):
        return pop, np.zeros(pop.shape)

    def propose(cfg, n_f, rngs, lo, hi, best_position, best_values, p_gb, state):
        position, velocity = state
        w = cfg.w_max - (cfg.w_max - cfg.w_min) * n_f / cfg.n_max if enhanced else cfg.w_max
        # per particle, the draws for (c1 f, c2 f, c1 b, c2 b), in that order, as (4, T, p_n)
        r = _uniforms(rngs, (cfg.p_n, 4)).transpose(2, 0, 1)
        velocity = (
            w * velocity
            + cfg.c1_learn * r[0::2] * (best_position - position)
            + cfg.c2_learn * r[1::2] * (p_gb - position)
        )
        if enhanced:
            velocity = _with_min_magnitude(velocity, _velocity_floor(cfg.delta_f, cfg.delta_b))
        position = (position + velocity).clip(lo, hi)
        return position, (position, velocity)

    return _Rules(init, propose, _replace_where(np.greater))


def _ga() -> _Rules:
    """GA rules: the elite plus p_n - 1 children bred from tournament winners."""

    def propose(cfg, n_f, rngs, lo, hi, pop, values, p_gb, state):
        n = cfg.p_n - 1
        # per trial: [parent, child, contestant], two tournaments of two per child;
        # then uniforms for crossover (n), lambda (n) and mutation (n, 2); then noise
        contest = np.array([rng.integers(cfg.p_n, size=(2, n, 2)) for rng in rngs])
        u = _uniforms(rngs, (4 * n,))
        noise = np.empty((len(rngs), n, 2))
        for rng, block in zip(rngs, noise):
            rng.standard_normal(out=block)
        contest += _first_rows(len(rngs), cfg.p_n)[:, None, None, None]  # flat row indices
        a, b = contest[..., 0], contest[..., 1]
        winners = np.where(values.take(a) >= values.take(b), a, b)
        parent1, parent2 = pop.reshape(2, -1).take(winners, axis=1).transpose(2, 0, 1, 3)
        lam = u[:, n : 2 * n]
        child = np.where(u[:, :n] < 0.8, lam * parent1 + (1.0 - lam) * parent2, parent1)
        mutate = _planes(u[:, 2 * n :].reshape(-1, n, 2)) < 0.1
        # 0.0 + sigma * z is what rng.normal(0.0, sigma) returns, bit for bit
        child = child + np.where(mutate, 0.0 + 0.05 * (hi - lo) * _planes(noise), 0.0)
        return child.clip(lo, hi), state

    def accept(pop, values, children, child_values):
        elite = values.argmax(axis=1) + _first_rows(*values.shape)  # flat row indices
        return (
            np.concatenate([pop.reshape(2, -1).take(elite, axis=1)[..., None], children], axis=2),
            np.concatenate([values.take(elite)[:, None], child_values], axis=1),
        )

    return _Rules(_stateless, propose, accept)


def _de() -> _Rules:
    """DE rules: rand/1/bin trial vectors, kept when at least as good as their target."""
    coordinates = np.arange(2)

    def propose(cfg, n_f, rngs, lo, hi, pop, values, p_gb, state):
        p_n = cfg.p_n
        # per trial: (p_n, p_n) random keys and a (p_n, 2) crossover draw, then j_rand
        u = _uniforms(rngs, (p_n * p_n + 2 * p_n,))
        j_rand = np.array([rng.integers(2, size=p_n) for rng in rngs])
        u[:, : p_n * p_n : p_n + 1] = 2.0  # the diagonal of each key matrix
        r = u[:, : p_n * p_n].reshape(-1, p_n, p_n).argsort(axis=2)[..., :3]
        r += _first_rows(len(rngs), p_n)[:, None, None]  # flat row indices
        x1, x2, x3 = pop.reshape(2, -1).take(r.transpose(2, 0, 1), axis=1).transpose(1, 0, 2, 3)
        mutant = (x1 + 0.5 * (x2 - x3)).clip(lo, hi)
        mask = (u[:, p_n * p_n :].reshape(-1, p_n, 2) < 0.9) | (j_rand[..., None] == coordinates)
        return np.where(_planes(mask), mutant, pop), state

    return _Rules(_stateless, propose, _replace_where(np.greater_equal))


def _run_one(s: Scenario, objective: Objective, u_max: float, cfg: SwarmConfig, rules: _Rules) -> RunResult:
    return _search([(s, objective, u_max)], (cfg.seed,), cfg, rules)[0]


def disc_pso(s: Scenario, objective: Objective, u_max: float, cfg: SwarmConfig) -> RunResult:
    """Swarm search with decaying inertia and per-coordinate velocity floors."""
    return _run_one(s, objective, u_max, cfg, _RULES[disc_pso])


def baseline_pso(s: Scenario, objective: Objective, u_max: float, cfg: SwarmConfig) -> RunResult:
    """Plain swarm search: inertia fixed at w_max, no minimum-velocity floor."""
    return _run_one(s, objective, u_max, cfg, _RULES[baseline_pso])


def baseline_ga(s: Scenario, objective: Objective, u_max: float, cfg: SwarmConfig) -> RunResult:
    """Genetic-algorithm baseline: tournament-2, arithmetic crossover, Gaussian mutation.

    Each generation is the elite (the best member, kept without being
    evaluated again) plus p_n - 1 children: crossover rate 0.8, per-gene
    mutation rate 0.1, mutation noise 0.05 times the box width of the gene.
    """
    return _run_one(s, objective, u_max, cfg, _RULES[baseline_ga])


def baseline_de(s: Scenario, objective: Objective, u_max: float, cfg: SwarmConfig) -> RunResult:
    """Differential-evolution baseline (rand/1/bin, Storn & Price 1997) with box clamping.

    Weight F = 0.5, crossover CR = 0.9 plus one forced j_rand gene per
    trial vector. r1, r2, r3 are distinct and never the target: the first
    three columns of the argsort of a random-key matrix whose diagonal
    sorts last.
    """
    return _run_one(s, objective, u_max, cfg, _RULES[baseline_de])


Algorithm = Callable[[Scenario, Objective, float, SwarmConfig], RunResult]

#: The rules each public searcher runs.
_RULES: dict[Algorithm, _Rules] = {
    disc_pso: _swarm(enhanced=True),
    baseline_pso: _swarm(enhanced=False),
    baseline_ga: _ga(),
    baseline_de: _de(),
}


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
    algorithms run on the same settings and cfg see paired seeds. The
    trials run as one lockstep batch, and each result equals the single
    run ``algorithm(*settings[i], replace(cfg, seed=seed_i))``. An
    ``OptimizerError`` starts with ``trial i:``, where i is the lowest
    index among the trials that fail in the earliest failing round.
    ``algorithm`` is one of disc_pso, baseline_pso, baseline_ga and
    baseline_de.
    """
    if not settings:
        raise ValueError("n_trials must be >= 1")
    if algorithm not in _RULES:
        names = ", ".join(f.__name__ for f in _RULES)
        raise ValueError(f"run_trials runs one of {names}; got {algorithm!r}")
    seeds = trial_seeds(cfg.seed, len(settings))
    try:
        runs = _search(settings, seeds, cfg, _RULES[algorithm])
    except OptimizerError as exc:
        raise OptimizerError(f"trial {exc.trial}: {exc}", exc.trial) from exc
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
