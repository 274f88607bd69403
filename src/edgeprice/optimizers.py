"""Search for near-optimal allocations over the bounded (f_server, b) box.

Four maximizers share one search loop (``_search``), which seeds the generators, samples the
initial populations, tracks the global bests and stops a trial once its gap u_max - best is at most
epsilon*|best|, or after n_max update rounds. For best > 0 this is the relative gap
(u_max - best)/best at most epsilon; unlike that ratio, it keeps its meaning when the utility is
negative, and it holds at best == u_max even where epsilon*|best| underflows to 0. The gap reference
u_max and epsilon are numbers by ``scenario.number_fault``: at -inf the stop test would hold at once,
and never at NaN or +inf. ``iterations_used`` counts completed update rounds, so a run whose initial
sampling already satisfies the gap reports 0.

The loop runs a batch of trials in lockstep: ``replicate`` passes all
its trials at once, and a single run is a batch of one. A batch has one
box, one objective and T seeds. Positions are (2, T, k) arrays, the
f_server and b planes of k rows for each of T trials, and values are
(T, k), the trial axis second to last. Each trial draws from its own
generator, in the order it would alone, so a trial's result does not
depend on the batch it ran in. A single run makes each draw as one
generator call with a leading trial axis of 1, a batch as one call per
trial, except where a round reads raw PCG64 words and decodes them as
numpy does, bit for bit: a GA batch reads each trial's tournaments and
uniforms as one block of words, and DE at an even p_n each trial's
j_rand. A GA trial whose words hold a draw numpy rejects makes numpy's
calls from that round on (see ``_ga_draws`` and ``_de_draws``; a canary
checks them against numpy's own calls). A trial that meets the gap or
reaches n_max is finished: its result is recorded and it leaves the
batch. Each round is one objective call on the (T, k) rows of the
batch, row t for trial t, so an objective whose scenario holds (T, 1)
columns gives each trial its own workload; a finished trial's rows are
the box corner, and their values are not read. When the objective
fails, the ``OptimizerError`` names the lowest-index trial among those
that fail in the earliest failing round.

A search reads one box, made once per ``Scenario`` instance and p_n:
read-only (2, 1, p_n) planes of lo, hi, the width, the GA's mutation
scale and disc_pso's velocity floor, each the shape of one trial's
candidates. Each searcher is one ``_Searcher`` object: its name,
a proposal rule and an acceptance rule over these arrays, and its fixed
settings. Calling it is one seeded run. ``ALGORITHMS`` lists the four by
name; the harness, the CLI and ``replicate`` all read that one table. A
swarm's state is its positions, its velocities and a block of
learning-factor draws for the rounds ahead, already scaled by c1 and c2;
it draws a block of 1, 2, 4, ... rounds per generator call, so a trial
that leaves the batch may have drawn up to one block ahead from its own
generator, which changes no result. disc_pso is the enhanced swarm:
inertia decaying linearly from 0.9 to 0.4 over n_max rounds, plus a
per-coordinate minimum velocity magnitude of 0.6 box widths for f_server
and 5/9 for b, so the floor follows the box. baseline_pso is the same
rules with inertia fixed at 0.9 and no velocity floor; both learn at
2.0. The GA and DE baselines run conventional operator settings (GA
crossover 0.8, mutation 0.1 at 0.05 box widths; DE F = 0.5, CR = 0.9)
and breed each generation in place, in the arrays their draws index.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .offload import Allocation
from .scenario import Scenario, checked, kept, number_fault, scenario_numbers

#: An ``Allocation`` of equal-shape arrays in, the values of its rows out in that shape.
Objective = Callable[[Allocation], np.ndarray]

#: The swarm settings. disc_pso's inertia decays linearly from _W_MAX to _W_MIN
#: over n_max rounds, baseline_pso's stays at _W_MAX; both learn at _C1 (own best)
#: and _C2 (global best).
_W_MAX, _W_MIN, _C1, _C2 = 0.9, 0.4, 2.0, 2.0
#: disc_pso's minimum velocity magnitude per round as a share of the box width, per
#: (f_server, b) plane: exactly 3e9 Hz and 5e5 bit/s on the paper's 1-6 GHz x 0.1-1 Mbit/s box.
_FLOOR_SHARE = np.array([0.6, 5e5 / 9e5]).reshape(2, 1, 1)


class OptimizerError(RuntimeError):
    """A run aborted, e.g. the objective produced a non-finite value.

    ``trial`` is the index of the failing trial in its batch (0 for a single run).
    """

    def __init__(self, message: str, trial: int = 0) -> None:
        super().__init__(message)
        self.trial = trial


def require_integer(name: str, value: object, least: int) -> None:
    """``ValueError`` naming the count ``name`` unless ``value`` is an integer >= ``least``: a numpy
    integer is one, a bool is not. Every count a caller passes goes through here."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name}={value!r}: must be an integer")
    if value < least:
        raise ValueError(f"{name}={value!r}: must be >= {least}")


@dataclass(frozen=True)
class SwarmConfig:
    """The settings every searcher reads; each searcher's own settings are fixed."""

    p_n: int = 30               # particle / population count
    n_max: int = 50             # maximum update rounds
    epsilon: float = 1e-3       # relative-gap termination threshold
    seed: int = 0

    #: The least value of each count; p_n's is 4 because DE draws three other individuals.
    _LEAST = {"p_n": 4, "n_max": 0, "seed": 0}

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, np.generic):  # a numpy scalar is kept as its Python number
                object.__setattr__(self, f.name, value := value.item())
            if f.name in self._LEAST:
                require_integer(f.name, value, self._LEAST[f.name])
            elif fault := number_fault(f.name, value):
                raise ValueError(fault)
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
    return u_max - best <= epsilon * abs(best)


def _with_min_magnitude(v: np.ndarray, floor: np.ndarray) -> np.ndarray:
    """Sign-preserving minimum magnitude per element; an exactly-zero velocity stays zero."""
    out = np.abs(v)
    np.maximum(out, floor, out=out, where=out != 0.0)
    return np.copysign(out, v, out=out)


def _draws(
    rngs: Sequence[np.random.Generator], shape: tuple[int, ...], kind: str = "random", high: int = 0
) -> np.ndarray:
    """Each trial's next ``shape`` of ``kind`` draws, stacked on a leading trial axis.

    ``kind`` is "random", "standard_normal" or "integers", the last drawing
    from [0, high). A single trial makes one call with a leading axis of 1,
    which gives the same numbers; a batch makes one call per trial, except
    where ``_ga_draws`` and ``_de_draws`` decode the trials' words. The
    single-trial branches also save time: without them (and ``_flat_rows``'),
    one interior-search round took 43-47 against 37-41 us for the GA and
    40-43 against 35-37 us for DE (2 CPUs, Python 3.11, numpy 2.4), and
    decoding a single GA trial's words read 1.04-1.08x per round.
    """
    if kind == "integers":  # the one kind without out=
        if len(rngs) == 1:
            return rngs[0].integers(high, size=(1, *shape))
        return np.array([rng.integers(high, size=shape) for rng in rngs])
    if len(rngs) == 1:
        return getattr(rngs[0], kind)(size=(1, *shape))
    # a batch fills one block with out=: stacking the trials' own arrays copies them too, 11.4
    # against 5.7 us for T = 4 (2, 2, 30) uniform blocks, 103 against 59 us for T = 50 (2 CPUs)
    draw = getattr(np.random.Generator, kind)
    out = np.empty((len(rngs), *shape))
    for rng, block in zip(rngs, out):
        draw(rng, out=block)
    return out


def _halves(words: np.ndarray) -> np.ndarray:
    """The 32-bit draws numpy makes from the words, two each, the low half first.

    The "<" byte order reads the low half first on a big-endian machine too.
    """
    return words.astype("<u8", copy=False).view("<u4")


def _ga_draws(
    rngs: Sequence[np.random.Generator], n: int, high: int, state: tuple[np.ndarray, ...]
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """A GA round's draws before its noise: per trial ``integers(high, size=(2, n, 2))``, then ``random(4n)``.

    Returns the (T, 2, n, 2) int64 and (T, 4n) blocks and the next state.
    A single run makes numpy's calls and keeps its state. A batch's state
    is ``()`` or the (T, 1) flags of the trials that make numpy's calls.
    A trial not flagged has no 32-bit half buffered, so its round is its
    next 6n words: numpy's Lemire draw from [0, high), high < 2**32, is
    (x * high) >> 32 for each of the first 2n words' 4n halves x, unless
    (x * high) mod 2**32 < 2**32 mod high, where it rejects x and reads the
    next half. A trial whose halves hold a rejection (4.3e-7 of trial-rounds
    at high 30) is rewound by its 6n words, its buffer still empty, redrawn
    by numpy and flagged: whatever numpy's buffer then holds, a flagged
    trial makes numpy's calls for the rest of its run, so the decode has
    one exit and a flagged trial's draws are numpy's own.
    """
    if len(rngs) == 1:
        return _draws(rngs, (2, n, 2), "integers", high), _draws(rngs, (4 * n,)), state
    (numpy_calls,) = state or (np.zeros((len(rngs), 1), bool),)
    flagged = np.flatnonzero(numpy_calls).tolist()
    unread = np.zeros(6 * n, np.uint64)  # a flagged trial's row: its draws are numpy's, below
    words = np.array([unread if t in flagged else rng.bit_generator.random_raw(6 * n)
                      for t, rng in enumerate(rngs)])
    products = _halves(words[:, : 2 * n]).astype(np.uint64) * high
    contest = (products >> 32).view(np.int64).reshape(-1, 2, n, 2)
    u = np.multiply(words[:, 2 * n :] >> 11, 1.0 / 2**53)  # numpy's double of a word: its top 53 bits
    rejected = np.flatnonzero((products.astype(np.uint32) < 2**32 % high).any(axis=1)).tolist()
    for t in sorted({*flagged, *rejected}):
        rng = rngs[t]
        if t not in flagged:
            rng.bit_generator.advance(2**128 - 6 * n)  # back 6n words; advance also empties the buffer
            numpy_calls[t] = True
        contest[t] = rng.integers(high, size=(2, n, 2))
        rng.random(out=u[t])
    return contest, u, (numpy_calls,)


def _de_draws(rngs: Sequence[np.random.Generator], p_n: int) -> tuple[np.ndarray, np.ndarray]:
    """A DE round's draws: per trial ``random(p_n**2 + 2 p_n)``, then j_rand, ``integers(2, size=p_n)``.

    At an even p_n each trial's j_rand is read from its next p_n/2 words,
    each draw the top bit of a 32-bit half: a draw from [0, 2) never
    rejects, and an even count of halves leaves none buffered for the next
    round. An odd p_n leaves one buffered every other round, so it makes
    numpy's calls. The doubles stay numpy's own fill: decoded from words
    as well, they read 1.09x at T = 50 and 1.58x at T = 1000 (three passes
    over a (T, p_n**2 + 2 p_n) block). A single run takes the even rule too:
    against numpy's calls it read 0.90-0.93x per round (2 CPUs, Python
    3.11, numpy 2.4).
    """
    n_doubles = p_n * p_n + 2 * p_n
    if p_n % 2:
        return _draws(rngs, (n_doubles,)), _draws(rngs, (p_n,), "integers", 2)
    u, words, draw = np.empty((len(rngs), n_doubles)), [], np.random.Generator.random
    for rng, row in zip(rngs, u):
        draw(rng, out=row)
        words.append(rng.bit_generator.random_raw(p_n // 2))
    return u, _halves(np.array(words)) >> 31


def _planes(rows: np.ndarray) -> np.ndarray:
    """(T, k, c) per-trial rows of c columns as contiguous (c, T, k) planes."""
    return np.ascontiguousarray(rows.transpose(2, 0, 1))


def _stage(n_f: int | None) -> str:
    return "initial sampling" if n_f is None else f"round {n_f}"


def _evaluate_population(
    objective: Objective, n_trials: int, trials: list[int], hi: np.ndarray, pop: np.ndarray, n_f: int | None
) -> np.ndarray:
    """The (L, k) values of the live trials' (2, L, k) rows ``pop``, scored in one objective call.

    The call scores the (T, k) rows of the whole batch, row t for trial t;
    a finished trial's rows are the box corner ``hi[..., 0]`` and are not read.
    ``n_f`` is the round, None for the initial sampling; an error names it.
    """
    rows = pop
    if len(trials) < n_trials:
        rows = np.broadcast_to(hi[..., :1], (2, n_trials, pop.shape[2])).copy()
        rows[:, trials] = pop
    f, b = rows[0], rows[1]  # indexing: unpacking goes through the array's iterator, a slower path
    values = np.asarray(objective(Allocation(f, b)), dtype=float)
    if values.shape != f.shape:
        raise OptimizerError(
            f"objective returned shape {values.shape} for {f.size} rows during {_stage(n_f)}", trials[0]
        )
    if rows is not pop:
        values = values[trials]
    finite = np.isfinite(values)
    if np.count_nonzero(finite) < finite.size:
        t, i = np.argwhere(~finite)[0].tolist()  # lowest trial, then individual
        f, b = pop[:, t, i].tolist()
        raise OptimizerError(
            f"non-finite objective value {float(values[t, i])!r} at "
            f"(f_server={f!r}, b={b!r}) during {_stage(n_f)} (individual {i})",
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
            p_gb[:, t] = candidates[:, t, i, None]
            improved.append(t)
    return improved


class _Box(NamedTuple):
    """A search box as read-only (2, 1, k) planes, each constant along its row.

    A plane has the shape of one trial's k candidates, so on a single run
    numpy takes its same-shape path.
    """

    lo: np.ndarray
    hi: np.ndarray
    width: np.ndarray   # hi - lo
    sigma: np.ndarray   # the GA's mutation scale, 0.05 * width
    floor: np.ndarray   # disc_pso's velocity floor, _FLOOR_SHARE * width


def _search_box(s: Scenario, k: int) -> _Box:
    """The box of ``s`` for k candidates per trial, made once per instance and k: see ``kept``."""

    def make(s: Scenario) -> _Box:
        lo, hi = np.array([s.f_range, s.b_range]).T[..., None, None].repeat(k, axis=-1)
        width = hi - lo
        box = _Box(lo, hi, width, 0.05 * width, _FLOOR_SHARE * width)
        for plane in box:
            plane.flags.writeable = False
        return box

    return kept(s, f"_search_box{k}", make)


def _flat_rows(index: np.ndarray, k: int) -> np.ndarray:
    """The (T, ...) per-trial row indices ``index`` made flat indices into a (T, k) batch, in place.

    A single trial's row indices are already flat, so it adds no offsets,
    which saves a GA or DE round time as ``_draws``' single-trial branches do.
    """
    if len(index) > 1:
        index += np.arange(0, len(index) * k, k).reshape(-1, *[1] * (index.ndim - 1))
    return index


@dataclass(frozen=True)
class _Searcher:
    """A searcher: its name, a proposal rule and an acceptance rule over a batch of T trials.

    Calling it, ``searcher(s, objective, u_max, cfg)``, is the single run
    seeded by ``cfg.seed``: a batch of one trial. ``replicate`` runs many.
    Positions are (2, T, k) arrays, the f_server and b planes of k rows
    per trial; values are (T, k). ``propose(cfg, round, rngs, box, pop,
    values, p_gb, state)`` gives the new candidates and the next state,
    inside ``box``, the scenario's ``_Box`` for p_n candidates per trial
    (the GA's p_n - 1 children read its last p_n - 1 columns), drawing
    from each trial's generator in ``rngs``; ``p_gb`` holds the (2, T,
    p_n) global bests, each trial's repeated along its row. The state is
    ``()`` until a searcher returns its own: a tuple of arrays whose trial
    axis is second to last, sharing no memory with ``pop``. ``accept(pop,
    values, candidates, candidate_values)`` writes the next generation
    into the search's own ``pop`` and ``values``, in place, and returns
    nothing; it only reads the candidates and the objective's values. A
    searcher keeps no state of its own, so one instance serves every run.
    """

    name: str
    propose: Callable[..., tuple[np.ndarray, tuple[np.ndarray, ...]]] = field(repr=False)
    accept: Callable[..., None] = field(repr=False)

    def __call__(self, s: Scenario, objective: Objective, u_max: float, cfg: SwarmConfig) -> RunResult:
        return _search(s, objective, u_max, (cfg.seed,), cfg, self)[0]


@np.errstate(all="ignore")
def _search(
    s: Scenario, objective: Objective, u_max: float | np.ndarray, seeds: Sequence[int], cfg: SwarmConfig,
    searcher: _Searcher,
) -> list[RunResult]:
    """The loop every searcher shares: trial i runs from ``seeds[i]`` in the box of ``s``.

    ``u_max`` and the numbers of ``s`` have the shapes ``replicate`` states, and ``u_max``, or each
    element of a list or array, is a number by ``scenario.number_fault``, or ``ValueError`` names it
    before any draw, an element by its trial's index (``u_max[1]=-inf``). The global best
    of a trial is the best candidate it ever evaluated (first argmax, replaced only when strictly
    greater). All live trials have completed the same number of rounds; the finished ones are
    recorded and dropped from every per-trial array, whose trial axis is the second to last, before
    the next round. Under ``np.errstate(all="ignore")`` the objective gives inf or NaN silently; a
    non-finite value raises. A scenario that fails ``validate`` raises ``ScenarioError`` before any draw.
    """
    checked(s)
    n = len(seeds)
    misfits = kept(s, f"_batch_misfits{n}", lambda s: [  # one value, or a (T, 1) column per trial
        f"{name} has shape {np.shape(v)}" for name, v in scenario_numbers(s).items()
        if np.size(v) != 1 and np.shape(v) != (n, 1)])
    if type(u_max) is not float and np.size(u_max) != 1 and np.shape(u_max) != (n,):
        misfits = [*misfits, f"u_max has shape {np.shape(u_max)}"]
    if misfits:
        raise ValueError(f"a batch reads numbers, (T, 1) scenario columns and a float or (T,) u_max "
                         f"for its T = {n} trials, but {', '.join(misfits)}")
    # the stop test holds at once at -inf and never at NaN or +inf, and numpy reads True as 1.0
    reference = u_max if type(u_max) is float or np.ndim(u_max) == 0 else np.asarray(u_max)  # a list too
    fault = number_fault("u_max", reference, arrays=True)
    if fault and np.ndim(reference):  # name the first failing element: its index is the trial's
        faults = (number_fault(f"u_max[{t}]", value) for t, value in enumerate(reference.ravel().tolist()))
        fault = next(filter(None, faults), fault)
    if fault:
        raise ValueError(fault)
    u_max = [u_max] * n if type(u_max) is float else np.full(n, u_max).tolist()
    rngs = list(map(np.random.default_rng, seeds))
    trials = list(range(n))
    box = _search_box(s, cfg.p_n)
    pop = box.lo + box.width * _planes(_draws(rngs, (cfg.p_n, 2)))
    # a copy: acceptance updates the values in place, and the objective's array is not the search's
    values = _evaluate_population(objective, n, trials, box.hi, pop, None).copy()
    state: tuple[np.ndarray, ...] = ()
    # each trial's global best repeated along its row: the swarm's p_gb - x then needs no broadcast
    s_gb, p_gb, converged = [-math.inf] * n, np.empty((2, n, cfg.p_n)), [False] * n
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
            pop, values, p_gb = (a[..., live, :] for a in (pop, values, p_gb))
            state = tuple(a[..., live, :] for a in state)
            trials, rngs, u_max, s_gb, converged = (
                [x for x, finished in zip(xs, done) if not finished]
                for xs in (trials, rngs, u_max, s_gb, converged)
            )

        candidates, state = searcher.propose(cfg, n_f, rngs, box, pop, values, p_gb, state)
        candidate_values = _evaluate_population(objective, n, trials, box.hi, candidates, n_f)
        for t in _track_best(s_gb, p_gb, candidates, candidate_values):
            converged[t] = _gap_met(u_max[t], s_gb[t], cfg.epsilon)
        searcher.accept(pop, values, candidates, candidate_values)
        n_f += 1


def _replace_where(better: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> Callable:
    """Acceptance: candidate i replaces member i, in place, where ``better(its value, the member's)``."""
    def accept(pop, values, candidates, candidate_values):
        keep = better(candidate_values, values)
        np.copyto(pop, candidates, where=keep)
        np.copyto(values, candidate_values, where=keep)
    return accept


#: The learning factors as a (2, 1, 1, 1) column: c1 scales the draws of plane 0, c2 those of plane 1.
_LEARNING = np.array([_C1, _C2]).reshape(2, 1, 1, 1)
#: A block of swarm draws holds at most this many doubles, unless one round holds more.
_BLOCK_DOUBLES = 2**16


def _learning_draws(rngs: Sequence[np.random.Generator], cfg: SwarmConfig, n_f: int) -> np.ndarray:
    """The draws of rounds n_f, n_f + 1, ... as (R, 2, 2, T, p_n) planes, times c1 and c2.

    block[i, j] holds round n_f + i's draws for learning factor j as
    (f_server, b) planes. A round's draws are each trial's
    ``rng.random((p_n, 2, 2))``, per particle (c1 f, c2 f, c1 b, c2 b), and one
    call for R rounds gives the doubles of R such calls. R = n_f + 1 (blocks
    of 1, 2, 4, ... rounds), up to round n_max - 1 and _BLOCK_DOUBLES.
    """
    per_round = len(rngs) * cfg.p_n * 4
    n = min(n_f + 1, cfg.n_max - n_f, max(1, _BLOCK_DOUBLES // per_round))
    draws = _draws(rngs, (n, cfg.p_n, 2, 2)).transpose(1, 4, 3, 0, 2)
    return np.multiply(draws, _LEARNING, order="C")


def _swarm(name: str, enhanced: bool) -> _Searcher:
    """A swarm: the population is the personal bests; positions, velocities and draws are state.

    ``enhanced`` adds disc_pso's decaying inertia and velocity floor to the plain swarm.
    """

    def propose(cfg, n_f, rngs, box, best_position, best_values, p_gb, state):
        # round 0 starts the particles at their personal bests, at rest, with no draws yet
        position, velocity, draws = state or (best_position.copy(), np.zeros(best_position.shape), ())
        if not len(draws):
            draws = _learning_draws(rngs, cfg, n_f)
        r, draws = draws[0], draws[1:]
        w = _W_MAX - (_W_MAX - _W_MIN) * n_f / cfg.n_max if enhanced else _W_MAX
        # w v + c1 r (best - x) + c2 r (p_gb - x), in that order, into this round's new array
        velocity = w * velocity
        pull = best_position - position
        pull *= r[0]
        velocity += pull
        np.subtract(p_gb, position, out=pull)
        pull *= r[1]
        velocity += pull
        if enhanced:
            velocity = _with_min_magnitude(velocity, box.floor)
        position = (position + velocity).clip(box.lo, box.hi)
        return position, (position, velocity, draws)

    return _Searcher(name, propose, _replace_where(np.greater))


def _ga() -> _Searcher:
    """The GA: the elite plus p_n - 1 children bred from tournament winners."""

    def propose(cfg, n_f, rngs, box, pop, values, p_gb, state):
        n = cfg.p_n - 1
        # per trial: [parent, child, contestant], two tournaments of two per child;
        # then uniforms for crossover (n), lambda (n) and mutation (n, 2); then noise.
        # a batch decodes the first two from each trial's words; its state flags the trials that cannot
        contest, u, state = _ga_draws(rngs, n, cfg.p_n, state)
        contest = _flat_rows(contest, cfg.p_n)
        noise = _draws(rngs, (n, 2), "standard_normal")
        score = values.take(contest)  # both contestants of every tournament
        winners = np.where(score[..., 0] >= score[..., 1], contest[..., 0], contest[..., 1])
        rows = pop.reshape(2, -1)
        child, other = rows.take(winners[:, 0], axis=1), rows.take(winners[:, 1], axis=1)
        lam = u[:, n : 2 * n]
        other *= 1.0 - lam
        other += lam * child  # lam * child + (1 - lam) * other: the same bits in either order
        np.copyto(child, other, where=u[:, :n] < 0.8)
        mutate = _planes(u[:, 2 * n :].reshape(-1, n, 2)) < 0.1
        # child + (0.0 + sigma * z), 0.0 + sigma * z being rng.normal(0.0, sigma) bit for bit:
        # the 0.0 only turns -0.0 into 0.0, which adds nothing to a child >= lo > 0
        np.add(child, box.sigma[..., 1:] * _planes(noise), out=child, where=mutate)
        return child.clip(box.lo[..., 1:], box.hi[..., 1:], out=child), state

    def accept(pop, values, children, child_values):
        elite = _flat_rows(values.argmax(axis=1), values.shape[1])
        pop[..., 0] = pop.reshape(2, -1).take(elite, axis=1)
        pop[..., 1:] = children
        values[:, 0] = values.take(elite)
        values[:, 1:] = child_values

    return _Searcher("ga", propose, accept)


def _de() -> _Searcher:
    """DE: rand/1/bin trial vectors, kept when at least as good as their target."""
    coordinates = np.arange(2).reshape(2, 1, 1)

    def propose(cfg, n_f, rngs, box, pop, values, p_gb, state):
        p_n = cfg.p_n
        # per trial: (p_n, p_n) random keys and a (p_n, 2) crossover draw, then j_rand;
        # at an even p_n, j_rand is decoded from each trial's words
        u, j_rand = _de_draws(rngs, p_n)
        u[:, : p_n * p_n : p_n + 1] = 2.0  # the diagonal of each key matrix
        r = _flat_rows(u[:, : p_n * p_n].reshape(-1, p_n, p_n).argsort(axis=2)[..., :3], p_n)
        rows = pop.reshape(2, -1)
        mutant = rows.take(r[..., 1], axis=1)
        mutant -= rows.take(r[..., 2], axis=1)
        mutant *= 0.5
        mutant += rows.take(r[..., 0], axis=1)  # x1 + 0.5 * (x2 - x3)
        mutant.clip(box.lo, box.hi, out=mutant)
        # the target's own coordinate stays where the crossover draw is >= CR and it is not j_rand
        keep = _planes(u[:, p_n * p_n :].reshape(-1, p_n, 2) >= 0.9) & (j_rand != coordinates)
        np.copyto(mutant, pop, where=keep)
        return mutant, state

    return _Searcher("de", propose, _replace_where(np.greater_equal))


#: Swarm search with inertia decaying 0.9 -> 0.4 and velocity floors of 0.6 and 5/9 box widths.
disc_pso = _swarm("disc-pso", enhanced=True)
#: Plain swarm search: inertia fixed at 0.9, no minimum-velocity floor.
baseline_pso = _swarm("pso", enhanced=False)
#: Genetic-algorithm baseline: tournament-2, arithmetic crossover, Gaussian mutation. Each
#: generation is the elite (the best member, kept without being evaluated again) plus p_n - 1
#: children: crossover rate 0.8, per-gene mutation rate 0.1, mutation noise 0.05 times the box
#: width of the gene.
baseline_ga = _ga()
#: Differential-evolution baseline (rand/1/bin, Storn & Price 1997) with box clamping. Weight
#: F = 0.5, crossover CR = 0.9 plus one forced j_rand gene per trial vector. r1, r2, r3 are
#: distinct and never the target: the first three columns of the argsort of a random-key matrix
#: whose diagonal sorts last.
baseline_de = _de()

#: The searchers by name, in the order they are compared and reported.
ALGORITHMS = {a.name: a for a in (disc_pso, baseline_pso, baseline_ga, baseline_de)}


def trial_seeds(seed: int, n_trials: int) -> tuple[int, ...]:
    """Deterministic per-trial seeds derived from one master seed."""
    return tuple(int(x) for x in np.random.SeedSequence(seed).generate_state(n_trials))


def stats_from_runs(runs: Sequence[RunResult]) -> TrialStats:
    values = np.array([r.best_value for r in runs])
    iterations = np.array([r.iterations_used for r in runs])
    # std squares each deviation, which overflows past about 1e154: values beyond 2**400 are
    # scaled down by an exact power of two for the mean and std, and these are scaled back
    shift = max(int(np.frexp(np.abs(values).max())[1]) - 400, 0)
    scaled = np.ldexp(values, -shift)
    return TrialStats(
        mean_value=float(np.ldexp(scaled.mean(), shift)),
        std_value=float(np.ldexp(scaled.std(), shift)),
        mean_iterations=float(iterations.mean()),
        value_list=tuple(float(v) for v in values),
        iteration_list=tuple(int(i) for i in iterations),
        position_list=tuple(r.best_position for r in runs),
        seed_list=tuple(r.seed for r in runs),
        converged_list=tuple(r.converged for r in runs),
    )


def replicate(
    algorithm: _Searcher,
    s: Scenario,
    objective: Objective,
    u_max: float | np.ndarray,
    cfg: SwarmConfig,
    n_trials: int,
) -> TrialStats:
    """Run ``n_trials`` seeded trials as one lockstep batch and aggregate.

    Trial i uses the i-th of ``trial_seeds(cfg.seed, n_trials)``, so algorithms run on the same
    arguments see paired seeds, and its result equals the single run replayed from that seed.
    ``u_max`` is one number or a (T,) array of them, and each number of ``s`` one value or a (T, 1)
    column, which gives each trial its own workload; any other shape, a (T,) row included, or a
    value that is no number, raises ``ValueError`` naming it. An ``OptimizerError`` starts with
    ``trial i:``, where i is the lowest index among the trials that fail in the earliest failing
    round. ``algorithm`` is one of the searchers in ``ALGORITHMS``; any other object, a
    ``dataclasses.replace`` copy under another name included, raises ``ValueError``.
    """
    require_integer("n_trials", n_trials, 1)
    if algorithm not in ALGORITHMS.values():
        raise ValueError(f"replicate runs one of {', '.join(ALGORITHMS)}; got {algorithm!r}")
    seeds = trial_seeds(cfg.seed, n_trials)
    try:
        runs = _search(s, objective, u_max, seeds, cfg, algorithm)
    except OptimizerError as exc:
        raise OptimizerError(f"trial {exc.trial}: {exc}", exc.trial) from exc
    return stats_from_runs(runs)
