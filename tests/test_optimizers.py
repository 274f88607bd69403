import dataclasses
import functools
import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from edgeprice import optimizers
from edgeprice.harness import box_maximum_utility, compare_optimizers, corner_allocation
from edgeprice.offload import Allocation
from edgeprice.optimizers import (
    OptimizerError,
    RunResult,
    SwarmConfig,
    _with_min_magnitude,
    baseline_de,
    baseline_ga,
    baseline_pso,
    disc_pso,
    replicate,
    trial_seeds,
)
from edgeprice.pricing import (
    critical_point,
    derive_coefficients,
    dynamic_utility_objective,
    linear_user_utility_value,
)
from edgeprice.scenario import DEFAULT_CONFIG, default_scenario, scenario_from_config, validate
from edgeprice.verification import _scenario_from_uniforms, random_scenario

from support import wide_settings

ALGORITHMS = (disc_pso, baseline_pso, baseline_ga, baseline_de)
#: Each searcher's module attribute name: the id of its parametrized cases, kept stable.
_IDS = {disc_pso: "disc_pso", baseline_pso: "baseline_pso", baseline_ga: "baseline_ga", baseline_de: "baseline_de"}


@pytest.fixture
def setting():
    s = default_scenario()
    objective = dynamic_utility_objective(s)
    return s, objective, box_maximum_utility(s)


class CountingObjective:
    """Counts objective calls and the rows they score, and keeps the best value seen."""

    def __init__(self, objective):
        self.objective = objective
        self.calls = 0
        self.rows = 0
        self.best_seen = -math.inf

    def __call__(self, alloc):
        self.calls += 1
        self.rows += np.size(alloc.f_server)
        values = self.objective(alloc)
        self.best_seen = max(self.best_seen, float(np.max(values)))
        return values


@pytest.mark.parametrize("algorithm", ALGORITHMS, ids=_IDS.get)
def test_fixed_seed_determinism(setting, algorithm):
    s, objective, u_max = setting
    cfg = SwarmConfig(seed=7)
    assert algorithm(s, objective, u_max, cfg) == algorithm(s, objective, u_max, cfg)


@pytest.mark.parametrize("u", [0.0, -0.0, 5e-324, 1e-320, -1e-320])
def test_a_best_equal_to_u_max_meets_the_gap_where_epsilon_times_best_is_zero(u):
    assert optimizers._gap_met(u, u, 1e-3)


@pytest.mark.parametrize("algorithm", ALGORITHMS, ids=_IDS.get)
def test_vacuous_gap_converges_at_iteration_zero(setting, algorithm):
    s, objective, u_max = setting
    cfg = SwarmConfig(seed=3, epsilon=1e9)
    spy = CountingObjective(objective)
    result = algorithm(s, spy, u_max, cfg)
    assert result.converged
    assert result.iterations_used == 0
    assert spy.rows == cfg.p_n  # only the initial sampling ran
    assert result.best_value == spy.best_seen


@pytest.mark.parametrize("algorithm", ALGORITHMS, ids=_IDS.get)
def test_best_position_feasible(setting, algorithm):
    s, objective, u_max = setting
    for seed in range(8):
        result = algorithm(s, objective, u_max, SwarmConfig(seed=seed))
        assert s.f_range[0] <= result.best_position.f_server <= s.f_range[1]
        assert s.b_range[0] <= result.best_position.b <= s.b_range[1]


@pytest.mark.parametrize("algorithm", ALGORITHMS, ids=_IDS.get)
def test_best_value_is_max_of_evaluations(setting, algorithm):
    # the reported best never regresses below anything the run evaluated
    s, objective, u_max = setting
    spy = CountingObjective(objective)
    result = algorithm(s, spy, u_max, SwarmConfig(seed=11, epsilon=1e-9, n_max=12))
    assert result.best_value == spy.best_seen


@pytest.mark.parametrize("algorithm", ALGORITHMS, ids=_IDS.get)
def test_evaluation_budget(setting, algorithm):
    s, objective, u_max = setting
    cfg = SwarmConfig(seed=5, epsilon=1e-12, n_max=9)  # force a full run
    spy = CountingObjective(objective)
    algorithm(s, spy, u_max, cfg)
    assert spy.rows <= cfg.p_n * (cfg.n_max + 1)


@pytest.mark.parametrize("algorithm", ALGORITHMS, ids=_IDS.get)
def test_evaluation_count_of_full_run(setting, algorithm):
    # one initial sampling of p_n, then p_n per round; GA keeps its elite unevaluated
    s, objective, u_max = setting
    cfg = SwarmConfig(seed=5, epsilon=1e-12, n_max=9)
    spy = CountingObjective(objective)
    result = algorithm(s, spy, u_max * 1.1, cfg)  # unreachable reference
    assert result.iterations_used == cfg.n_max
    per_round = cfg.p_n - 1 if algorithm is baseline_ga else cfg.p_n
    assert spy.rows == cfg.p_n + cfg.n_max * per_round


@pytest.mark.parametrize("algorithm", ALGORITHMS, ids=_IDS.get)
def test_one_objective_call_per_population(setting, algorithm):
    # the initial sampling and each round are scored in one call each
    s, objective, u_max = setting
    spy = CountingObjective(objective)
    result = algorithm(s, spy, u_max * 1.1, SwarmConfig(seed=5, n_max=9))
    assert result.iterations_used == 9
    assert spy.calls == result.iterations_used + 1


@pytest.mark.parametrize("algorithm", ALGORITHMS, ids=_IDS.get)
def test_gap_soundness(setting, algorithm):
    s, objective, u_max = setting
    for seed in range(8):
        cfg = SwarmConfig(seed=seed)
        result = algorithm(s, objective, u_max, cfg)
        if result.converged:
            assert (u_max - result.best_value) / result.best_value < cfg.epsilon


def test_non_finite_objective_aborts_with_diagnostic(setting):
    s, _, u_max = setting

    def broken(alloc):
        return np.full(np.shape(alloc.f_server), np.nan)

    with pytest.raises(OptimizerError, match="non-finite"):
        disc_pso(s, broken, u_max, SwarmConfig(seed=1))


@pytest.mark.parametrize("algorithm", ALGORITHMS, ids=_IDS.get)
def test_scalar_objective_is_rejected_with_its_shape(setting, algorithm):
    # an objective that scores one row at a time cannot score a population
    s, _, u_max = setting
    with pytest.raises(OptimizerError, match=r"shape \(\) for 30 rows during initial sampling"):
        algorithm(s, lambda alloc: 1.0, u_max, SwarmConfig(seed=1))


def test_structural_equivalence_of_pso_variants(setting, monkeypatch):
    # with the enhancements patched away the two searches coincide
    import edgeprice.optimizers as opt

    monkeypatch.setattr(opt, "_W_MIN", opt._W_MAX)
    monkeypatch.setattr(opt, "_FLOOR_SHARE", np.zeros((2, 1, 1)))
    s, objective, u_max = setting
    cfg = SwarmConfig(seed=13, epsilon=1e-9)
    assert disc_pso(s, objective, u_max, cfg) == baseline_pso(s, objective, u_max, cfg)


def test_velocity_floor_helper():
    v = np.array([[0.0, 0.0], [2.0, 2.0], [-2.0, -2.0], [7.0, 70.0], [-7.0, -70.0], [-0.0, 1.0]])
    out = _with_min_magnitude(v, np.array([5.0, 50.0]))
    expected = [[0.0, 0.0], [5.0, 50.0], [-5.0, -50.0], [7.0, 70.0], [-7.0, -70.0], [0.0, 50.0]]
    assert out.tolist() == expected


def test_velocity_floor_applied_every_round(setting, monkeypatch):
    import edgeprice.optimizers as opt

    recorded = []
    original = opt._with_min_magnitude

    def spy(v, floor):
        out = original(v, floor)
        recorded.append((v, out, floor))
        return out

    monkeypatch.setattr(opt, "_with_min_magnitude", spy)
    cfg = SwarmConfig(seed=3, epsilon=1e-12, n_max=4)
    # the paper's box, whose floor is 3e9 Hz and 5e5 bit/s, and the box ten times as wide
    for s, floors in ((setting[0], (3e9, 5e5)), (_wide_box(10), (0.6 * 59e9, 5e5 / 9e5 * 9.9e6))):
        recorded.clear()
        opt.disc_pso(s, dynamic_utility_objective(s), box_maximum_utility(s) * 1.1, cfg)  # full run
        assert len(recorded) == cfg.n_max  # every round
        for v, out, floor in recorded:
            # both coordinates of every particle: the f_server and b planes of a batch of one trial
            assert v.shape == out.shape == (2, 1, cfg.p_n)
            for plane, value in zip(np.broadcast_to(floor, v.shape), floors):
                assert (plane == value).all()
            assert ((v == 0.0) == (out == 0.0)).all()
            assert ((out == 0.0) | (np.abs(out) >= floor)).all()


def _spy_uniforms(monkeypatch):
    """Record the shape every ``_draws`` call of uniforms draws, trial axis first."""
    import edgeprice.optimizers as opt

    shapes = []
    original = opt._draws

    def spy(rngs, shape, kind="random", high=0):
        out = original(rngs, shape, kind, high)
        if kind == "random":
            shapes.append(out.shape)
        return out

    monkeypatch.setattr(opt, "_draws", spy)
    return shapes


@pytest.mark.parametrize("search", [disc_pso, baseline_pso], ids=_IDS.get)
def test_full_swarm_search_draws_in_doubling_blocks(setting, search, monkeypatch):
    # a 50-round search: the initial sampling, then blocks of 1, 2, 4, 8, 16 and the 19 rounds left
    shapes = _spy_uniforms(monkeypatch)
    s, objective, u_max = setting
    cfg = SwarmConfig(seed=5, epsilon=1e-12)
    run = search(s, objective, u_max * 1.1, cfg)
    assert run.iterations_used == cfg.n_max == 50
    assert shapes == [(1, 30, 2)] + [(1, n, 30, 2, 2) for n in (1, 2, 4, 8, 16, 19)]


@pytest.mark.parametrize("search", [disc_pso, baseline_pso], ids=_IDS.get)
def test_swarm_round_zero_starts_its_own_particles(setting, search):
    # the loop passes state (): the first proposal starts the particles at the personal bests, at rest
    s, objective, _ = setting
    cfg = SwarmConfig()
    box = optimizers._search_box(s, cfg.p_n)
    pop = box.lo + box.width * np.random.default_rng(0).random((2, 1, cfg.p_n))
    values = objective(Allocation(pop[0], pop[1]))
    p_gb = np.repeat(pop[:, :, values.argmax(axis=1)], cfg.p_n, axis=2)
    before = pop.copy()
    candidates, state = search.propose(cfg, 0, [np.random.default_rng(1)], box, pop, values, p_gb, ())
    assert len(state) == 3 and not any(np.shares_memory(a, pop) for a in (candidates, *state))
    assert np.array_equal(pop, before)
    at_rest = (pop.copy(), np.zeros(pop.shape), ())
    same, _ = search.propose(cfg, 0, [np.random.default_rng(1)], box, pop, values, p_gb, at_rest)
    assert np.array_equal(candidates, same)


def test_large_batch_draws_one_round_per_block(setting, monkeypatch):
    # one round of 2000 trials is more than the block cap, so no block holds a second round
    import edgeprice.optimizers as opt

    shapes = _spy_uniforms(monkeypatch)
    s, objective, u_max = setting
    cfg = SwarmConfig(seed=5, epsilon=1e-12, n_max=4)
    replicate(disc_pso, s, objective, u_max * 1.1, cfg, n_trials=2000)
    assert shapes[1:] == [(2000, 1, 30, 2, 2)] * cfg.n_max
    # 50 trials: blocks of 1, 2, 4, 8 rounds, then as many as the cap holds
    shapes.clear()
    cfg = dataclasses.replace(cfg, n_max=50)
    replicate(baseline_pso, s, objective, u_max * 1.1, cfg, n_trials=50)
    cap = opt._BLOCK_DOUBLES // (50 * 30 * 4)
    assert [shape[1] for shape in shapes[1:]] == [1, 2, 4, 8] + [cap] * 3 + [50 - 15 - 3 * cap]


def test_search_box_is_made_once_per_scenario_and_read_only(setting, monkeypatch):
    import edgeprice.optimizers as opt

    s, objective, u_max = setting
    disc_pso(s, objective, u_max, SwarmConfig(seed=1))
    box = opt._search_box(s, 30)
    assert box.lo.shape == box.floor.shape == (2, 1, 30)
    assert not any(plane.flags.writeable for plane in box)
    baseline_de(s, objective, u_max, SwarmConfig(seed=1))
    assert opt._search_box(s, 30) is box
    # the GA reads the same box: its p_n - 1 children take its last p_n - 1 columns
    baseline_ga(s, objective, u_max, SwarmConfig(seed=1, n_max=2))
    assert opt._search_box(s, 30) is box
    # another candidate count is another box, kept beside the first
    assert opt._search_box(s, 29).lo.shape == (2, 1, 29) and opt._search_box(s, 30) is box
    # a replaced scenario is another instance: its own box, even with the same ranges
    same = dataclasses.replace(s)
    assert opt._search_box(same, 30) is not box
    assert all((a == b).all() for a, b in zip(opt._search_box(same, 30), box))
    wide = dataclasses.replace(s, f_range=(1e9, 60e9))
    assert opt._search_box(wide, 30).hi[0].tolist() == [[60e9] * 30]
    # the floor is the _FLOOR_SHARE of when the box is made
    monkeypatch.setattr(opt, "_FLOOR_SHARE", np.zeros((2, 1, 1)))
    assert (opt._search_box(dataclasses.replace(s), 30).floor == 0.0).all()


def test_trial_seeds_deterministic():
    assert trial_seeds(42, 10) == trial_seeds(42, 10)
    assert trial_seeds(42, 10) != trial_seeds(43, 10)
    assert len(set(trial_seeds(0, 50))) == 50


def test_replicate_single_trial_statistics(setting):
    s, objective, u_max = setting
    stats = replicate(disc_pso, s, objective, u_max, SwarmConfig(seed=21), n_trials=1)
    assert stats.std_value == 0.0
    assert len(stats.value_list) == 1
    assert stats.mean_value == stats.value_list[0]


def test_replicate_aggregates_match_recomputation(setting):
    s, objective, u_max = setting
    stats = replicate(baseline_pso, s, objective, u_max, SwarmConfig(seed=23), n_trials=12)
    values = np.array(stats.value_list)
    iterations = np.array(stats.iteration_list)
    assert stats.mean_value == pytest.approx(values.mean(), rel=1e-13)
    assert stats.std_value == pytest.approx(values.std(), rel=1e-12, abs=1e-15)
    assert stats.mean_iterations == pytest.approx(iterations.mean(), rel=1e-13)
    assert len(stats.position_list) == len(stats.seed_list) == 12


@pytest.mark.parametrize("values, mean, std", [
    ((-1e200, 1e200), 0.0, 1e200),  # the squares overflow
    ((1e308, 1.7e308), 1.35e308, 3.5e307),  # the sum overflows
])
def test_aggregates_of_finite_values_are_finite(values, mean, std):
    runs = [RunResult(v, Allocation(1e9, 1e6), 1, True, 0) for v in values]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stats = optimizers.stats_from_runs(runs)
    assert stats.mean_value == mean and stats.std_value == pytest.approx(std, rel=1e-15)


def test_replicate_reports_trial_index_on_abort(setting):
    s, _, u_max = setting

    def broken(alloc):
        return np.full(np.shape(alloc.f_server), np.inf)

    with pytest.raises(OptimizerError, match="trial 0"):
        replicate(disc_pso, s, broken, u_max, SwarmConfig(seed=1), n_trials=3)


def test_replicate_rejects_zero_trials(setting):
    s, objective, u_max = setting
    with pytest.raises(ValueError, match="n_trials"):
        replicate(disc_pso, s, objective, u_max, SwarmConfig(), n_trials=0)


def test_replicate_trials_reproducible_individually(setting):
    # any recorded trial can be replayed from its recorded seed
    s, objective, u_max = setting
    cfg = SwarmConfig(seed=29)
    stats = replicate(disc_pso, s, objective, u_max, cfg, n_trials=5)
    for i, seed in enumerate(stats.seed_list):
        rerun = disc_pso(s, objective, u_max, dataclasses.replace(cfg, seed=seed))
        assert rerun.best_value == stats.value_list[i]
        assert rerun.iterations_used == stats.iteration_list[i]
        assert rerun.best_position == stats.position_list[i]


def test_enhancements_reduce_iterations(setting):
    # paired seeds: the enhanced swarm never needs more rounds on average
    s, objective, u_max = setting
    cfg = SwarmConfig(seed=37)
    disc = replicate(disc_pso, s, objective, u_max, cfg, n_trials=30)
    plain = replicate(baseline_pso, s, objective, u_max, cfg, n_trials=30)
    assert disc.mean_iterations < plain.mean_iterations
    assert all(disc.converged_list)


def _wide_box(scale):
    """The default scenario with its f_server and b maxima ``scale`` times the paper's."""
    return default_scenario(f_range=(1e9, scale * 6e9), b_range=(1e5, scale * 1e6))


@pytest.mark.parametrize("scale", [10, 100])
def test_enhancements_reduce_iterations_on_wider_boxes(scale):
    # the velocity floor is a share of the box width, so disc_pso keeps its lead off the paper's box
    s = _wide_box(scale)
    objective, u_max, cfg = dynamic_utility_objective(s), box_maximum_utility(s), SwarmConfig(epsilon=1e-6)
    disc = replicate(disc_pso, s, objective, u_max, cfg, n_trials=50)
    plain = replicate(baseline_pso, s, objective, u_max, cfg, n_trials=50)
    assert all(disc.converged_list)
    assert disc.mean_iterations < plain.mean_iterations



def test_negative_utility_is_not_falsely_converged():
    # u_max < 0 here; a ratio (u_max - best)/best flips sign and stopped every
    # searcher after the initial sampling, about 1% short of the corner
    s = default_scenario(f_local=1e9, b_range=(1e4, 2e4))
    objective = dynamic_utility_objective(s)
    u_max = box_maximum_utility(s)
    assert u_max < 0.0
    for algorithm in ALGORITHMS:
        cfg = SwarmConfig(seed=0)
        result = algorithm(s, objective, u_max, cfg)
        assert result.iterations_used > 0
        assert result.converged
        assert u_max - result.best_value < cfg.epsilon * abs(result.best_value)


@settings(max_examples=40, deadline=None)
@given(
    algorithm=st.sampled_from(ALGORITHMS),
    seed=st.integers(0, 2**32 - 1),
    q_kb=st.floats(100.0, 500.0),
    f_local_ghz=st.floats(0.1, 2.0),
    b_max_mbps=st.floats(0.01, 1.0),
    b_min_share=st.floats(0.05, 0.9),
)
def test_converged_implies_gap_met(algorithm, seed, q_kb, f_local_ghz, b_max_mbps, b_min_share):
    # the ranges include scenarios whose whole box has negative utility
    b_max = b_max_mbps * 1e6
    s = default_scenario(q=q_kb * 8192.0, f_local=f_local_ghz * 1e9,
                         b_range=(b_min_share * b_max, b_max))
    assert validate(s) == []
    u_max = box_maximum_utility(s)
    cfg = SwarmConfig(seed=seed, n_max=10)
    result = algorithm(s, dynamic_utility_objective(s), u_max, cfg)
    if result.converged:
        assert u_max - result.best_value < cfg.epsilon * abs(result.best_value)


def test_every_trial_is_finite_in_the_box_and_honest_on_random_workloads():
    # 250 random (T, 1) workloads per SNR mode on the paper's box and on boxes 10 and 100 times
    # wider, at a loose and a tight gap, one batch per searcher: no trial may give a non-finite
    # or out-of-box best, beat the corner, claim a gap it did not meet, or stop early unconverged
    rng = np.random.default_rng(9)
    for mode in ("raw", "db-to-linear"):
        drawn = _scenario_from_uniforms(mode, rng.random((12, 250, 1)))
        for scale in (1, 10, 100):
            s = dataclasses.replace(drawn, f_range=(1e9, scale * 6e9), b_range=(1e5, scale * 1e6))
            objective = dynamic_utility_objective(s)
            u_max = np.ravel(objective(corner_allocation(s)))
            for epsilon in (1e-3, 1e-9):
                cfg = SwarmConfig(epsilon=epsilon)
                for name, searcher in optimizers.ALGORITHMS.items():
                    where = f"{name}, {mode} SNR, box x{scale}, epsilon {epsilon}"
                    stats = replicate(searcher, s, objective, u_max, cfg, n_trials=250)
                    best = np.array(stats.value_list)
                    f = np.array([p.f_server for p in stats.position_list])
                    b = np.array([p.b for p in stats.position_list])
                    converged = np.array(stats.converged_list)
                    assert np.all(np.isfinite(best)), where
                    assert np.all((s.f_range[0] <= f) & (f <= s.f_range[1])), where
                    assert np.all((s.b_range[0] <= b) & (b <= s.b_range[1])), where
                    assert np.all(best <= u_max), where
                    assert np.all((u_max - best < epsilon * abs(best))[converged]), where
                    assert np.all(np.array(stats.iteration_list)[~converged] == cfg.n_max), where


@pytest.mark.filterwarnings("error")  # the search overflows silently, as float arithmetic does
def test_every_search_on_wide_draws_refuses_or_returns_the_objective_in_the_box():
    # 250 draws over what validate() accepts, each with its own box, so one single run per searcher:
    # each run raises ValueError or OptimizerError, or returns a finite best no higher than the corner,
    # inside the box and the objective's value at the best position, and claims no gap it did not meet
    rng = np.random.default_rng(9)
    returned = 0
    de_alone_refuses = set()
    for i in range(250):
        s = scenario_from_config({**DEFAULT_CONFIG, **wide_settings(rng)})
        if validate(s):
            continue
        objective = dynamic_utility_objective(s)
        cfg = SwarmConfig(seed=i)
        refused = []
        for searcher in ALGORITHMS:
            try:
                u_max = box_maximum_utility(s)
                result = searcher(s, objective, u_max, cfg)
            except (ValueError, OptimizerError) as exc:
                refused.append((searcher.name, type(exc)))
                continue
            returned += 1
            f, b = result.best_position.f_server, result.best_position.b
            where = (searcher.name, i, s)
            assert math.isfinite(result.best_value) and result.best_value <= u_max, where
            assert s.f_range[0] <= f <= s.f_range[1] and s.b_range[0] <= b <= s.b_range[1], where
            assert result.best_value == objective(Allocation(np.array([[f]]), np.array([[b]])))[0, 0], where
            assert not result.converged or u_max - result.best_value <= cfg.epsilon * abs(result.best_value), where
        if refused == [("de", OptimizerError)]:
            de_alone_refuses.add(i)
    assert returned > 0  # most draws overflow the model and are refused; not all
    # where the objective is -inf on part of the box, DE's first generation can land there and DE refuses
    # while the other three return (README Notes); a change to that, or to the draws, updates this set
    assert de_alone_refuses == {17, 19, 30, 40, 81, 152, 216, 220}


@pytest.mark.parametrize(
    "fields",
    [
        {"p_n": 3},
        {"p_n": 0},
        {"n_max": -1},
        {"epsilon": 0.0},
        {"epsilon": -1e-3},
        {"epsilon": math.nan},
        {"epsilon": math.inf},
        {"p_n": "30"},
        {"n_max": -(10**400)},
        {"p_n": 30.5},
        {"n_max": 2.0},
        {"seed": 1.5},
        {"seed": -1},
        {"seed": True},
        {"n_max": False},
        {"epsilon": True},
        {"p_n": np.True_},
    ],
)
def test_swarm_config_rejects_bad_fields(fields):
    with pytest.raises(ValueError, match=next(iter(fields))):
        SwarmConfig(**fields)


def test_swarm_config_accepts_edge_values():
    assert SwarmConfig(p_n=4, n_max=0, epsilon=1e9).n_max == 0
    assert SwarmConfig(p_n=np.int64(30), seed=np.uint32(7), epsilon=1).p_n == 30


def test_swarm_config_checks_do_not_depend_on_magnitude():
    # integer fields are finite by type, however large; a float field must fit a float
    assert SwarmConfig(p_n=10**300).p_n == 10**300
    assert SwarmConfig(p_n=10**400, n_max=10**400, seed=10**400).n_max == 10**400
    assert SwarmConfig(epsilon=10**300).epsilon == 10**300
    for fields in ({"epsilon": 10**400}, {"epsilon": -(10**400)}):
        with pytest.raises(ValueError, match=rf"{next(iter(fields))}=-?10+: must be a finite float"):
            SwarmConfig(**fields)


# ---------------------------------------------------------------- pinned trajectories
# The objectives are written here from Scenario fields, apart from
# edgeprice.pricing, so that a change to the model code cannot move the
# pins. The swarm pins are the RunResults of the per-particle swarm loop
# that the array swarm replaced; the GA and DE pins are those of the first
# generation-at-once versions, whose random streams differ from the
# per-individual loops before them.

_S = default_scenario()
_SNR_UP, _SNR_DOWN = _S.channel.effective_snrs()
_Q_CHI = _S.q * (_S.w1 * _S.k * _S.c * _S.f_local**2 + _S.w2 * _S.c / _S.f_local)
_Q_W2C = _S.q * _S.w2 * _S.c
_Q_UPS = _S.q * (
    (_S.w1 * _S.p_u + _S.w2) / math.log2(1.0 + _SNR_UP)
    + _S.alpha * (_S.w1 * _S.p_d + _S.w2) / math.log2(1.0 + _SNR_DOWN)
)
_TARGET = (3.5e9, 0.55e6)
_A, _B_COEF = _Q_W2C / _TARGET[0] ** 2, _Q_UPS / _TARGET[1] ** 2


def _dynamic(alloc):
    return _Q_CHI - 2.0 * _Q_W2C / alloc.f_server - 2.0 * _Q_UPS / alloc.b


def _linear(alloc):
    f, b = alloc.f_server, alloc.b
    return _Q_CHI - _Q_W2C / f - _Q_UPS / b - _A * f - _B_COEF * b


_PIN_SETTINGS = {
    "dynamic": (_dynamic, _dynamic(Allocation(_S.f_range[1], _S.b_range[1])), 1e-3),
    "linear": (_linear, _linear(Allocation(*_TARGET)), 1e-6),
}

# (algorithm, setting, seed): (best_value, f_server, b, iterations_used, converged)
_PINS = {
    ("disc-pso", "dynamic", 0): (50.934518684826266, 5986049678.946055, 982751.8048986071, 0, True),
    ("disc-pso", "dynamic", 1): (50.9625265840149, 6000000000.0, 1000000.0, 1, True),
    ("disc-pso", "dynamic", 2): (50.9625265840149, 6000000000.0, 1000000.0, 1, True),
    ("disc-pso", "dynamic", 3): (50.9625265840149, 6000000000.0, 1000000.0, 1, True),
    ("disc-pso", "dynamic", 4): (50.9625265840149, 6000000000.0, 1000000.0, 1, True),
    ("pso", "dynamic", 0): (50.934518684826266, 5986049678.946055, 982751.8048986071, 0, True),
    ("pso", "dynamic", 1): (50.9625265840149, 6000000000.0, 1000000.0, 1, True),
    ("pso", "dynamic", 2): (50.9625265840149, 6000000000.0, 1000000.0, 1, True),
    ("pso", "dynamic", 3): (50.9625265840149, 6000000000.0, 1000000.0, 1, True),
    ("pso", "dynamic", 4): (50.9625265840149, 6000000000.0, 1000000.0, 1, True),
    ("disc-pso", "linear", 0): (48.52842056108301, 4000000000.0, 600000.0, 50, False),
    ("disc-pso", "linear", 1): (48.52842056108301, 4000000000.0, 600000.0, 50, False),
    ("disc-pso", "linear", 2): (48.53949306941439, 3582890970.624984, 634099.1659803155, 50, False),
    ("disc-pso", "linear", 3): (48.52842056108301, 4000000000.0, 600000.0, 50, False),
    ("disc-pso", "linear", 4): (48.5651979446911, 3489337993.9268723, 544257.8505605033, 50, False),
    ("pso", "linear", 0): (48.5652299542387, 3530646067.6163607, 550442.321642032, 50, False),
    ("pso", "linear", 1): (48.56533155650954, 3491630990.3703346, 551380.3364558653, 35, True),
    ("pso", "linear", 2): (48.56528156413727, 3522761578.968467, 549357.9133097914, 50, False),
    ("pso", "linear", 3): (48.56524514718984, 3526912774.80089, 548260.7621505272, 50, False),
    ("pso", "linear", 4): (48.565312354150635, 3515889917.5212355, 551004.7192208065, 11, True),
    ("ga", "dynamic", 0): (50.934518684826266, 5986049678.946055, 982751.8048986071, 0, True),
    ("ga", "dynamic", 1): (50.93214654346689, 6000000000.0, 978094.6973303709, 16, True),
    ("ga", "dynamic", 2): (50.93978043329137, 5998874831.244545, 983749.383760673, 24, True),
    ("ga", "dynamic", 3): (50.9197522983315, 6000000000.0, 969431.1063305762, 18, True),
    ("ga", "dynamic", 4): (50.912019483205285, 6000000000.0, 964103.1813779376, 14, True),
    ("ga", "linear", 0): (48.565326754452215, 3494995197.3282723, 552119.3381386366, 7, True),
    ("ga", "linear", 1): (48.56530180335076, 3493768396.2794967, 553197.89578668, 7, True),
    ("ga", "linear", 2): (48.565308964158575, 3496857563.93331, 553059.4590008379, 16, True),
    ("ga", "linear", 3): (48.565304803758075, 3518567044.1368337, 550165.0522785813, 5, True),
    ("ga", "linear", 4): (48.565318231304815, 3514308482.2133436, 551017.6604394676, 7, True),
    ("de", "dynamic", 0): (50.934518684826266, 5986049678.946055, 982751.8048986071, 0, True),
    ("de", "dynamic", 1): (50.92509453681394, 5885582235.874523, 998236.896429887, 2, True),
    ("de", "dynamic", 2): (50.9625265840149, 6000000000.0, 1000000.0, 1, True),
    ("de", "dynamic", 3): (50.9625265840149, 6000000000.0, 1000000.0, 4, True),
    ("de", "dynamic", 4): (50.9625265840149, 6000000000.0, 1000000.0, 2, True),
    ("de", "linear", 0): (48.56534733813873, 3500573658.5365705, 549563.2276347298, 13, True),
    ("de", "linear", 1): (48.56533844855203, 3500488001.2498746, 551543.0533768344, 12, True),
    ("de", "linear", 2): (48.56532042947313, 3492158374.137636, 552217.010544659, 13, True),
    ("de", "linear", 3): (48.565319493792536, 3498337874.4396477, 552641.8156265218, 13, True),
    ("de", "linear", 4): (48.565340161312534, 3505530059.0662656, 551009.4278311981, 13, True),
}


@pytest.mark.parametrize("key", sorted(_PINS))
def test_swarm_trajectories_pinned(key):
    algo, setting, seed = key
    objective, u_max, epsilon = _PIN_SETTINGS[setting]
    search = {"disc-pso": disc_pso, "pso": baseline_pso, "ga": baseline_ga, "de": baseline_de}[algo]
    result = search(_S, objective, u_max, SwarmConfig(seed=seed, epsilon=epsilon))
    value, f_server, b, iterations, converged = _PINS[key]
    assert result == RunResult(value, Allocation(f_server, b), iterations, converged, seed)


# ---------------------------------------------------------------- lockstep batches
# replicate runs its trials as one batch; each trial must still equal the
# single run replayed from its recorded seed, whichever round it finishes in.

_SEARCHERS = {"disc-pso": disc_pso, "pso": baseline_pso, "ga": baseline_ga, "de": baseline_de}
_REPLAY_CFG = SwarmConfig(seed=41, n_max=20)


def _replayed(search, s, objective, u_max, cfg, seed):
    run = search(s, objective, u_max, dataclasses.replace(cfg, seed=seed))
    return run.best_value, run.best_position, run.iterations_used, run.converged


def _recorded(stats, i):
    return stats.value_list[i], stats.position_list[i], stats.iteration_list[i], stats.converged_list[i]


@pytest.mark.parametrize("algo", sorted(_SEARCHERS))
@pytest.mark.parametrize("setting, epsilon", [("dynamic", 1e-3), ("dynamic", 1e-9), ("linear", 1e-6)])
def test_lockstep_batch_equals_replayed_single_runs(algo, setting, epsilon):
    objective, u_max, _ = _PIN_SETTINGS[setting]
    cfg = dataclasses.replace(_REPLAY_CFG, epsilon=epsilon)
    stats = replicate(_SEARCHERS[algo], _S, objective, u_max, cfg, n_trials=12)
    for i, seed in enumerate(stats.seed_list):
        assert _recorded(stats, i) == _replayed(_SEARCHERS[algo], _S, objective, u_max, cfg, seed)


@pytest.mark.parametrize("algo, setting", [("ga", "dynamic"), ("pso", "linear")])
def test_replay_settings_finish_at_different_rounds(algo, setting):
    # the replay test above covers trials leaving the batch early and at n_max
    objective, u_max, epsilon = _PIN_SETTINGS[setting]
    cfg = dataclasses.replace(_REPLAY_CFG, epsilon=epsilon)
    stats = replicate(_SEARCHERS[algo], _S, objective, u_max, cfg, n_trials=12)
    early = {n for n, c in zip(stats.iteration_list, stats.converged_list) if c}
    assert len(early) >= 3 and max(early) < cfg.n_max
    assert any(n == cfg.n_max and not c for n, c in zip(stats.iteration_list, stats.converged_list))


@pytest.mark.parametrize("algo", sorted(_SEARCHERS))
def test_shared_objective_is_called_once_per_round(algo, setting):
    s, objective, u_max = setting
    spy = CountingObjective(objective)
    cfg = SwarmConfig(seed=43, epsilon=1e-6, n_max=25)
    stats = replicate(_SEARCHERS[algo], s, spy, u_max, cfg, n_trials=20)
    assert spy.calls <= max(stats.iteration_list) + 1


# (T, 1) q and f_local columns, all different: each trial searches its own workload
_WORKLOADS = dataclasses.replace(
    _S, q=np.linspace(100.0, 500.0, 6)[:, None] * 8192.0, f_local=np.linspace(0.2, 1.0, 6)[:, None] * 1e9
)


@pytest.mark.parametrize("algo", sorted(_SEARCHERS))
def test_workload_columns_equal_replayed_single_runs(algo):
    spy = CountingObjective(dynamic_utility_objective(_WORKLOADS))
    u_max = box_maximum_utility(_WORKLOADS).ravel()
    cfg = dataclasses.replace(_REPLAY_CFG, epsilon=3e-2)  # loose enough that trials finish at different rounds
    stats = replicate(_SEARCHERS[algo], _WORKLOADS, spy, u_max, cfg, n_trials=6)
    assert len(set(stats.iteration_list)) > 1
    assert spy.calls <= max(stats.iteration_list) + 1  # the initial sampling, then one call per round
    for i, seed in enumerate(stats.seed_list):
        s = dataclasses.replace(_S, q=float(_WORKLOADS.q[i, 0]), f_local=float(_WORKLOADS.f_local[i, 0]))
        objective = dynamic_utility_objective(s)
        assert box_maximum_utility(s) == u_max[i]
        assert _recorded(stats, i) == _replayed(_SEARCHERS[algo], s, objective, u_max[i], cfg, seed)


#: Three trials' workloads as (3, 1) columns: a batch of 3 reads them, one of any other size does not.
_COLUMNS3 = default_scenario(q=np.array([[4e6], [4.1e6], [4.2e6]]))
_SHAPE_CFG = SwarmConfig(p_n=4, n_max=2)


def _zeros(alloc):
    return np.zeros(np.shape(alloc.f_server))


@pytest.mark.parametrize(
    "n_trials, s, u_max, misfit",
    [
        (2, _COLUMNS3, 1.0, r"2 trials, but q has shape \(3, 1\)$"),
        (4, _COLUMNS3, 1.0, r"4 trials, but q has shape \(3, 1\)$"),
        # a row, not a column: its elements would pair with the candidates, not the trials
        (3, default_scenario(q=np.array([4e6, 4.1e6, 4.2e6])), 1.0, r"3 trials, but q has shape \(3,\)$"),
        (2, default_scenario(), np.ones(3), r"2 trials, but u_max has shape \(3,\)$"),
        # a single run is a batch of one, and a (1, 1) field is one value
        (None, default_scenario(q=np.array([[4e6], [4.1e6]]), mu=np.array([[0.8]])), 1.0,
         r"1 trials, but q has shape \(2, 1\)$"),
    ],
    ids=["columns-for-fewer-trials", "columns-for-more-trials", "row", "u_max", "single-run"],
)
def test_a_batch_refuses_by_name_a_shape_other_than_numbers_or_its_columns(n_trials, s, u_max, misfit):
    # this objective scores rows of any shape, so only the search's own check can refuse the batch
    with pytest.raises(ValueError, match=r"^a batch reads numbers, \(T, 1\) scenario columns and a float "
                                         r"or \(T,\) u_max for its T = " + misfit):
        if n_trials is None:
            disc_pso(s, _zeros, u_max, _SHAPE_CFG)
        else:
            replicate(disc_pso, s, _zeros, u_max, _SHAPE_CFG, n_trials)


@pytest.mark.parametrize("q", [np.array(4e6), np.float64(4e6), np.array([4e6]), np.array([[4e6]])])
@pytest.mark.parametrize("u_max", [np.array(50.0), np.array([50.0]), np.array([[50.0]]), np.full(3, 50.0)])
def test_a_batch_reads_one_value_of_any_shape_as_its_number(q, u_max):
    # a 0-d, (1,) or (1, 1) value reads as the number, and a (T,) u_max as T equal ones
    cfg, one = SwarmConfig(n_max=5, seed=2), default_scenario(q=4e6)
    want = replicate(disc_pso, one, dynamic_utility_objective(one), 50.0, cfg, 3)
    s = default_scenario(q=q)
    assert replicate(disc_pso, s, dynamic_utility_objective(s), u_max, cfg, 3) == want


def _read_only(objective):
    def wrapped(alloc):
        values = np.array(objective(alloc))
        values.flags.writeable = False
        return values
    return wrapped


def _one_buffer(objective):
    """Writes every call's values into the same memory and returns a view of it."""
    buffer = np.empty(1024)

    def wrapped(alloc):
        values = objective(alloc)
        out = buffer[: values.size].reshape(values.shape)
        out[...] = values
        return out
    return wrapped


@pytest.mark.parametrize("algo", sorted(_SEARCHERS))
@pytest.mark.parametrize("wrap", [_read_only, _one_buffer])
def test_search_never_writes_the_objectives_arrays(algo, wrap, setting):
    # acceptance updates the search's own arrays in place, never the objective's
    s, objective, u_max = setting
    search = _SEARCHERS[algo]
    for seed in range(5):
        cfg = SwarmConfig(seed=seed, epsilon=1e-9, n_max=10)
        assert search(s, wrap(objective), u_max, cfg) == search(s, objective, u_max, cfg)
        plain = replicate(search, s, objective, u_max, cfg, n_trials=6)
        assert replicate(search, s, wrap(objective), u_max, cfg, n_trials=6) == plain


def _failing_at(objective, *failures):
    """An objective that returns NaN at each (round, trial, individual) of its (T, k) rows."""
    calls = 0

    def broken(alloc):
        nonlocal calls
        values = np.array(objective(alloc), dtype=float)
        for failing_round, trial, individual in failures:
            if calls == failing_round + 1:  # call 0 scores the initial sampling
                values[trial, individual] = np.nan
        calls += 1
        return values

    return broken


def test_batch_error_names_the_failing_trial(setting):
    s, objective, u_max = setting
    broken = _failing_at(objective, (3, 2, 7))
    message = r"^trial 2: non-finite objective value nan .* during round 3 \(individual 7\)$"
    with pytest.raises(OptimizerError, match=message):
        # unreachable reference: every trial runs n_max rounds
        replicate(baseline_ga, s, broken, u_max * 1.1, SwarmConfig(seed=5, n_max=10), n_trials=5)


def test_batch_error_reports_earliest_round_then_lowest_trial(setting):
    # trial 1 fails in round 4, trials 3 and 4 in round 2: trial 3 is reported
    s, objective, u_max = setting
    broken = _failing_at(objective, (4, 1, 0), (2, 4, 0), (2, 3, 0))
    with pytest.raises(OptimizerError, match=r"^trial 3: .* during round 2 "):
        replicate(disc_pso, s, broken, u_max * 1.1, SwarmConfig(seed=5, n_max=10), n_trials=6)


def test_replicate_rejects_an_unknown_searcher(setting):
    # a searcher made from one of the four, with the same rules, is not one of them either
    s, objective, u_max = setting
    for searcher in (lambda *args: None, dataclasses.replace(disc_pso, name="x")):
        with pytest.raises(ValueError, match="^replicate runs one of disc-pso, pso, ga, de; got "):
            replicate(searcher, s, objective, u_max, SwarmConfig(), n_trials=1)


# ---------------------------------------------------------------- seeded-result digest
# One SHA-256 over the repr of 822 seeded results, recorded before the
# search rounds and the pricing factors were made cheaper: a speed-up must
# leave every one of them unchanged, bit for bit.

_RESULTS_DIGEST = "ea91ba3823399a9046e68c107cd59958800ba927a436ab7f77a36a75a2a19552"


def _seeded_results():
    rng = np.random.default_rng(5)
    for s in [default_scenario()] + [random_scenario(rng) for _ in range(5)]:
        pc = derive_coefficients(s, 0.6 * s.f_range[1], 0.6 * s.b_range[1])
        linear = functools.partial(linear_user_utility_value, s, pc)
        objectives = [(dynamic_utility_objective(s), box_maximum_utility(s)),
                      (linear, linear(critical_point(s, pc)))]
        for search in ALGORITHMS:
            for objective, u_max in objectives:
                for seed in range(8):
                    for epsilon in (1e-3, 1e-6):
                        yield search(s, objective, u_max, SwarmConfig(seed=seed, epsilon=epsilon))
                cfg = SwarmConfig(seed=3, epsilon=1e-6, n_max=30)
                yield replicate(search, s, objective, u_max, cfg, n_trials=20)
    for seed in range(3):
        for randomize in (False, True):
            report = compare_optimizers(default_scenario(), SwarmConfig(seed=seed), 20, randomize=randomize)
            # recorded when a report also echoed the call's scenario and randomize arguments
            echo = f"scenario={default_scenario()!r}, n_trials=20, randomized={randomize!r}, "
            yield repr(report).replace("n_trials=20, ", echo, 1)


#: Each digest's failure message: what else a moved digest can mean.
_CANARIES = ("if tests/test_canaries.py fails too, a dependency moved (a numpy Generator stream, the C "
             "library's pow or log2, or a record's repr) and its canary names it; if not, the program did")


def test_seeded_results_digest_is_pinned():
    text = "\n".join(r if isinstance(r, str) else repr(r) for r in _seeded_results())
    assert hashlib.sha256(text.encode()).hexdigest() == _RESULTS_DIGEST, _CANARIES


# ---------------------------------------------------------------- block-boundary digest
# The digest above mostly holds runs that stop after about one round or at
# n_max = 50. This one holds swarm runs of every length around a power of
# two, as single runs that use every round and as batches whose trials
# leave at different rounds, recorded before the swarms drew their
# uniforms several rounds per generator call.

_BLOCKS_DIGEST = "6bd39cb15e526aa042ac9fbef950ad9f3a5b403208fa90fdea3649f60a652c16"


def _block_boundary_results():
    s = default_scenario()
    rng = np.random.default_rng(16)
    seeded = (float(rng.uniform(*s.f_range)), float(rng.uniform(*s.b_range)))
    for target in (_TARGET, seeded):
        pc = derive_coefficients(s, *target)
        linear = functools.partial(linear_user_utility_value, s, pc)
        u_max = linear(critical_point(s, pc))
        for search in (disc_pso, baseline_pso):
            for n_max in (1, 2, 3, 4, 7, 8, 15, 16, 31, 32, 50):
                for seed in range(4):
                    yield search(s, linear, u_max, SwarmConfig(seed=seed, n_max=n_max, epsilon=1e-12))
                    cfg = SwarmConfig(seed=seed, n_max=n_max, epsilon=1e-6)
                    yield replicate(search, s, linear, u_max, cfg, n_trials=5)


def test_swarm_block_boundaries_are_pinned():
    text = "\n".join(map(repr, _block_boundary_results()))
    assert hashlib.sha256(text.encode()).hexdigest() == _BLOCKS_DIGEST, _CANARIES


# ---------------------------------------------------------------- small-population digest
# The digests above run p_n = 30 only. This one holds every searcher at the
# minimum and at odd population sizes, as single runs and as 7-trial
# batches, at a loose and a tight stop test, recorded before a one-trial
# GA or DE generation was bred in place: both paths must keep every result.

_SMALL_POPULATION_DIGEST = "7652e16d4d6d3daf46ab461304ed11d0089f3f5a85e8134640a55966612211a4"


def _small_population_results():
    for search in ALGORITHMS:
        for p_n in (4, 5, 7):
            for setting, epsilon in (("dynamic", 1e-3), ("linear", 1e-9)):
                objective, u_max, _ = _PIN_SETTINGS[setting]
                cfg = SwarmConfig(p_n=p_n, n_max=25, epsilon=epsilon, seed=p_n)
                for seed in range(6):
                    yield search(_S, objective, u_max, dataclasses.replace(cfg, seed=seed))
                yield replicate(search, _S, objective, u_max, cfg, n_trials=7)


def test_small_population_results_are_pinned():
    text = "\n".join(map(repr, _small_population_results()))
    assert hashlib.sha256(text.encode()).hexdigest() == _SMALL_POPULATION_DIGEST, _CANARIES
