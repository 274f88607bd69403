import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from edgeprice.harness import box_maximum_utility
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
    run_trials,
    trial_seeds,
)
from edgeprice.pricing import dynamic_utility_objective
from edgeprice.scenario import default_scenario, validate

ALGORITHMS = (disc_pso, baseline_pso, baseline_ga, baseline_de)


@pytest.fixture
def setting():
    s = default_scenario()
    objective = dynamic_utility_objective(s)
    return s, objective, box_maximum_utility(s)


class CountingObjective:
    """Counts objective calls and the rows they score, records those rows, and keeps the best value seen."""

    def __init__(self, objective):
        self.objective = objective
        self.calls = 0
        self.rows = 0
        self.seen = []
        self.best_seen = -math.inf

    def __call__(self, alloc):
        self.calls += 1
        self.rows += np.size(alloc.f_server)
        self.seen.append((np.copy(alloc.f_server), np.copy(alloc.b)))
        values = self.objective(alloc)
        self.best_seen = max(self.best_seen, float(np.max(values)))
        return values


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_fixed_seed_determinism(setting, algorithm):
    s, objective, u_max = setting
    cfg = SwarmConfig(seed=7)
    assert algorithm(s, objective, u_max, cfg) == algorithm(s, objective, u_max, cfg)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_vacuous_gap_converges_at_iteration_zero(setting, algorithm):
    s, objective, u_max = setting
    cfg = SwarmConfig(seed=3, epsilon=1e9)
    spy = CountingObjective(objective)
    result = algorithm(s, spy, u_max, cfg)
    assert result.converged
    assert result.iterations_used == 0
    assert spy.rows == cfg.p_n  # only the initial sampling ran
    assert result.best_value == spy.best_seen


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_best_position_feasible(setting, algorithm):
    s, objective, u_max = setting
    for seed in range(8):
        result = algorithm(s, objective, u_max, SwarmConfig(seed=seed))
        assert s.f_range[0] <= result.best_position.f_server <= s.f_range[1]
        assert s.b_range[0] <= result.best_position.b <= s.b_range[1]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_best_value_is_max_of_evaluations(setting, algorithm):
    # the reported best never regresses below anything the run evaluated
    s, objective, u_max = setting
    spy = CountingObjective(objective)
    result = algorithm(s, spy, u_max, SwarmConfig(seed=11, epsilon=1e-9, n_max=12))
    assert result.best_value == spy.best_seen


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_evaluation_budget(setting, algorithm):
    s, objective, u_max = setting
    cfg = SwarmConfig(seed=5, epsilon=1e-12, n_max=9)  # force a full run
    spy = CountingObjective(objective)
    algorithm(s, spy, u_max, cfg)
    assert spy.rows <= cfg.p_n * (cfg.n_max + 1)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_evaluation_count_of_full_run(setting, algorithm):
    # one initial sampling of p_n, then p_n per round; GA keeps its elite unevaluated
    s, objective, u_max = setting
    cfg = SwarmConfig(seed=5, epsilon=1e-12, n_max=9)
    spy = CountingObjective(objective)
    result = algorithm(s, spy, u_max * 1.1, cfg)  # unreachable reference
    assert result.iterations_used == cfg.n_max
    per_round = cfg.p_n - 1 if algorithm is baseline_ga else cfg.p_n
    assert spy.rows == cfg.p_n + cfg.n_max * per_round


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_one_objective_call_per_population(setting, algorithm):
    # the initial sampling and each round are scored in one call each
    s, objective, u_max = setting
    spy = CountingObjective(objective)
    result = algorithm(s, spy, u_max * 1.1, SwarmConfig(seed=5, n_max=9))
    assert result.iterations_used == 9
    assert spy.calls == result.iterations_used + 1


@pytest.mark.parametrize("algorithm", ALGORITHMS)
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


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_scalar_objective_is_rejected_with_its_shape(setting, algorithm):
    # an objective that scores one row at a time cannot score a population
    s, _, u_max = setting
    with pytest.raises(OptimizerError, match=r"shape \(\) for 30 rows during initial sampling"):
        algorithm(s, lambda alloc: 1.0, u_max, SwarmConfig(seed=1))


def test_structural_equivalence_of_pso_variants(setting):
    # with the enhancements configured away the two searches coincide
    s, objective, u_max = setting
    cfg = SwarmConfig(seed=13, w_min=0.9, w_max=0.9, delta_f=0.0, delta_b=0.0, epsilon=1e-9)
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
    s, objective, u_max = setting
    cfg = SwarmConfig(seed=3, epsilon=1e-12, n_max=4)
    opt.disc_pso(s, objective, u_max * 1.1, cfg)  # unreachable reference, full run
    assert len(recorded) == cfg.n_max  # every round
    for v, out, floor in recorded:
        # both coordinates of every particle: the f_server and b planes of a batch of one trial
        assert v.shape == out.shape == (2, 1, cfg.p_n)
        assert floor.ravel().tolist() == [cfg.delta_f, cfg.delta_b]
        assert ((v == 0.0) == (out == 0.0)).all()
        assert ((out == 0.0) | (np.abs(out) >= floor)).all()


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


@pytest.mark.parametrize(
    "fields",
    [
        {"p_n": 3},
        {"p_n": 0},
        {"n_max": -1},
        {"epsilon": 0.0},
        {"epsilon": -1e-3},
        {"epsilon": math.nan},
        {"w_max": math.inf},
        {"delta_f": math.nan},
        {"c1_learn": -math.inf},
        {"p_n": 30.5},
        {"n_max": 2.0},
        {"seed": 1.5},
        {"seed": -1},
    ],
)
def test_swarm_config_rejects_bad_fields(fields):
    with pytest.raises(ValueError, match=next(iter(fields))):
        SwarmConfig(**fields)


def test_swarm_config_accepts_edge_values():
    assert SwarmConfig(p_n=4, n_max=0, epsilon=1e9).n_max == 0
    assert SwarmConfig(p_n=np.int64(30), seed=np.uint32(7), epsilon=1).p_n == 30

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
# run_trials runs its trials as one batch; each trial must still equal the
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


@pytest.mark.parametrize("algo", sorted(_SEARCHERS))
def test_interleaved_objectives_equal_replayed_single_runs(algo):
    # trials 0, 2 and 4 share one objective and trials 1 and 3 another; the trials do not
    # all share one, so each live trial's objective is called on its own rows every round
    dynamic, linear = (_PIN_SETTINGS[name][:2] for name in ("dynamic", "linear"))
    settings = [(_S, *(dynamic if t % 2 == 0 else linear)) for t in range(5)]
    cfg = dataclasses.replace(_REPLAY_CFG, epsilon=1e-6)
    stats = run_trials(_SEARCHERS[algo], settings, cfg)
    for i, ((s, objective, u_max), seed) in enumerate(zip(settings, stats.seed_list)):
        assert _recorded(stats, i) == _replayed(_SEARCHERS[algo], s, objective, u_max, cfg, seed)


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


@pytest.mark.parametrize("algo", sorted(_SEARCHERS))
def test_own_objectives_are_called_once_per_round_on_their_own_rows(algo, setting):
    # one spy per trial: every trial has its own objective object, so none is shared
    s, objective, u_max = setting
    cfg = SwarmConfig(seed=47, epsilon=1e-6, n_max=12)
    spies = [CountingObjective(objective) for _ in range(6)]
    stats = run_trials(_SEARCHERS[algo], [(s, spy, u_max) for spy in spies], cfg)
    for spy, seed, rounds in zip(spies, stats.seed_list, stats.iteration_list):
        assert spy.calls == rounds + 1  # the initial sampling, then one call per round
        # exactly this trial's rows: those its replayed single run scores, call for call
        alone = CountingObjective(objective)
        _SEARCHERS[algo](s, alone, u_max, dataclasses.replace(cfg, seed=seed))
        assert alone.calls == spy.calls
        for (f, b), (f_alone, b_alone) in zip(spy.seen, alone.seen):
            assert np.array_equal(f, f_alone) and np.array_equal(b, b_alone)


def _failing_at(round_failing, individual, objective):
    """An objective that returns NaN for one individual in the given round."""
    calls = 0

    def broken(alloc):
        nonlocal calls
        values = np.array(objective(alloc), dtype=float)
        if calls == round_failing + 1:  # call 0 scores the initial sampling
            values[individual] = np.nan
        calls += 1
        return values

    return broken


def test_batch_error_names_the_failing_trial(setting):
    s, objective, u_max = setting
    settings = [(s, objective, u_max * 1.1)] * 5  # unreachable reference: every trial runs n_max rounds
    settings[2] = (s, _failing_at(3, 7, objective), u_max * 1.1)
    message = r"^trial 2: non-finite objective value nan .* during round 3 \(individual 7\)$"
    with pytest.raises(OptimizerError, match=message):
        run_trials(baseline_ga, settings, SwarmConfig(seed=5, n_max=10))


def test_batch_error_reports_earliest_round_then_lowest_trial(setting):
    # trial 1 fails in round 4, trials 3 and 4 in round 2: trial 3 is reported
    s, objective, u_max = setting
    settings = [(s, objective, u_max * 1.1)] * 6
    for trial, failing_round in ((1, 4), (4, 2), (3, 2)):
        settings[trial] = (s, _failing_at(failing_round, 0, objective), u_max * 1.1)
    with pytest.raises(OptimizerError, match=r"^trial 3: .* during round 2 "):
        run_trials(disc_pso, settings, SwarmConfig(seed=5, n_max=10))


def test_run_trials_rejects_an_unknown_searcher(setting):
    s, objective, u_max = setting
    with pytest.raises(ValueError, match="run_trials runs one of disc_pso"):
        run_trials(lambda *args: None, [(s, objective, u_max)], SwarmConfig())
