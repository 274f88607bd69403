"""Built-in anchor suite: the falsifiable numeric contract of this package.

Every anchor pins an expected value (or a structural property) together
with its tolerance and a basis tag:

  reference   -- a published figure this model must reproduce,
  derived     -- a value computed independently by hand/high precision,
  closed-form -- an identity between two computation paths,
  statistical -- an ordering/convergence contract over seeded trials.

Each anchor is one array evaluation of the closed forms it checks. The
relative-gap anchor spells the stop test u_max - best <= epsilon*|best|
itself over the (searchers, trials) results, so a fault in the
searchers' own stop test cannot pass it.

``edgeprice validate`` prints one line per anchor and fails if any check
fails. Absolute server-utility levels are deliberately NOT anchored: they
depend on the unit chosen for the data-revenue term, so only deltas,
trends, and the two-path consistency of the server utility are checked.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .offload import Allocation
from .pricing import (
    coupling_ratio,
    curvature_report,
    derive_coefficients,
    diagnostics,
    dynamic_price,
    dynamic_user_utility_value,
    quadratic_gap,
    server_utility,
    user_utility,
    user_utility_gradient,
)
from .scenario import BITS_PER_KB as KB, BPS_PER_MBPS as MBPS, HZ_PER_GHZ as GHZ
from .scenario import ChannelSpec, Scenario, default_scenario, exp10, libm
from .harness import SweepSpec, compare_optimizers, corner_allocation, format_number, run_sweep, surface_grid
from .optimizers import SwarmConfig

# Reference anchors for the default configuration (raw SNR mode unless noted).
PRICE_AT_100KB = 0.315874        # at (6 GHz, 1 Mbps)
PRICE_AT_500KB = 1.57937
USER_UTILITY_AT_CORNER = 50.9625  # q=500 KB, f_local=0.1 GHz, (6 GHz, 1 Mbps)
USER_DELTAS = (5.4067, 1.8032, 0.9011, 0.5407, 0.3604)      # f_server 1..6 GHz steps
USER_DELTA_2_3_CLOSED_FORM = 1.80224                        # the printed 1.8032 is off
SERVER_DELTAS = (2.70336, 0.90112, 0.45056, 0.27034, 0.18022)
B_PART_RAW = -0.102451
B_PART_DB = -0.0676              # db-to-linear SNR interpretation
P_PART_RANGE = (3.227e-7, 2.347e-6)


class AnchorCheck(NamedTuple):
    name: str
    basis: str
    passed: bool
    detail: str


def _check(name: str, basis: str, passed: bool, detail: str) -> AnchorCheck:
    return AnchorCheck(name=name, basis=basis, passed=bool(passed), detail=detail)


def _near(name: str, basis: str, actual: float, expected: float, tol_text: str) -> AnchorCheck:
    """``actual`` within ``float(tol_text)`` of ``expected``; the tolerance is printed as given."""
    return _check(
        name, basis, abs(actual - expected) <= float(tol_text),
        f"expected {expected} +/- {tol_text}, got {format_number(actual)}",
    )


def _uniform(lo: float, hi: float, u: float) -> float:
    """``u`` in [0, 1) mapped to [lo, hi) the way ``rng.uniform(lo, hi)`` maps its draw."""
    return lo + (hi - lo) * u


def _scenario_from_uniforms(mode: str, u) -> Scenario:
    """The random scenario of 12 field uniforms ``u``: floats, or columns of arrays."""
    return Scenario(
        q=_uniform(100.0, 500.0, u[0]) * KB,
        c=_uniform(100.0, 5000.0, u[1]),
        f_local=_uniform(0.1, 1.0, u[2]) * GHZ,
        k=libm(exp10, _uniform(-28.0, -26.0, u[3])),
        p_u=_uniform(0.01, 1.0, u[4]),
        p_d=_uniform(0.1, 2.0, u[5]),
        alpha=_uniform(0.0, 1.0, u[6]),
        w1=_uniform(0.05, 0.95, u[7]),
        w2=_uniform(0.05, 0.95, u[8]),
        mu=_uniform(0.05, 0.95, u[9]),
        channel=ChannelSpec(_uniform(1.0, 40.0, u[10]), _uniform(1.0, 40.0, u[11]), mode),
        f_range=(1.0 * GHZ, 6.0 * GHZ),
        b_range=(0.1 * MBPS, 1.0 * MBPS),
    )


def random_scenario(rng: np.random.Generator) -> Scenario:
    """A random scenario satisfying every invariant, drawn over wide parameter ranges.

    One block of 13 uniforms: the SNR mode's, then one per field in order,
    each mapped as ``rng.uniform`` maps its draw. The scenarios and the
    generator state equal those of 13 scalar draws.
    """
    u_mode, *u = rng.random(13).tolist()
    return _scenario_from_uniforms("raw" if u_mode < 0.5 else "db-to-linear", u)


def _random_draw_groups(rng: np.random.Generator, n: int) -> list[tuple[Scenario, Allocation]]:
    """``n`` draws of ``random_scenario`` and a uniform purchase, from one (n, 15) block.

    The block is the same stream as ``n`` sequential draws, the purchase's
    two as ``rng.uniform(*f_range)`` then ``rng.uniform(*b_range)``. Its rows
    are split by SNR mode into one array ``Scenario`` and ``Allocation``
    per mode, raw first, each keeping the draw order of its rows.
    """
    block = rng.random((n, 15))
    raw = block[:, 0] < 0.5  # the mode rule of random_scenario
    groups = []
    for mode, rows in (("raw", block[raw]), ("db-to-linear", block[~raw])):
        u = rows.T
        s = _scenario_from_uniforms(mode, u[1:13])
        groups.append((s, Allocation(_uniform(*s.f_range, u[13]), _uniform(*s.b_range, u[14]))))
    return groups


def _price_anchors() -> list[AnchorCheck]:
    q_kbs = (100.0, 500.0)
    prices = dynamic_price(default_scenario(q=np.array(q_kbs) * KB), Allocation(6.0 * GHZ, 1.0 * MBPS))
    return [
        _near(f"dynamic price at q={q_kb:g} KB, (6 GHz, 1 Mbps)", "reference", actual, expected, "1e-5")
        for q_kb, expected, actual in zip(q_kbs, (PRICE_AT_100KB, PRICE_AT_500KB), prices.tolist())
    ]


def _f_server_sweep() -> np.ndarray:
    """The (2, 5) steps of (u_user, u_server) over f_server = 1..6 GHz at b = 0.1 Mbps."""
    rows = run_sweep(
        SweepSpec(
            parameter="f_server",
            grid=tuple(f * GHZ for f in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)),
            scenario=default_scenario(),
            allocation=Allocation(6.0 * GHZ, 0.1 * MBPS),
        )
    )
    return np.diff([[row.u_user for row in rows], [row.u_server for row in rows]])


def _sweep_delta_anchors(deltas: np.ndarray) -> list[AnchorCheck]:
    user_deltas, server_deltas = deltas

    checks = []
    tolerances = (1e-3, 1e-2, 1e-3, 1e-3, 1e-3)  # looser on the known-off 2->3 entry
    user_ok = np.all(abs(user_deltas - USER_DELTAS) <= tolerances)
    checks.append(
        _check(
            "user-utility deltas on the 1..6 GHz sweep",
            "reference",
            user_ok,
            f"expected {USER_DELTAS}, got {tuple(round(d, 5) for d in user_deltas.tolist())}",
        )
    )
    checks.append(
        _near("user-utility 2->3 GHz delta, closed form", "derived",
              user_deltas[1], USER_DELTA_2_3_CLOSED_FORM, "1e-4")
    )
    server_ok = np.all(abs(server_deltas - SERVER_DELTAS) <= 1e-4)
    checks.append(
        _check(
            "server-utility deltas on the 1..6 GHz sweep",
            "reference",
            server_ok,
            f"expected {SERVER_DELTAS}, got {tuple(round(d, 6) for d in server_deltas.tolist())}",
        )
    )
    return checks


def _utility_anchor() -> AnchorCheck:
    s = default_scenario()
    actual = dynamic_user_utility_value(s, Allocation(6.0 * GHZ, 1.0 * MBPS))
    return _near("user utility at the corner, q=500 KB", "derived", actual, USER_UTILITY_AT_CORNER, "1e-3")


def _diagnostic_anchors() -> list[AnchorCheck]:
    corner = Allocation(6.0 * GHZ, 1.0 * MBPS)
    raw = diagnostics(default_scenario(), corner)
    db = diagnostics(
        default_scenario(channel=ChannelSpec(20.0, 30.0, "db-to-linear")), corner
    )
    checks = [
        _near("bandwidth-related server factor, raw SNR", "derived", raw.b_part, B_PART_RAW, "1e-5"),
        _near("bandwidth-related server factor, db-to-linear SNR", "reference", db.b_part, B_PART_DB, "5e-4"),
        _check(
            "per-bit price slope inside the documented interval",
            "reference",
            P_PART_RANGE[0] <= raw.p_part <= P_PART_RANGE[1],
            f"expected within {P_PART_RANGE}, got {format_number(raw.p_part)}",
        ),
    ]
    return checks


def _coupling_anchor(deltas: np.ndarray) -> AnchorCheck:
    ratio = coupling_ratio(default_scenario())
    measured = deltas[0] / deltas[1]
    ok = ratio == 2.0 and np.all(abs(measured - ratio) / ratio <= 1e-9)
    return _check(
        "user/server utility-change coupling on f_server sweeps",
        "closed-form",
        ok,
        f"expected ratio 2 at w2=0.5, measured {tuple(round(m, 12) for m in measured.tolist())}",
    )


def _corner_maximality_anchor() -> AnchorCheck:
    s = default_scenario()
    grid = surface_grid(s, 100, 100)
    argmax = grid.argmax_u_user()
    corner = corner_allocation(s)
    return _check(
        "100x100 grid argmax of the user utility at the box corner",
        "reference",
        argmax == corner,
        f"expected {corner}, got {argmax}",
    )


def _path_consistency_anchor() -> AnchorCheck:
    # Relative gaps are measured against the scale of the terms being
    # combined; a bare |a-b|/|a| would explode at utility zero crossings.
    worst_user = 0.0
    worst_server = 0.0
    for s, alloc in _random_draw_groups(np.random.default_rng(20260809), 1000):
        summary = user_utility(s, alloc)
        direct = (
            s.w1 * summary.energy.e_save + s.w2 * summary.time.t_save - summary.price
        )
        user_scale = np.maximum(
            abs(summary.u_user),
            s.w1 * abs(summary.energy.e_save)
            + s.w2 * abs(summary.time.t_save)
            + summary.price,
        )
        worst_user = np.max(abs(direct - summary.u_user) / user_scale, initial=worst_user)
        closed = server_utility(s, alloc)
        composed = summary.price - summary.time.t_offload + summary.w_revenue
        server_scale = np.maximum(
            abs(closed),
            summary.price + summary.time.t_offload + summary.w_revenue,
        )
        worst_server = np.max(abs(closed - composed) / server_scale, initial=worst_server)
    ok = worst_user <= 1e-9 and worst_server <= 1e-9
    return _check(
        "utility path consistency on 1000 random inputs "
        "(absolute server levels documented as not anchored)",
        "closed-form",
        ok,
        f"worst relative deviations: user {worst_user:.3g}, server {worst_server:.3g}",
    )


def _curvature_anchor() -> AnchorCheck:
    all_definite = True
    worst_grad = 0.0
    for s, target in _random_draw_groups(np.random.default_rng(20260810), 1000):
        pc = derive_coefficients(s, target.f_server, target.b)
        report = curvature_report(s, pc, target)
        definite = report.negative_definite & (report.lambda1 < 0) & (report.lambda2 < 0)
        all_definite &= bool(np.all(definite))
        grad = user_utility_gradient(s, pc, Allocation(report.critical_f, report.critical_b))
        worst_grad = np.max(np.maximum(abs(grad[0]), abs(grad[1])), initial=worst_grad)
    ok = all_definite and worst_grad < 1e-9
    return _check(
        "Hessian negative-definite and critical point stationary on 1000 random draws",
        "closed-form",
        ok,
        f"all definite: {all_definite}, worst |gradient| at critical point: {worst_grad:.3g}",
    )


def _quadratic_gap_anchor() -> AnchorCheck:
    s = default_scenario()
    pc = derive_coefficients(s, 6.0 * GHZ, 1.0 * MBPS)
    fracs = np.array([-0.1, -0.05, 0.0, 0.05, 0.1])
    estimate = quadratic_gap(s, pc, (fracs[:, None] * 6.0 * GHZ, fracs[None, :] * 1.0 * MBPS))
    worst = np.max(abs(estimate.actual_drop - estimate.predicted_drop) / USER_UTILITY_AT_CORNER)
    non_negative = bool(np.all(estimate.actual_drop >= 0.0))
    ok = worst <= 1e-2 and non_negative
    return _check(
        "second-order drop prediction within 1e-2 of actual for <=10% displacements",
        "derived",
        ok,
        f"worst normalized gap {worst:.3g}, drops non-negative: {non_negative}",
    )


def _optimizer_anchors(cfg: SwarmConfig, n_trials: int) -> list[AnchorCheck]:
    s = default_scenario()
    report = compare_optimizers(s, cfg, n_trials)
    disc = report.stats["disc-pso"]
    means = {name: st.mean_iterations for name, st in report.stats.items()}
    stds = {name: st.std_value for name, st in report.stats.items()}

    checks = [
        _near("search-gap reference value at the comparison setting", "derived",
              report.u_max, USER_UTILITY_AT_CORNER, "1e-3"),
        _check(
            f"disc-pso converged in all {n_trials} trials with mean iterations <= 5",
            "statistical",
            all(disc.converged_list) and disc.mean_iterations <= 5.0,
            f"converged {sum(disc.converged_list)}/{n_trials}, "
            f"mean iterations {disc.mean_iterations:.3g}",
        ),
        _check(
            "mean-iteration ordering disc-pso < pso < de < ga",
            "statistical",
            means["disc-pso"] < means["pso"] < means["de"] < means["ga"],
            f"means {{{', '.join(f'{k}: {v:.3g}' for k, v in means.items())}}}",
        ),
        _check(
            "disc-pso final-value spread is the smallest of the four",
            "statistical",
            stds["disc-pso"] == min(stds.values()),
            f"stds {{{', '.join(f'{k}: {v:.3g}' for k, v in stds.items())}}}",
        ),
    ]
    values = np.array([stats.value_list for stats in report.stats.values()])  # (searchers, trials)
    converged = np.array([stats.converged_list for stats in report.stats.values()])
    gap_met = report.u_max - values <= cfg.epsilon * abs(values)
    counts = converged.sum(axis=1).tolist()
    checks.append(
        _check(
            "every converged trial satisfies the relative-gap inequality",
            "closed-form",
            np.all(gap_met[converged]),
            "; ".join(f"{name}: {n}/{n_trials} converged" for name, n in zip(report.stats, counts)),
        )
    )
    return checks


def run_anchor_suite(*, seed: int = 0, n_trials: int = 50) -> list[AnchorCheck]:
    """Run every anchor; the optimizer block uses seeded paired trials.

    A bad ``seed`` or ``n_trials`` raises ``ValueError`` before any anchor runs.
    """
    cfg = SwarmConfig(seed=seed)
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    deltas = _f_server_sweep()
    checks: list[AnchorCheck] = []
    checks.extend(_price_anchors())
    checks.extend(_sweep_delta_anchors(deltas))
    checks.append(_utility_anchor())
    checks.extend(_diagnostic_anchors())
    checks.append(_coupling_anchor(deltas))
    checks.append(_corner_maximality_anchor())
    checks.append(_path_consistency_anchor())
    checks.append(_curvature_anchor())
    checks.append(_quadratic_gap_anchor())
    checks.extend(_optimizer_anchors(cfg, n_trials))
    return checks
