"""E14 — ablations and extensions.

Four studies the paper motivates but does not evaluate:

(i)   *Action-observed vs strategy-observed transitions* (Remark, §2.2):
      with actual repeated-game transcripts, a GTFT initiator classifies its
      partner as AD iff it never cooperated; as δ grows the stationary
      average generosity converges to the strategy-observed value.
(ii)  *Strict IGT variant* (Remark after Prop. 2.2): incrementing only on
      GTFT partners shifts the stationary bias from ``(n−1−n_AD)/n_AD`` to
      ``(m−1)/n_AD`` and lowers the average generosity accordingly.
(iii) *Noise robustness — why generosity exists* (§1.1.2 discussion): under
      trembling-hand noise, TFT-vs-TFT payoffs collapse toward the
      alternating/defection regime while GTFT recovers; measured with exact
      noisy-strategy resolvents.
(iv)  *Other games* (§3): imitation dynamics on hawk–dove drive the
      empirical mixture toward the mixed equilibrium ``v/c`` and shrink the
      Definition 1.1 DE gap.
"""

from __future__ import annotations

import numpy as np

from repro.core.general_games import (
    PopulationGameSimulation,
    hawk_dove_equilibrium_mixture,
    hawk_dove_game,
)
from repro.core.igt import GenerosityGrid
from repro.core.population_igt import IGTSimulation, PopulationShares
from repro.core.equilibrium import RDSetting
from repro.core.theory import igt_mixing_upper_bound
from repro.experiments.base import ExperimentReport, register
from repro.games.donation import DonationGame
from repro.games.expected_payoff import expected_payoff
from repro.games.nash import symmetric_de_gap
from repro.games.strategies import (
    generous_tit_for_tat,
    tit_for_tat,
    with_execution_noise,
)
from repro.params import Param, ParamSpace
from repro.utils import as_generator

#: The delta grids of study (i); both contain delta = 0.9.
_DELTA_GRIDS = {
    "coarse": [0.5, 0.9],
    "fine": [0.3, 0.6, 0.9, 0.97],
}

PARAMS = ParamSpace(
    Param("n_action", "int", 60, minimum=10,
          help="population size of the action-vs-strategy study"),
    Param("samples", "int", 60, minimum=10,
          help="ergodic-average samples per stationary measurement"),
    Param("deltas", "str", "coarse", choices=("coarse", "fine"),
          help="continuation-probability grid of study (i)"),
    Param("n_strict", "int", 200, minimum=10,
          help="population size of the strict-variant study"),
    Param("n_hd", "int", 150, minimum=20,
          help="population size of the hawk-dove imitation study"),
    Param("hd_sweeps", "int", 40, minimum=5,
          help="hawk-dove burn-in length in population sweeps (n_hd "
               "interactions each)"),
    profiles={"full": {"n_action": 120, "samples": 150, "deltas": "fine",
                       "n_strict": 500, "n_hd": 400, "hd_sweeps": 150}},
)


def _stationary_generosity(sim: IGTSimulation, shares, n, k,
                           samples: int) -> float:
    burn_in = int(2 * igt_mixing_upper_bound(k, shares, n))
    sim.run(burn_in)
    total = 0.0
    for _ in range(samples):
        sim.run(max(n // 2, 1))
        total += sim.average_generosity()
    return total / samples


@register("E14", "Ablations — action rule, strict rule, noise, other games",
          params=PARAMS)
def run(params=None, seed=12345) -> ExperimentReport:
    """Run the four ablation studies."""
    params = PARAMS.resolve() if params is None else params
    rng = as_generator(seed)
    rows = []

    # ---------------------------------------------------------------
    # (i) action-observed vs strategy-observed
    # ---------------------------------------------------------------
    n_small = params["n_action"]
    k = 3
    samples = params["samples"]
    shares = PopulationShares(alpha=0.3, beta=0.2, gamma=0.5)
    grid = GenerosityGrid(k=k, g_max=0.5)
    gaps = []
    deltas = _DELTA_GRIDS[params["deltas"]]
    for delta in deltas:
        setting = RDSetting(b=4.0, c=1.0, delta=delta, s1=0.5)
        strategy_sim = IGTSimulation(n=n_small, shares=shares, grid=grid,
                                     seed=rng, mode="strategy")
        g_strategy = _stationary_generosity(strategy_sim, shares, n_small, k,
                                            samples)
        action_sim = IGTSimulation(n=n_small, shares=shares, grid=grid,
                                   seed=rng, mode="action", setting=setting)
        g_action = _stationary_generosity(action_sim, shares, n_small, k,
                                          samples)
        gap = abs(g_action - g_strategy)
        gaps.append(gap)
        rows.append(["(i) action vs strategy", f"delta={delta}",
                     f"{g_strategy:.4f}", f"{g_action:.4f}", f"{gap:.4f}"])

    # ---------------------------------------------------------------
    # (ii) strict variant
    # ---------------------------------------------------------------
    n_strict = params["n_strict"]
    k_strict = 4
    grid_strict = GenerosityGrid(k=k_strict, g_max=0.5)
    standard = IGTSimulation(n=n_strict, shares=shares, grid=grid_strict,
                             seed=rng, mode="strategy")
    strict = IGTSimulation(n=n_strict, shares=shares, grid=grid_strict,
                           seed=rng, mode="strict")
    g_standard = _stationary_generosity(standard, shares, n_strict, k_strict,
                                        samples)
    g_strict = _stationary_generosity(strict, shares, n_strict, k_strict,
                                      samples)
    strict_process = strict.equivalent_ehrenfest()
    lam_strict = strict_process.lam
    theory_strict = float(
        grid_strict.values @ strict_process.stationary_weights())
    rows.append(["(ii) strict variant", f"lambda_strict={lam_strict:.2f}",
                 f"{g_standard:.4f}", f"{g_strict:.4f}",
                 f"theory {theory_strict:.4f}"])

    # ---------------------------------------------------------------
    # (iii) noise robustness (exact, via noisy resolvents)
    # ---------------------------------------------------------------
    game = DonationGame(4.0, 1.0)
    v = game.reward_vector
    delta_noise = 0.9
    cooperative = (game.b - game.c) / (1.0 - delta_noise)
    tft_ratio = []
    gtft_ratio = []
    for noise in (0.0, 0.02, 0.05, 0.1):
        tft = with_execution_noise(tit_for_tat(), noise)
        gtft = with_execution_noise(generous_tit_for_tat(0.3, 1.0), noise)
        f_tft = expected_payoff(tft, tft, v, delta_noise)
        f_gtft = expected_payoff(gtft, gtft, v, delta_noise)
        tft_ratio.append(f_tft / cooperative)
        gtft_ratio.append(f_gtft / cooperative)
        rows.append(["(iii) noise", f"eps={noise}",
                     f"TFT/TFT {f_tft:.3f} ({tft_ratio[-1]:.3f}x)",
                     f"GTFT/GTFT {f_gtft:.3f} ({gtft_ratio[-1]:.3f}x)",
                     f"full coop {cooperative:.3f}"])

    # ---------------------------------------------------------------
    # (iv) hawk-dove imitation dynamics
    # ---------------------------------------------------------------
    value, cost = 2.0, 4.0
    hd = hawk_dove_game(value, cost)
    target = hawk_dove_equilibrium_mixture(value, cost)
    n_hd = params["n_hd"]
    # Start far from equilibrium (90% doves) so the gap has room to shrink.
    initial = np.ones(n_hd, dtype=np.int64)
    initial[: n_hd // 10] = 0
    sim = PopulationGameSimulation(hd, n=n_hd, rule="imitation", seed=rng,
                                   initial_strategies=initial)
    initial_gap = sim.de_gap()
    sim.run(params["hd_sweeps"] * n_hd)
    # Time-average the mixture over a trailing window.
    mu_acc = sim.empirical_mu()
    snapshots = 40
    for _ in range(snapshots):
        sim.run(n_hd)
        mu_acc = mu_acc + sim.empirical_mu()
    mu_avg = mu_acc / (snapshots + 1)
    final_gap = symmetric_de_gap(hd.row_payoffs, mu_avg)
    hawk_err = abs(mu_avg[0] - target[0])
    rows.append(["(iv) hawk-dove", f"target hawk={target[0]:.3f}",
                 f"measured hawk={mu_avg[0]:.3f}",
                 f"DE gap {initial_gap:.4f} -> {final_gap:.4f}",
                 f"|hawk err|={hawk_err:.4f}"])

    checks = {
        "(i) action-rule gap shrinks as delta -> 1": gaps[-1] <= gaps[0] + 0.02,
        "(i) action rule within 0.1 of strategy rule at delta=0.9":
            gaps[deltas.index(0.9)] < 0.1,
        "(ii) strict variant strictly less generous":
            g_strict < g_standard,
        "(ii) strict variant matches its own Ehrenfest theory (0.05)":
            abs(g_strict - theory_strict) < 0.05,
        "(iii) noise hurts TFT more than GTFT at every noise level": all(
            t <= g + 1e-12 for t, g in zip(tft_ratio[1:], gtft_ratio[1:])),
        "(iii) GTFT retains >60% of cooperative payoff at 5% noise":
            gtft_ratio[2] > 0.6,
        "(iv) hawk fraction near the mixed equilibrium v/c (0.1)":
            hawk_err < 0.1,
        "(iv) DE gap shrinks under imitation": final_gap < initial_gap,
    }
    return ExperimentReport(
        experiment_id="E14",
        title="Ablations — action rule, strict rule, noise, other games",
        claim=("(i) action-observed IGT converges to the strategy rule as "
               "delta -> 1; (ii) the strict variant is less generous with "
               "its own Ehrenfest law; (iii) generosity rescues payoffs "
               "under noise where TFT collapses; (iv) imitation dynamics on "
               "hawk-dove approach the mixed equilibrium."),
        headers=["study", "parameter", "value A", "value B", "reference"],
        rows=rows,
        checks=checks,
    )
