"""Game-theory substrate.

Implements everything in Sections 1.1.2 and Appendix B: the donation-game
reward structure, the strategy types (AC, AD, GTFT and the general
memory-one/reactive families they live in), a Monte Carlo engine for repeated
donation games with the δ-restart rule and optional execution noise, the
exact expected payoffs ``f(S1, S2)`` via the absorbing-chain formula
``q₁(I − δM)^{-1}v`` (eq. 33), the paper's closed forms (eqs. 44–46) and
payoff derivative (eq. 47), tournaments and zero-determinant strategies,
and the distributional-equilibrium gap of a symmetric game
(Definition 1.1).
"""

from repro.games.base import Action, GAME_STATES, MatrixGame
from repro.games.closed_forms import (
    payoff_gtft_vs_ac,
    payoff_gtft_vs_ad,
    payoff_gtft_vs_gtft,
    payoff_derivative_in_g,
    proposition_2_2_conditions,
)
from repro.games.donation import DonationGame
from repro.games.expected_payoff import (
    expected_payoff,
    expected_payoff_pair,
    joint_action_chain,
)
from repro.games.nash import symmetric_de_gap
from repro.games.repeated import GameRecord, RepeatedGameEngine, monte_carlo_payoff
from repro.games.tournament import Tournament, TournamentResult
from repro.games.zd import (
    average_payoff_pair,
    extortionate_zd,
    generous_zd,
    max_feasible_phi,
    zd_relation_residual,
    zd_strategy,
)
from repro.games.strategies import (
    MemoryOneStrategy,
    always_cooperate,
    always_defect,
    generous_tit_for_tat,
    grim_trigger,
    reactive,
    tit_for_tat,
    win_stay_lose_shift,
    with_execution_noise,
)

__all__ = [
    "Action",
    "GAME_STATES",
    "MatrixGame",
    "DonationGame",
    "MemoryOneStrategy",
    "reactive",
    "always_cooperate",
    "always_defect",
    "tit_for_tat",
    "generous_tit_for_tat",
    "grim_trigger",
    "win_stay_lose_shift",
    "with_execution_noise",
    "RepeatedGameEngine",
    "GameRecord",
    "monte_carlo_payoff",
    "expected_payoff",
    "expected_payoff_pair",
    "joint_action_chain",
    "payoff_gtft_vs_ac",
    "payoff_gtft_vs_ad",
    "payoff_gtft_vs_gtft",
    "payoff_derivative_in_g",
    "proposition_2_2_conditions",
    "symmetric_de_gap",
    "Tournament",
    "TournamentResult",
    "zd_strategy",
    "extortionate_zd",
    "generous_zd",
    "max_feasible_phi",
    "average_payoff_pair",
    "zd_relation_residual",
]
