"""Game-theory substrate.

Implements everything in Sections 1.1.2 and Appendix B: the donation-game
reward structure, the strategy types (AC, AD, GTFT and the general
memory-one/reactive families they live in), a Monte Carlo engine for repeated
donation games with the δ-restart rule and optional execution noise, the
exact expected payoffs ``f(S1, S2)`` via the absorbing-chain formula
``q₁(I − δM)^{-1}v`` (eq. 33), the paper's closed forms (eqs. 44–46) and
payoff derivatives (eqs. 47/57), and classical Nash/equilibrium utilities
that ground the distributional-equilibrium concept (Definition 1.1).
"""

from repro.games.base import Action, GAME_STATES, MatrixGame
from repro.games.closed_forms import (
    expected_payoff_closed_form,
    payoff_gtft_vs_ac,
    payoff_gtft_vs_ad,
    payoff_gtft_vs_gtft,
    payoff_derivative_in_g,
    payoff_second_derivative_in_g,
    proposition_2_2_conditions,
)
from repro.games.donation import DonationGame, PrisonersDilemma
from repro.games.expected_payoff import (
    expected_game_length,
    expected_payoff,
    expected_payoff_pair,
    joint_action_chain,
)
from repro.games.nash import (
    best_response_payoff,
    distributional_equilibrium_gap,
    is_epsilon_distributional_equilibrium,
    is_epsilon_nash,
    pure_nash_equilibria,
    symmetric_de_gap,
)
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
    "PrisonersDilemma",
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
    "expected_game_length",
    "joint_action_chain",
    "expected_payoff_closed_form",
    "payoff_gtft_vs_ac",
    "payoff_gtft_vs_ad",
    "payoff_gtft_vs_gtft",
    "payoff_derivative_in_g",
    "payoff_second_derivative_in_g",
    "proposition_2_2_conditions",
    "best_response_payoff",
    "is_epsilon_nash",
    "pure_nash_equilibria",
    "distributional_equilibrium_gap",
    "symmetric_de_gap",
    "is_epsilon_distributional_equilibrium",
    "Tournament",
    "TournamentResult",
    "zd_strategy",
    "extortionate_zd",
    "generous_zd",
    "max_feasible_phi",
    "average_payoff_pair",
    "zd_relation_residual",
]
