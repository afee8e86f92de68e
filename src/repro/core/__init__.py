"""The paper's primary contribution.

* :mod:`repro.core.igt` — the generosity grid ``G = {g_1, ..., g_k}`` and
  the strategy types of Definition 2.1 (the update rule itself is
  :func:`repro.engine.igt_update`).
* :mod:`repro.core.population_igt` — agent-level simulation of the k-IGT
  dynamics on ``(α, β, γ)`` populations, with strategy-observed,
  action-observed (Remark, Section 2.2) and strict (Remark after
  Proposition 2.2) transition variants and optional payoff accounting;
  its :class:`PopulationShares` holds the Ehrenfest embedding's rates
  (the paper's idealized ones and the exact finite-``n`` ones).
* :mod:`repro.core.stationary` — the stationary characterization of
  Theorem 2.7 and the Ehrenfest embedding.
* :mod:`repro.core.generosity` — average stationary generosity
  (Proposition 2.8, Corollary C.1).
* :mod:`repro.core.equilibrium` — distributional equilibria for RD games on
  ``(α, β, γ)`` populations (Definition 1.2) and the DE gap Ψ (Theorem 2.9).
* :mod:`repro.core.regimes` — the parameter regimes of Proposition 2.2 and
  Theorem 2.9, plus constructors for valid settings.
* :mod:`repro.core.theory` — the paper's mixing-time bounds on the k-IGT
  embedding (Theorem 2.7), evaluated by the
  :class:`~repro.markov.EhrenfestProcess` bound methods (Theorem 2.5,
  Lemma A.8, Proposition A.9).
* :mod:`repro.core.tradeoffs` — the headline time/space/approximation
  trade-off table.
* :mod:`repro.core.general_games` — population game dynamics for arbitrary
  symmetric matrix games (the paper's "other classes of games" direction).
"""

from repro.core.equilibrium import (
    RDSetting,
    de_gap,
    expected_payoff_vs_mixture,
    induced_full_distribution,
    is_epsilon_de,
    mean_stationary_mu,
    payoff_table,
)
from repro.core.generosity import (
    average_stationary_generosity,
    generosity_closed_form,
    generosity_lower_bound,
)
from repro.core.igt import AgentType, GenerosityGrid
from repro.core.mean_field import (
    drift_generator,
    igt_mean_field,
    mean_field_stationary,
    mean_trajectory_discrete,
    mean_trajectory_ode,
)
from repro.core.population_igt import IGTSimulation, PopulationShares
from repro.core.regimes import (
    Theorem29Conditions,
    default_theorem_2_9_setting,
    literal_only_theorem_2_9_setting,
    payoff_increase_margin,
    theorem_2_9_conditions,
    theorem_2_9_g_max_bound,
)
from repro.core.stationary import (
    igt_ehrenfest_parameters,
    igt_lambda,
    igt_stationary_weights,
    noisy_igt_lambda,
    stationary_count_distribution,
)
from repro.core.theory import igt_mixing_lower_bound, igt_mixing_upper_bound
from repro.core.tradeoffs import TradeoffRow, tradeoff_table

__all__ = [
    "AgentType",
    "GenerosityGrid",
    "IGTSimulation",
    "PopulationShares",
    "RDSetting",
    "payoff_table",
    "expected_payoff_vs_mixture",
    "induced_full_distribution",
    "de_gap",
    "is_epsilon_de",
    "mean_stationary_mu",
    "igt_lambda",
    "igt_stationary_weights",
    "noisy_igt_lambda",
    "igt_ehrenfest_parameters",
    "stationary_count_distribution",
    "average_stationary_generosity",
    "generosity_closed_form",
    "generosity_lower_bound",
    "theorem_2_9_conditions",
    "Theorem29Conditions",
    "theorem_2_9_g_max_bound",
    "default_theorem_2_9_setting",
    "literal_only_theorem_2_9_setting",
    "payoff_increase_margin",
    "igt_mixing_upper_bound",
    "igt_mixing_lower_bound",
    "TradeoffRow",
    "tradeoff_table",
    "drift_generator",
    "mean_trajectory_discrete",
    "mean_trajectory_ode",
    "mean_field_stationary",
    "igt_mean_field",
]
