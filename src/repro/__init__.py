"""repro — Game Dynamics and Equilibrium Computation in Population Protocols.

A faithful, laptop-scale reproduction of Alistarh, Chatterjee, Karrabi and
Lazarsfeld, *Game Dynamics and Equilibrium Computation in the Population
Protocol Model* (PODC 2024, arXiv:2307.07297), built as a reusable library:

* :mod:`repro.core` — the k-IGT dynamics, distributional equilibria, the
  stationary/mixing/approximation theorems, and the headline trade-off.
* :mod:`repro.engine` — the unified simulation-engine layer: protocols and
  games declare a pairwise interaction model once, and interchangeable
  backends execute it — per-agent (:class:`~repro.engine.AgentBackend`) or
  exact count-level (:class:`~repro.engine.CountBackend`, practical to
  ``n = 10^7`` and beyond).  The k-IGT update rule is written once there,
  as :func:`~repro.engine.igt_update`.
* :mod:`repro.markov` — ``(k, a, b, m)``-Ehrenfest processes and the exact
  Markov-chain analysis the paper's bounds rest on (stationary laws,
  mixing times, couplings, random walks, cutoff profiles).
* :mod:`repro.games` — repeated donation games, memory-one and
  zero-determinant strategies, exact expected payoffs, tournaments, and
  Nash/distributional-equilibrium utilities.
* :mod:`repro.population` — the population-protocol model: the protocol
  abstraction, the pair laws, and the :class:`~repro.population.Simulator`
  facade.
* :mod:`repro.analysis` — statistics and table rendering for the
  experiment reports.
* :mod:`repro.experiments` — one module per paper artifact (E1–E16)
  regenerating every theorem/figure as a theory-vs-measured table.
* :mod:`repro.params`, :mod:`repro.runner`, :mod:`repro.fabric` — typed
  experiment parameters, the parallel run orchestrator with its result
  cache, and the distributed sweep fabric.

Quickstart::

    from repro import (GenerosityGrid, IGTSimulation, PopulationShares,
                       default_theorem_2_9_setting)

    setting, shares, g_max = default_theorem_2_9_setting()
    grid = GenerosityGrid(k=8, g_max=g_max)
    sim = IGTSimulation(n=600, shares=shares, grid=grid, seed=0)
    sim.run(200_000)
    print(sim.average_generosity(), sim.empirical_mu())
"""

from repro.core import (
    AgentType,
    GenerosityGrid,
    IGTSimulation,
    PopulationShares,
    RDSetting,
    average_stationary_generosity,
    de_gap,
    default_theorem_2_9_setting,
    generosity_closed_form,
    generosity_lower_bound,
    igt_lambda,
    igt_mixing_lower_bound,
    igt_mixing_upper_bound,
    igt_stationary_weights,
    is_epsilon_de,
    mean_stationary_mu,
    theorem_2_9_conditions,
    tradeoff_table,
)
from repro.engine import (
    AgentBackend,
    CountBackend,
    EngineResult,
    igt_model,
    igt_update,
    matrix_game_model,
    protocol_model,
)
from repro.games import (
    DonationGame,
    MemoryOneStrategy,
    always_cooperate,
    always_defect,
    expected_payoff,
    generous_tit_for_tat,
    monte_carlo_payoff,
    tit_for_tat,
)
from repro.markov import (
    CompositionSpace,
    CoordinateCoupling,
    EhrenfestProcess,
    FiniteMarkovChain,
    total_variation,
)
from repro.population import Simulator

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "AgentType",
    "GenerosityGrid",
    "IGTSimulation",
    "PopulationShares",
    "RDSetting",
    "default_theorem_2_9_setting",
    "theorem_2_9_conditions",
    "igt_lambda",
    "igt_stationary_weights",
    "mean_stationary_mu",
    "average_stationary_generosity",
    "generosity_closed_form",
    "generosity_lower_bound",
    "de_gap",
    "is_epsilon_de",
    "igt_mixing_upper_bound",
    "igt_mixing_lower_bound",
    "tradeoff_table",
    # engine
    "AgentBackend",
    "CountBackend",
    "EngineResult",
    "protocol_model",
    "igt_model",
    "igt_update",
    "matrix_game_model",
    # games
    "DonationGame",
    "MemoryOneStrategy",
    "always_cooperate",
    "always_defect",
    "tit_for_tat",
    "generous_tit_for_tat",
    "expected_payoff",
    "monte_carlo_payoff",
    # markov
    "EhrenfestProcess",
    "FiniteMarkovChain",
    "CompositionSpace",
    "CoordinateCoupling",
    "total_variation",
    # population
    "Simulator",
]
