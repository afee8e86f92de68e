"""Loud refusals across the library's public entry points.

Each case feeds one malformed value to one public function or class and
requires an :class:`InvalidParameterError` (or :class:`ConvergenceError`)
whose message names the problem.  One case per refusal branch.
"""

import numpy as np
import pytest

from repro.analysis.stats import bootstrap_confidence_interval
from repro.core.equilibrium import RDSetting, mean_stationary_mu
from repro.core.general_games import PopulationGameSimulation, hawk_dove_game
from repro.core.generosity import generosity_closed_form
from repro.core.igt import GenerosityGrid
from repro.core.mean_field import (
    mean_generosity_trajectory,
    mean_trajectory_discrete,
    mean_trajectory_ode,
)
from repro.core.population_igt import IGTSimulation, PopulationShares
from repro.core.regimes import theorem_2_9_delta_bound, theorem_2_9_g_max_bound
from repro.engine import igt_update
from repro.games.base import MatrixGame
from repro.games.nash import symmetric_de_gap
from repro.markov.chain import FiniteMarkovChain
from repro.markov.ehrenfest import geometric_weights
from repro.markov.random_walks import simulate_absorption_time
from repro.population.protocol import TransitionFunctionProtocol
from repro.utils import ConvergenceError, InvalidParameterError

SHARES = PopulationShares(alpha=0.3, beta=0.2, gamma=0.5)
GRID = GenerosityGrid(k=4, g_max=0.6)


def igt(**kwargs) -> IGTSimulation:
    options = {"n": 20, "shares": SHARES, "grid": GRID, "seed": 0}
    options.update(kwargs)
    return IGTSimulation(**options)


CORE_REFUSALS = [
    pytest.param(lambda: igt_update(4, 4, reads_ad=False),
                 "index must lie in 0..3, got 4", id="igt-update-index-high"),
    pytest.param(lambda: igt_update(np.array([0, -3]), 4, reads_ad=True),
                 "index must lie in 0..3, got -3",
                 id="igt-update-index-negative"),
    pytest.param(lambda: igt_update(1.5, 4, reads_ad=False),
                 "index must hold integers", id="igt-update-index-float"),
    pytest.param(lambda: mean_stationary_mu(3, lam=float("inf")),
                 "lam must be positive and finite", id="mean-mu-lam-inf"),
    pytest.param(lambda: igt(initial_indices="corner"),
                 "unknown initial_indices spec", id="igt-start-spec"),
    pytest.param(lambda: igt(initial_indices=np.full(10, 9)),
                 "must lie in 0..3", id="igt-start-range"),
    pytest.param(lambda: igt(initial_indices=np.full(10, 1.7)),
                 "initial_indices must hold integers, got 1.7",
                 id="igt-start-fractional"),
    pytest.param(lambda: igt(initial_indices=np.zeros((2, 5))),
                 "initial_indices must be a 1-D array",
                 id="igt-start-2d"),
    pytest.param(lambda: igt(initial_indices=1.7),
                 "initial_indices must be an integer", id="igt-start-float"),
    pytest.param(lambda: igt(weights="twoclass").equivalent_ehrenfest(
        exact=False),
                 "exact=True", id="embedding-weighted-idealized"),
    pytest.param(lambda: igt(weights=np.r_[np.ones(19), 2.0])
                 .equivalent_ehrenfest(),
                 "share one activity weight", id="embedding-gtft-weights"),
    pytest.param(lambda: igt(shares=PopulationShares(0.5, 0.0, 0.5),
                             weights="twoclass").equivalent_ehrenfest(),
                 "at least one AD agent", id="embedding-weighted-no-ad"),
    pytest.param(lambda: igt(shares=PopulationShares(0.0, 0.95, 0.05))
                 .equivalent_ehrenfest(),
                 "degenerate embedding", id="embedding-degenerate"),
    pytest.param(lambda: igt(mode="strict", weights="twoclass")
                 .equivalent_ehrenfest(),
                 "uniform scheduler", id="strict-weighted"),
    pytest.param(lambda: igt(mode="strict", topology="ring")
                 .equivalent_ehrenfest(),
                 "complete-graph", id="strict-topology"),
    pytest.param(lambda: igt(mode="strict",
                             shares=PopulationShares(0.5, 0.0, 0.5))
                 .equivalent_ehrenfest(),
                 "at least one AD", id="strict-no-ad"),
    pytest.param(lambda: igt(mode="strict").equivalent_ehrenfest(
        exact=False),
                 "finite-n rates only", id="strict-idealized"),
    pytest.param(lambda: igt(mode="action",
                             setting=RDSetting(4.0, 1.0, 0.5, 0.5))
                 .equivalent_ehrenfest(),
                 "mode='action' has no Ehrenfest embedding",
                 id="embedding-action"),
    pytest.param(lambda: theorem_2_9_delta_bound(4.0, 1.0, 1.0, SHARES),
                 "s1 < 1", id="delta-bound-s1"),
    pytest.param(lambda: theorem_2_9_g_max_bound(
        RDSetting(4.0, 1.0, 0.0, 0.5), SHARES),
                 "delta > 0", id="g-max-bound-delta"),
    pytest.param(lambda: theorem_2_9_g_max_bound(
        RDSetting(4.0, 1.0, 0.7, 1.0), SHARES),
                 "s1 < 1", id="g-max-bound-s1"),
    pytest.param(lambda: mean_trajectory_discrete(3, 0.3, 0.2, [1, 2], 5),
                 "length k=3", id="mean-flow-z0-length"),
    pytest.param(lambda: mean_trajectory_discrete(3, 0.3, 0.2, [0, 0, 0], 5),
                 "positive total mass", id="mean-flow-z0-mass"),
    pytest.param(lambda: mean_trajectory_ode(3, 0.3, 0.2, [0.5, 0.5],
                                             [0.0, 1.0]),
                 "length k=3", id="mean-ode-x0-length"),
    pytest.param(lambda: mean_generosity_trajectory(3, 0.3, 0.2, [1, 1, 1],
                                                    GRID, 5),
                 "grid has k=4", id="mean-generosity-grid"),
    pytest.param(lambda: generosity_closed_form(4, 0.2, 1.5),
                 "g_max must lie in", id="generosity-g-max"),
    pytest.param(lambda: PopulationGameSimulation(
        hawk_dove_game(), n=10, seed=0, initial_strategies=[0, 1]),
                 "length n=10", id="game-start-length"),
    pytest.param(lambda: PopulationGameSimulation(
        hawk_dove_game(), n=4, seed=0,
        initial_strategies=[0.2, 0.9, 1.7, 1.1]),
                 "initial_strategies must hold integers, got 0.2",
                 id="game-start-fractional"),
    pytest.param(lambda: PopulationGameSimulation(
        hawk_dove_game(), n=10, seed=0, backend="count").strategies,
                 "backend='agent'", id="game-count-strategies"),
]

GAMES_AND_MARKOV_REFUSALS = [
    pytest.param(lambda: MatrixGame([1.0, 2.0]),
                 "2-D matrix", id="matrix-game-1d"),
    pytest.param(lambda: MatrixGame(np.ones((2, 3))),
                 "square matrix", id="matrix-game-symmetric-shape"),
    pytest.param(lambda: symmetric_de_gap(np.ones((3, 3)), [0.5, 0.5]),
                 "incompatible with mu", id="symmetric-de-gap-shape"),
    pytest.param(lambda: simulate_absorption_time(6, 0.01, 0.01, seed=0,
                                                  max_steps=5),
                 "not absorbed within 5 steps", id="walk-budget"),
    pytest.param(lambda: geometric_weights(3, 0.0),
                 "lam must be positive and finite", id="weights-lam-zero"),
    pytest.param(lambda: geometric_weights(3, float("inf")),
                 "lam must be positive and finite", id="weights-lam-inf"),
    pytest.param(lambda: geometric_weights(3, float("nan")),
                 "lam must be positive and finite", id="weights-lam-nan"),
    pytest.param(lambda: geometric_weights(0, 2.0),
                 "k must be >= 1", id="weights-k-zero"),
    pytest.param(lambda: TransitionFunctionProtocol(0, lambda u, v: (u, v)),
                 "at least 1", id="protocol-no-states"),
    pytest.param(lambda: bootstrap_confidence_interval([]),
                 "at least one sample", id="bootstrap-empty"),
]

class TestCoreRefusals:
    @pytest.mark.parametrize("call, match", CORE_REFUSALS)
    def test_refused(self, call, match):
        with pytest.raises(InvalidParameterError, match=match):
            call()


class TestGamesAndMarkovRefusals:
    @pytest.mark.parametrize("call, match", GAMES_AND_MARKOV_REFUSALS)
    def test_refused(self, call, match):
        with pytest.raises(InvalidParameterError, match=match):
            call()

    def test_power_iteration_budget(self):
        # A periodic chain never settles under plain power iteration
        # when the uniform start is not already stationary.
        chain = FiniteMarkovChain(np.array([[0.0, 1.0, 0.0],
                                            [0.5, 0.0, 0.5],
                                            [0.0, 1.0, 0.0]]))
        with pytest.raises(ConvergenceError, match="did not converge"):
            chain.stationary_distribution(method="power", max_iterations=50)
