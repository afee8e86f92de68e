"""Population game dynamics for general symmetric matrix games.

The paper's discussion (Section 3) poses the open direction of studying
*other* classes of games in the population setting under Definition 1.1's
distributional-equilibrium concept.  This module provides that playground:
``n`` agents each hold a pure strategy of a symmetric matrix game, interact
pairwise under the uniform scheduler, and update their strategies with
simple local rules:

* ``imitation`` — pairwise comparison: the initiator and a model agent each
  earn a payoff against *independently sampled* opponents, and the initiator
  adopts the model's strategy with probability proportional to the positive
  part of the payoff difference — the finite-population analogue of
  replicator dynamics.  (Comparing payoffs from the *same* matchup instead
  is a known trap: in hawk–dove the hawk always out-earns its own dove
  partner, so that rule absorbs at all-hawk.)
* ``best_response`` — with probability ``p_update``, the initiator switches
  to a best response against its partner's current strategy.
* ``logit`` — the initiator resamples its strategy from the softmax of the
  payoffs against its partner's strategy (temperature ``eta``) — a smoothed
  best response that keeps the chain irreducible.

:meth:`PopulationGameSimulation.de_gap` reads the Definition 1.1 gap of
the empirical strategy distribution — the quantity Experiment E14(iv)
reports for the hawk–dove game.

The update rules are declared once as engine interaction models
(:func:`repro.engine.matrix_game_model`) and ``run()`` executes them on
the engine the ``backend=`` knob selects: ``"agent"`` keeps per-agent
strategies, ``"count"`` runs the exact count-level chain —
distribution-identical and far faster at large ``n`` (per-agent
strategies are then unavailable).
"""

from __future__ import annotations

import numpy as np

from repro.engine import (
    build_engine,
    check_backend,
    make_law,
    matrix_game_model,
    resolve_backend,
)
from repro.games.base import MatrixGame
from repro.games.nash import symmetric_de_gap
from repro.utils import (
    as_generator,
    check_int_array,
    check_positive_int,
    check_probability,
)
from repro.utils.errors import InvalidParameterError

_RULES = ("imitation", "best_response", "logit")


class PopulationGameSimulation:
    """Pairwise-interaction dynamics over a symmetric matrix game.

    Parameters
    ----------
    game:
        A symmetric :class:`~repro.games.MatrixGame` (the row matrix is used
        for both players).
    n:
        Population size.
    rule:
        Update rule: ``"imitation"``, ``"best_response"``, or ``"logit"``.
    seed:
        Seed or generator.
    initial_strategies:
        Length-``n`` array of initial pure-strategy indices; uniform random
        when omitted.
    p_update:
        Update probability for the best-response rule.
    eta:
        Inverse temperature for the logit rule.
    backend:
        ``"agent"`` (default) tracks every agent's strategy; ``"count"``
        tracks only the strategy-count vector — distribution-identical and
        far faster at large ``n``, but ``strategies`` is unavailable.
        ``"auto"`` dispatches between them from ``n``
        (:func:`repro.engine.resolve_backend`).
    weights:
        Optional per-agent activity weights (length-``n`` positive array
        or a :func:`repro.engine.weights_from_spec` spec string): pairs
        are scheduled weight-proportionally instead of uniformly.  On
        ``backend="count"`` the simulation runs the exact
        ``(weight class × state)`` lift — available for every rule,
        including ``imitation`` (observed agents lift to the product
        space).
    topology:
        Optional interaction graph restricting which pairs may meet —
        a :func:`repro.engine.topology_from_spec` spec string
        (``"ring"``, ``"grid:8"``, ``"smallworld:0.1"``, ...), an
        :class:`~repro.engine.InteractionGraph`, or an ``(E, 2)`` edge
        array.  ``"auto"`` then resolves to ``"agent"`` (the quenched
        graph process); pinning ``backend="count"`` runs the
        degree-annealed chain, accepted only for vertex-transitive
        graphs.  Mutually exclusive with non-uniform ``weights``.
    """

    def __init__(self, game: MatrixGame, n: int, rule: str = "imitation",
                 seed=None, initial_strategies=None, p_update: float = 0.5,
                 eta: float = 1.0, backend: str = "agent", weights=None,
                 topology=None):
        if not game.is_symmetric():
            raise InvalidParameterError(
                "population game dynamics require a symmetric game")
        if rule not in _RULES:
            raise InvalidParameterError(
                f"rule must be one of {_RULES}, got {rule!r}")
        self.game = game
        self.payoffs = np.asarray(game.row_payoffs, dtype=float)
        self.n = check_positive_int("n", n, minimum=2)
        self.rule = rule
        self.p_update = check_probability("p_update", p_update)
        if eta <= 0:
            raise InvalidParameterError(f"eta must be positive, got {eta!r}")
        self.eta = float(eta)
        rng = as_generator(seed)
        law = make_law(self.n, weights, topology, seed=rng)
        check_backend(backend, allow_auto=True)
        self.backend = backend = resolve_backend(
            backend, n=self.n, weighted=law.weights is not None,
            graph_restricted=law.topology is not None)
        n_strategies = self.payoffs.shape[0]
        counts = None
        if initial_strategies is None and backend == "count" \
                and law.weights is None:
            # The uniform and graph count chains need counts alone: the
            # histogram of n uniform strategies is one multinomial draw.
            strategies = None
            counts = rng.multinomial(
                self.n, np.full(n_strategies, 1.0 / n_strategies))
        elif initial_strategies is None:
            strategies = rng.integers(0, n_strategies, size=self.n)
        else:
            strategies = check_int_array("initial_strategies",
                                         initial_strategies).copy()
            if strategies.size != self.n:
                raise InvalidParameterError(
                    f"initial_strategies must have length n={self.n}")
            if strategies.min() < 0 or strategies.max() >= n_strategies:
                raise InvalidParameterError(
                    f"strategies must lie in 0..{n_strategies - 1}")
        payoff_span = float(self.payoffs.max() - self.payoffs.min())
        # The update rule, declared once as an engine interaction model
        # that both backends execute.
        model = matrix_game_model(
            self.payoffs, rule, p_update=self.p_update, eta=self.eta,
            imitation_scale=payoff_span if payoff_span > 0 else 1.0)
        self._strategies = strategies if backend == "agent" else None
        self._engine = build_engine(model, law, backend, states=strategies,
                                    counts=counts)
        self._counts = self._engine.counts_live

    @property
    def steps_run(self) -> int:
        """Interactions executed so far."""
        return self._engine.steps_run

    @property
    def n_strategies(self) -> int:
        """Number of pure strategies in the game."""
        return self.payoffs.shape[0]

    @property
    def strategies(self) -> np.ndarray:
        """Per-agent strategy array (``backend="agent"`` only; live view)."""
        if self._strategies is None:
            raise InvalidParameterError(
                "per-agent strategies are not tracked by backend='count'; "
                "use backend='agent'")
        return self._strategies

    @property
    def counts(self) -> np.ndarray:
        """Current strategy counts."""
        return self._counts.copy()

    def empirical_mu(self) -> np.ndarray:
        """Empirical strategy distribution ``µ_t``."""
        return self._counts / self.n

    def de_gap(self) -> float:
        """Definition 1.1 gap of the current empirical distribution."""
        return symmetric_de_gap(self.payoffs, self.empirical_mu())

    def run(self, steps: int) -> None:
        """Execute ``steps`` interactions on the configured backend."""
        self._engine.run(check_positive_int("steps", steps, minimum=0))


def hawk_dove_game(value: float = 2.0, cost: float = 4.0) -> MatrixGame:
    """The hawk–dove (chicken) game, a canonical non-PD symmetric game.

    Payoffs: ``H vs H: (v−c)/2``, ``H vs D: v``, ``D vs H: 0``,
    ``D vs D: v/2``.  For ``c > v`` the unique symmetric equilibrium is
    mixed with hawk probability ``v/c`` — a natural target distribution for
    population dynamics to hover around.
    """
    if not cost > value > 0:
        raise InvalidParameterError(
            f"hawk-dove requires cost > value > 0, got cost={cost!r}, "
            f"value={value!r}")
    matrix = np.array([[(value - cost) / 2.0, value],
                       [0.0, value / 2.0]])
    return MatrixGame(matrix, row_labels=["H", "D"], col_labels=["H", "D"])


def hawk_dove_equilibrium_mixture(value: float = 2.0,
                                  cost: float = 4.0) -> np.ndarray:
    """The symmetric mixed equilibrium ``(v/c, 1 − v/c)`` of hawk–dove."""
    if not cost > value > 0:
        raise InvalidParameterError(
            f"hawk-dove requires cost > value > 0, got cost={cost!r}, "
            f"value={value!r}")
    hawk = value / cost
    return np.array([hawk, 1.0 - hawk])
