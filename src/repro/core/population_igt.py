"""Agent-level k-IGT dynamics on ``(α, β, γ)`` populations.

This is the paper's actual protocol: ``n`` agents with fixed strategy types
(AC / AD / GTFT in fractions ``α / β / γ``); at each step an ordered pair of
distinct agents is scheduled uniformly at random, the pair plays a repeated
donation game, and a GTFT *initiator* then updates its generosity index by
the k-IGT rule.  Three observation modes are supported:

* ``"strategy"`` (Definition 2.1) — the initiator reads its partner's true
  strategy type.
* ``"action"`` (Remark, Section 2.2) — the pair actually plays a Monte
  Carlo repeated game and the initiator classifies its partner as AD iff it
  defected in every round.  For large δ this coincides with the strategy
  rule with high probability.
* ``"strict"`` (Remark after Proposition 2.2) — like ``"strategy"`` but AC
  partners do not trigger an increment.

The count vector over generosity indices is exactly a
``(k, a, b, m)``-Ehrenfest process (Section 2.2.1); the embedding — with
both the paper's idealized parameters and the exact finite-``n`` sampling
corrections — is exposed via :meth:`IGTSimulation.equivalent_ehrenfest`.

Execution is delegated to the engine layer (:mod:`repro.engine`): the
dynamics is declared once as a ``k + 2``-state interaction model
(:func:`repro.engine.igt_model`) and run on the backend selected by the
``backend=`` knob — ``"agent"`` (per-agent states, trajectories bit-for-bit
identical to the pre-engine fast path under a fixed seed) or ``"count"``
(exact count-level simulation, practical up to ``n = 10^7`` and beyond; no
per-agent observables).  The Monte-Carlo ``"action"`` mode and per-agent
payoff accounting inherently need agent identities and keep their
sequential loop on ``backend="agent"``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.igt import AgentType, GenerosityGrid, IGTRule
from repro.engine import (
    AgentBackend,
    build_engine,
    check_backend,
    igt_action_model,
    igt_model,
    make_law,
    resolve_backend,
)
from repro.games.repeated import RepeatedGameEngine
from repro.games.strategies import (
    MemoryOneStrategy,
    always_cooperate,
    always_defect,
    generous_tit_for_tat,
)
from repro.markov.ehrenfest import EhrenfestProcess
from repro.utils import as_generator, check_fraction, check_positive_int
from repro.utils.errors import InvalidParameterError

_MODES = ("strategy", "action", "strict")

#: Uniform GTFT start indices are drawn this many at a time, so the
#: count backend's setup stays O(k) in memory at any ``n``.  Below a
#: range of 2^32, numpy's bounded ``integers`` takes 32-bit values from
#: the bit generator, which keeps the spare half of each 64-bit output
#: in its own state: chunked draws return the values, and leave the
#: generator state, of one draw of all ``n_gtft`` indices.
_START_CHUNK = 1 << 20


@dataclass(frozen=True)
class PopulationShares:
    """The ``(α, β, γ)`` population composition (fractions sum to 1).

    Attributes
    ----------
    alpha:
        Fraction of Always-Cooperate agents.
    beta:
        Fraction of Always-Defect agents.
    gamma:
        Fraction of GTFT agents (must be positive for the dynamics to act).
    """

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        check_fraction("alpha", self.alpha)
        check_fraction("beta", self.beta)
        check_fraction("gamma", self.gamma)
        total = self.alpha + self.beta + self.gamma
        if abs(total - 1.0) > 1e-9:
            raise InvalidParameterError(
                f"alpha + beta + gamma must equal 1, got {total!r}")
        if self.gamma <= 0:
            raise InvalidParameterError(
                "gamma must be positive: with no GTFT agents the dynamics "
                "has nothing to update")

    @property
    def lam(self) -> float:
        """``λ = (1 − β)/β`` (Theorem 2.7); ``inf`` when ``β = 0``."""
        return float("inf") if self.beta == 0 else (1.0 - self.beta) / self.beta

    def agent_counts(self, n: int) -> tuple[int, int, int]:
        """Concrete integer counts ``(n_ac, n_ad, n_gtft)`` for ``n`` agents.

        Rounds ``α·n`` and ``β·n`` to the nearest integers and assigns the
        remainder to GTFT; raises if that leaves no GTFT agent.
        """
        n = check_positive_int("n", n, minimum=2)
        n_ac = round(self.alpha * n)
        n_ad = round(self.beta * n)
        n_gtft = n - n_ac - n_ad
        if n_gtft < 1:
            raise InvalidParameterError(
                f"population of n={n} leaves no GTFT agents for shares "
                f"({self.alpha}, {self.beta}, {self.gamma})")
        return n_ac, n_ad, n_gtft


class IGTSimulation:
    """Simulates the k-IGT dynamics at the level of individual agents.

    Parameters
    ----------
    n:
        Population size.
    shares:
        The ``(α, β, γ)`` composition.
    grid:
        Generosity grid ``G`` (provides ``k`` and ``ĝ``).
    seed:
        Seed or generator.
    mode:
        ``"strategy"`` (default), ``"action"``, or ``"strict"`` — see module
        docstring.
    setting:
        An :class:`~repro.core.equilibrium.RDSetting` (required for
        ``mode="action"`` and for payoff accounting; optional otherwise).
    track_payoffs:
        When true, accumulate each agent's *expected* game payoff per
        interaction (via the closed forms) into :attr:`total_payoffs`.
    initial_indices:
        Per-GTFT-agent initial grid indices; ``"uniform"`` (default) draws
        them uniformly from the grid, an integer places all agents there, or
        an explicit array of length ``n_gtft``.
    observation_noise:
        Probability that a GTFT initiator *misclassifies* its partner
        (AD read as non-AD and vice versa) in ``"strategy"``/``"strict"``
        modes.  The count chain remains an Ehrenfest process with blended
        rates (see :meth:`equivalent_ehrenfest`); at noise ``1/2`` the
        stationary law becomes uniform.  A robustness extension beyond the
        paper's noiseless rule.
    backend:
        ``"agent"`` (default) tracks every agent's state;  ``"count"``
        tracks only the count vector over ``{g_1..g_k, AC, AD}`` —
        distribution-identical and far faster at large ``n``.  Per-agent
        observables (``indices``, ``step``, per-agent payoffs) are
        unavailable there and the per-agent arrays (``types``,
        ``total_payoffs``, ``interactions_played``) are ``None``, but
        ``mode="action"`` and payoff accounting now run count-level too:
        the action rule becomes an exact per-pair classification law
        (:func:`repro.engine.igt_action_model`) and payoffs are
        accumulated per type pair (:meth:`mean_payoff_by_type`).
        ``"auto"`` dispatches between the engines from ``(n, mode)`` via
        :func:`repro.engine.resolve_backend`.
    weights:
        Optional per-agent activity weights — the heterogeneous-contact
        extension: the scheduler draws initiator and responder
        proportionally to weight (:class:`~repro.engine.sampling
        .WeightedScheduler`'s law) instead of uniformly.  Either a
        length-``n`` positive array aligned with the agent order
        ``[AC block, AD block, GTFT block]``, or a spec string accepted
        by :func:`repro.engine.weights_from_spec` (``"uniform"``,
        ``"powerlaw[:alpha]"``, ``"twoclass[:ratio]"``).  On
        ``backend="count"`` the simulation runs the exact
        ``(weight class × state)`` lift
        (:class:`~repro.engine.WeightedCountBackend`); ``"auto"``
        dispatches on the measured weighted crossover.
    topology:
        Optional interaction graph restricting which pairs may meet —
        the graph-restricted scheduler extension.  A spec string
        accepted by :func:`repro.engine.topology_from_spec`
        (``"complete"``, ``"ring[:w]"``, ``"grid[:rows]"``,
        ``"smallworld[:p]"``, ``"powerlaw[:alpha]"``), an
        :class:`~repro.engine.InteractionGraph` over the agent order
        ``[AC block, AD block, GTFT block]``, or an ``(E, 2)`` edge
        array.  ``"auto"`` then resolves to ``"agent"`` — the quenched
        process on the concrete graph; pinning ``backend="count"`` runs
        the degree-annealed chain instead and is accepted only for
        vertex-transitive graphs (irregular graphs refuse loudly).
        Mutually exclusive with non-uniform ``weights`` — the combined
        law is not defined here.
    """

    def __init__(self, n: int, shares: PopulationShares, grid: GenerosityGrid,
                 seed=None, mode: str = "strategy", setting=None,
                 track_payoffs: bool = False, initial_indices="uniform",
                 observation_noise: float = 0.0, backend: str = "agent",
                 weights=None, topology=None):
        if mode not in _MODES:
            raise InvalidParameterError(
                f"mode must be one of {_MODES}, got {mode!r}")
        self.n = check_positive_int("n", n, minimum=2)
        self.shares = shares
        self.grid = grid
        self.mode = mode
        self.rule = IGTRule(grid, strict=(mode == "strict"))
        self.setting = setting
        self._rng = as_generator(seed)
        self._law = law = make_law(self.n, weights, topology,
                                   seed=self._rng)
        check_backend(backend, allow_auto=True)
        self.backend = backend = resolve_backend(
            backend, n=self.n, mode=mode, weighted=law.weights is not None,
            graph_restricted=law.topology is not None)
        self.observation_noise = check_fraction("observation_noise",
                                                observation_noise)
        if self.observation_noise > 0 and mode != "strategy":
            raise InvalidParameterError(
                "observation_noise applies to mode='strategy' only "
                "(mode='action' derives its own noise from game play, and "
                "the strict rule's three-way classification makes a flipped "
                "binary reading ambiguous)")

        n_ac, n_ad, n_gtft = shares.agent_counts(n)
        self.n_ac, self.n_ad, self.n_gtft = n_ac, n_ad, n_gtft
        self._gtft_slice = slice(n_ac + n_ad, n)
        # Per-agent arrays exist only on the agent backend: the count
        # backend's whole point is O(k) state at n = 10^7+.
        self.types = None
        if backend == "agent":
            types = np.empty(n, dtype=np.int64)
            types[:n_ac] = AgentType.AC
            types[n_ac:n_ac + n_ad] = AgentType.AD
            types[n_ac + n_ad:] = AgentType.GTFT
            self.types = types

        k = grid.k
        # Per-agent layout [AC block, AD block, GTFT block].  The uniform
        # and graph count chains run on counts alone: an int64 state
        # array at n = 10^8 would cost 800 MB.
        states = None
        if backend == "agent" or law.weights is not None:
            states = np.empty(n, dtype=np.int64)
            states[:n_ac] = k
            states[n_ac:n_ac + n_ad] = k + 1
        gtft_states = None if states is None else states[self._gtft_slice]
        gtft_counts = np.zeros(k, dtype=np.int64)
        # The starts are the generator's first draws; the engine draws
        # after them, so moving this draw changes every seeded trajectory.
        if isinstance(initial_indices, str):
            if initial_indices != "uniform":
                raise InvalidParameterError(
                    f"unknown initial_indices spec {initial_indices!r}")
            for lo in range(0, n_gtft, _START_CHUNK):
                chunk = self._rng.integers(
                    0, k, size=min(_START_CHUNK, n_gtft - lo))
                gtft_counts += np.bincount(chunk, minlength=k)
                if gtft_states is not None:
                    gtft_states[lo:lo + chunk.size] = chunk
        elif np.isscalar(initial_indices):
            start = int(initial_indices)
            if not 0 <= start < k:
                raise InvalidParameterError(
                    f"initial index must lie in 0..{k - 1}, got {start}")
            gtft_counts[start] = n_gtft
            if gtft_states is not None:
                gtft_states[:] = start
        else:
            explicit = np.asarray(initial_indices, dtype=np.int64)
            if explicit.size != n_gtft:
                raise InvalidParameterError(
                    f"initial_indices must have length n_gtft={n_gtft}, "
                    f"got {explicit.size}")
            if explicit.min() < 0 or explicit.max() >= k:
                raise InvalidParameterError(
                    f"initial indices must lie in 0..{k - 1}")
            gtft_counts += np.bincount(explicit, minlength=k)
            if gtft_states is not None:
                gtft_states[:] = explicit

        # Engine view: states 0..k-1 are GTFT grid indices, k is AC, k+1
        # is AD (see repro.engine.adapters.igt_model).
        counts_full = np.zeros(k + 2, dtype=np.int64)
        counts_full[:k] = gtft_counts
        counts_full[k] = n_ac
        counts_full[k + 1] = n_ad

        self.track_payoffs = bool(track_payoffs)
        self.total_payoffs = np.zeros(n) if backend == "agent" else None
        self.interactions_played = (np.zeros(n, dtype=np.int64)
                                    if backend == "agent" else None)
        self._payoff_matrix = None
        self._game_engine = None
        if self.track_payoffs or mode == "action":
            if setting is None:
                raise InvalidParameterError(
                    "an RDSetting is required for payoff tracking and for "
                    "mode='action'")
            if self.track_payoffs:
                from repro.core.equilibrium import payoff_table
                self._payoff_matrix = payoff_table(grid, setting)
            if mode == "action" and backend == "agent":
                self._game_engine = RepeatedGameEngine(setting.game,
                                                       setting.delta)

        self._model = None
        if mode != "action":
            self._model = igt_model(k, mode=mode,
                                    observation_noise=self.observation_noise)
        elif backend == "count":
            # Count-level action mode: the exact per-pair classification
            # law replaces Monte-Carlo game play (same distribution).
            self._model = igt_action_model(grid, setting)
        self._agent_states = states if backend == "agent" else None
        self._engine = None
        self._counts_full = counts_full
        if backend == "count":
            self._engine = build_engine(
                self._model, law, backend, states=states,
                counts=counts_full, track_pair_counts=self.track_payoffs)
            self._counts_full = self._engine.counts_live
        self._counts = self._counts_full[:k]
        self.steps_run = 0

    @property
    def _step_loop_required(self) -> bool:
        """Whether runs must go through the per-step Python loop.

        Only the agent backend's Monte-Carlo game play and per-agent
        payoff bookkeeping need it; the count backend folds both into
        its engine (exact classification law + pair-count accounting).
        """
        return self.backend == "agent" and (self.mode == "action"
                                            or self.track_payoffs)

    def _ensure_engine(self) -> AgentBackend:
        """The lazily built agent engine (shares states, counts, and rng)."""
        if self._engine is None:
            self._engine = build_engine(self._model, self._law, "agent",
                                        states=self._agent_states)
            # Adopt the engine's count vector so step() and engine runs
            # mutate the same storage.
            self._counts_full = self._engine.counts_live
            self._counts = self._counts_full[:self.grid.k]
        return self._engine

    # ------------------------------------------------------------------
    # Observables
    # ------------------------------------------------------------------
    @property
    def counts(self) -> np.ndarray:
        """Current count vector ``z`` over the ``k`` generosity indices."""
        return self._counts.copy()

    def empirical_mu(self) -> np.ndarray:
        """Empirical distribution ``µ_t = z_t / m`` over the grid."""
        return self._counts / self.n_gtft

    def average_generosity(self) -> float:
        """Average generosity ``(1/m)·Σ_j g_j z_j`` of the GTFT population."""
        return float(self.grid.values @ self._counts) / self.n_gtft

    def _require_agent_states(self) -> np.ndarray:
        if self._agent_states is None:
            raise InvalidParameterError(
                "per-agent observables are not tracked by backend='count'; "
                "use backend='agent'")
        return self._agent_states

    @property
    def indices(self) -> np.ndarray:
        """Per-agent grid indices (0 for non-GTFT agents; copy)."""
        states = self._require_agent_states()
        masked = states.copy()
        masked[:self._gtft_slice.start] = 0
        return masked

    def gtft_indices(self) -> np.ndarray:
        """Grid indices of the GTFT agents (copy)."""
        return self._require_agent_states()[self._gtft_slice].copy()

    def _strategy_id(self, agent: int) -> int:
        """Internal strategy id: grid index for GTFT, k for AC, k+1 for AD.

        Identical to the agent's engine state (the engine uses the same
        ``{g_1..g_k, AC, AD}`` encoding).
        """
        return int(self._require_agent_states()[agent])

    def strategy_of(self, agent: int) -> MemoryOneStrategy:
        """The concrete memory-one strategy an agent currently plays."""
        self._require_agent_states()
        t = self.types[agent]
        if t == AgentType.AC:
            return always_cooperate()
        if t == AgentType.AD:
            return always_defect()
        s1 = self.setting.s1 if self.setting is not None else 1.0
        return generous_tit_for_tat(
            self.grid.value(int(self._require_agent_states()[agent])), s1)

    # ------------------------------------------------------------------
    # Dynamics
    # ------------------------------------------------------------------
    def _classify_by_actions(self, initiator: int, responder: int) -> AgentType:
        """Play a real game and classify the responder from its actions."""
        record = self._game_engine.play(self.strategy_of(initiator),
                                        self.strategy_of(responder),
                                        seed=self._rng)
        if self.track_payoffs:
            self.total_payoffs[initiator] += record.first_payoff
            self.total_payoffs[responder] += record.second_payoff
        return (AgentType.AD if record.opponent_always_defected()
                else AgentType.GTFT)

    def step(self) -> None:
        """Execute a single scheduled interaction (``backend="agent"``).

        The pair is drawn through the simulation's pair law, so
        weighted populations step with the weighted law (and uniform
        ones bit-for-bit like the pre-scheduler code path).
        """
        self._require_agent_states()
        i, j = self._law.next_pair()
        self._interact(i, j)
        self.steps_run += 1

    def _interact(self, i: int, j: int) -> None:
        states = self._agent_states
        if self.track_payoffs and self._payoff_matrix is not None \
                and self.mode != "action":
            si, sj = int(states[i]), int(states[j])
            self.total_payoffs[i] += self._payoff_matrix[si, sj]
            self.total_payoffs[j] += self._payoff_matrix[sj, si]
            self.interactions_played[i] += 1
            self.interactions_played[j] += 1
        if self.types[i] != AgentType.GTFT:
            return
        if self.mode == "action":
            observed = self._classify_by_actions(i, j)
            self.interactions_played[i] += 1
            self.interactions_played[j] += 1
        else:
            observed = AgentType(int(self.types[j]))
            if self.observation_noise > 0 \
                    and self._rng.random() < self.observation_noise:
                observed = (AgentType.GTFT if observed == AgentType.AD
                            else AgentType.AD)
        old = int(states[i])
        new = self.rule.next_index(old, observed)
        if new != old:
            states[i] = new
            self._counts[old] -= 1
            self._counts[new] += 1

    def run(self, steps: int, observe_every: int | None = None,
            observe=None) -> np.ndarray | None:
        """Run ``steps`` interactions.

        With ``observe_every`` set, returns the count-vector trajectory
        (including the initial state) sampled at that cadence; otherwise
        returns ``None``.  ``observe`` redirects the observations to an
        :class:`~repro.engine.observe.ObserverSink` (or spec string) —
        the sink sees the engine's *full* count vector (generosity
        indices plus AC/AD) and the method returns ``None`` for sinks
        that retain no in-memory series.

        Note on randomness: the engine draws scheduler randomness in
        vectorized blocks (and the count backend in birthday batches), so a
        ``run(n)`` call and ``n`` individual ``step()`` calls consume the
        generator differently — both sample the same process law, but their
        trajectories under a shared seed are not bitwise identical.
        """
        steps = check_positive_int("steps", steps, minimum=0)
        if self._step_loop_required:
            if observe is not None:
                raise InvalidParameterError(
                    "observe= sinks are an engine-path feature; the "
                    "per-step game-play/payoff loop records in RAM only")
            # Sequential loop: per-step game play / payoff bookkeeping.
            recorded = None
            row = 1
            if observe_every is not None:
                observe_every = check_positive_int("observe_every",
                                                   observe_every)
                recorded = np.empty((steps // observe_every + 1,
                                     self.grid.k), dtype=np.int64)
                recorded[0] = self._counts
            for s in range(steps):
                self.step()
                if observe_every is not None \
                        and (s + 1) % observe_every == 0:
                    recorded[row] = self._counts
                    row += 1
            return recorded[:row] if recorded is not None else None

        # Engine path (strategy/strict modes, including observation noise).
        engine = self._ensure_engine()
        engine.steps_run = self.steps_run
        result = engine.run(steps, observe_every=observe_every,
                            observe=observe)
        self.steps_run = result.steps
        if observe_every is None or not result.observations:
            return None
        return np.stack([counts[:self.grid.k]
                         for _, counts in result.observations])

    def run_until(self, max_steps: int, stop_when,
                  check_stop_every: int | None = None,
                  observe_every: int | None = None, observe=None) -> bool:
        """Run until ``stop_when(z)`` holds on the generosity count vector.

        ``stop_when`` receives the length-``k`` count vector over the
        generosity indices (the :attr:`counts` view) and is evaluated
        every ``check_stop_every`` interactions (default ``~sqrt(n)``;
        the engines batch *across* check boundaries, so the cadence only
        sets how often the Python predicate runs).  Returns whether the
        predicate fired within ``max_steps``; :attr:`steps_run` advances
        to the firing check point (a multiple of the cadence) or by
        ``max_steps``.  ``stop_when`` may be ``None`` to run the full
        budget (useful with ``observe_every``/``observe``, which stream
        the engine's full count vector to an observer sink at the given
        cadence — the signature :func:`~repro.engine.snapshot
        .run_resumable` drives for resumable streamed runs).
        """
        steps = check_positive_int("max_steps", max_steps, minimum=0)
        if check_stop_every is None:
            check_stop_every = max(1, int(self.n ** 0.5))
        else:
            check_stop_every = check_positive_int("check_stop_every",
                                                  check_stop_every)
        if self._step_loop_required:
            if observe is not None or observe_every is not None:
                raise InvalidParameterError(
                    "observe= sinks are an engine-path feature; the "
                    "per-step game-play/payoff loop cannot stream")
            if stop_when is None:
                raise InvalidParameterError(
                    "run_until without stop_when needs the engine path")
            for s in range(steps):
                self.step()
                if (s + 1) % check_stop_every == 0 \
                        and stop_when(self._counts):
                    return True
            return False
        k = self.grid.k
        engine = self._ensure_engine()
        engine.steps_run = self.steps_run
        result = engine.run(steps,
                            stop_when=None if stop_when is None
                            else lambda full: stop_when(full[:k]),
                            check_stop_every=check_stop_every,
                            observe_every=observe_every, observe=observe)
        self.steps_run = result.steps
        return result.converged

    # ------------------------------------------------------------------
    # Snapshot / restore (crash-safety; see repro.engine.snapshot)
    # ------------------------------------------------------------------
    def snapshot(self):
        """Exact engine-level state between runs (crash-safety capture).

        Valid on the engine execution paths (everything except the
        agent backend's per-step game-play/payoff loop).  The returned
        :class:`~repro.engine.snapshot.SnapshotState` restores into a
        freshly constructed simulation with identical arguments via
        :meth:`restore`, after which continued runs are byte-identical
        to this simulation continuing.
        """
        if self._step_loop_required:
            raise InvalidParameterError(
                "snapshot/restore is an engine-path feature; the agent "
                "backend's per-step game-play/payoff loop is not "
                "resumable — use backend='count' (exact classification "
                "law + pair-count payoffs) for crash-safe long runs")
        engine = self._ensure_engine()
        engine.steps_run = self.steps_run
        return engine.snapshot()

    def restore(self, snapshot) -> None:
        """Adopt a snapshot taken by an identically constructed simulation.

        The engine's arrays are restored in place, so every facade
        alias (:attr:`counts`, the full count vector, per-agent states
        on the agent backend) tracks the restored state, and the shared
        generator rewinds to the captured bitstream position.
        """
        if self._step_loop_required:
            raise InvalidParameterError(
                "snapshot/restore is an engine-path feature; the agent "
                "backend's per-step game-play/payoff loop is not "
                "resumable")
        engine = self._ensure_engine()
        engine.restore(snapshot)
        self.steps_run = engine.steps_run

    def mean_payoff_per_interaction(self) -> np.ndarray:
        """Average accumulated payoff per played interaction for each agent."""
        self._require_agent_states()
        with np.errstate(invalid="ignore", divide="ignore"):
            means = np.where(self.interactions_played > 0,
                             self.total_payoffs / np.maximum(self.interactions_played, 1),
                             0.0)
        return means

    def pair_counts(self) -> np.ndarray:
        """Executed interactions per ordered engine-state pair (count backend).

        The ``(k+2, k+2)`` matrix the count backend accumulates when
        payoffs are tracked; the payoff observables below are linear
        functionals of it.
        """
        if self.backend != "count" or self._engine is None:
            raise InvalidParameterError(
                "pair counts are a count-backend observable; use "
                "backend='count' with track_payoffs=True")
        return self._engine.pair_counts

    def mean_payoff_by_type(self) -> dict:
        """Mean payoff per played interaction for each agent *type*.

        The backend-independent payoff observable: a dict over ``"GTFT"``
        / ``"AC"`` / ``"AD"``.  On the agent backend it aggregates the
        per-agent accumulators; on the count backend it contracts the
        per-type-pair interaction counts against the exact expected
        payoff table — in ``mode="action"`` only interactions initiated
        by a GTFT agent count (only those play a game), matching the
        agent backend's accounting.  Types that played no interaction
        report ``0.0``.
        """
        if not self.track_payoffs:
            raise InvalidParameterError(
                "payoff observables need track_payoffs=True")
        k = self.grid.k
        if self.backend == "agent":
            totals = np.zeros(3)
            plays = np.zeros(3)
            for slot, agent_type in enumerate(
                    (AgentType.GTFT, AgentType.AC, AgentType.AD)):
                mask = self.types == agent_type
                totals[slot] = self.total_payoffs[mask].sum()
                plays[slot] = self.interactions_played[mask].sum()
        else:
            pair_counts = self._engine.pair_counts.astype(float)
            payoffs = self._payoff_matrix
            state_totals = np.zeros(k + 2)
            state_plays = np.zeros(k + 2)
            if self.mode == "action":
                # Games are played only when the initiator is GTFT.
                initiated = pair_counts[:k]
                state_totals[:k] += (initiated * payoffs[:k]).sum(axis=1)
                state_totals += (initiated * payoffs[:, :k].T).sum(axis=0)
                state_plays[:k] += initiated.sum(axis=1)
                state_plays += initiated.sum(axis=0)
            else:
                state_totals += (pair_counts * payoffs).sum(axis=1)
                state_totals += (pair_counts * payoffs.T).sum(axis=0)
                state_plays += pair_counts.sum(axis=1)
                state_plays += pair_counts.sum(axis=0)
            totals = np.array([state_totals[:k].sum(), state_totals[k],
                               state_totals[k + 1]])
            plays = np.array([state_plays[:k].sum(), state_plays[k],
                              state_plays[k + 1]])
        means = np.divide(totals, plays, out=np.zeros(3),
                          where=plays > 0)
        return {"GTFT": float(means[0]), "AC": float(means[1]),
                "AD": float(means[2])}

    # ------------------------------------------------------------------
    # Ehrenfest embedding (Section 2.2.1)
    # ------------------------------------------------------------------
    def equivalent_ehrenfest(self, exact: bool = True) -> EhrenfestProcess:
        """The Ehrenfest process the count chain ``{z_t}`` follows.

        With ``exact=False`` returns the paper's idealized parameters
        ``a = γ(1−β), b = γβ, m = γn`` (eq. 5).  With ``exact=True``
        (default) the finite-population sampling correction is applied: the
        responder is drawn from the *other* ``n − 1`` agents, so conditioned
        on a GTFT initiator with index ``j`` (probability ``z_j/n``), the
        decrement probability is ``n_ad/(n−1)``, giving

        ``a = (m/n)·(n−1−n_ad)/(n−1)``,  ``b = (m/n)·n_ad/(n−1)``

        and the exact stationary bias ``λ = (n−1−n_ad)/n_ad`` — an
        ``O(1/n)`` correction to ``(1−β)/β`` that matters for the small
        populations used in exact validation.

        Under a weighted scheduler (``weights=``) the count chain is
        still an Ehrenfest process *when all GTFT agents share one
        activity weight* ``w_g`` (heterogeneous GTFT weights give each
        agent its own bias; the aggregate is then a mixture, not a
        single Ehrenfest chain — an error here).  With ``W`` the total
        weight and ``W_ad`` the AD weight mass, a GTFT initiator reads
        AD with probability ``W_ad/(W − w_g)`` and initiates at rate
        ``m·w_g/W``, so ``β̂ = W_ad/(W − w_g)``, ``scale = m·w_g/W``,
        and the stationary bias becomes ``λ_w = (W − w_g − W_ad)/W_ad``
        — the activity-share generalization of the uniform formula
        (equal weights recover it exactly).  Requires ``exact=True``.
        """
        if self.mode == "strict":
            raise InvalidParameterError(
                "the strict variant has its own embedding; use "
                "strict_equivalent_ehrenfest()")
        weights = self._law.weights
        if self._law.topology is not None:
            raise InvalidParameterError(
                "the Ehrenfest embedding assumes the complete-graph "
                "(uniform) scheduler; on an interaction graph each GTFT "
                "agent carries its own AD-neighbor bias, so the count "
                "chain is a product of per-agent walks, not one "
                "Ehrenfest process (the E6 topology variant computes "
                "that per-vertex quenched theory)")
        m = self.n_gtft
        if weights is not None:
            if not exact:
                raise InvalidParameterError(
                    "the idealized (exact=False) embedding assumes the "
                    "uniform scheduler; weighted populations use "
                    "exact=True")
            gtft_weights = weights[self._gtft_slice]
            if not np.allclose(gtft_weights, gtft_weights[0]):
                raise InvalidParameterError(
                    "the weighted Ehrenfest embedding needs all GTFT "
                    "agents to share one activity weight; heterogeneous "
                    "GTFT weights mix per-agent biases")
            total_weight = float(weights.sum())
            ad_weight = float(weights[self.n_ac:self.n_ac + self.n_ad].sum())
            if ad_weight == 0 and self.observation_noise == 0:
                raise InvalidParameterError(
                    "the Ehrenfest embedding needs b > 0, i.e. at least "
                    "one AD agent (or positive observation noise)")
            w_gtft = float(gtft_weights[0])
            beta_hat = ad_weight / (total_weight - w_gtft)
            up = 1.0 - beta_hat
            down = beta_hat
        elif exact:
            if self.n_ad == 0 and self.observation_noise == 0:
                raise InvalidParameterError(
                    "the Ehrenfest embedding needs b > 0, i.e. at least one "
                    "AD agent (or positive observation noise)")
            beta_hat = self.n_ad / (self.n - 1)
            up = 1.0 - beta_hat
            down = beta_hat
        else:
            if self.shares.beta == 0 and self.observation_noise == 0:
                raise InvalidParameterError(
                    "the Ehrenfest embedding needs beta > 0 (or positive "
                    "observation noise)")
            up = 1.0 - self.shares.beta
            down = self.shares.beta
        # Observation noise flips the AD/non-AD reading with probability
        # eps, blending the increment/decrement rates; the count chain stays
        # an Ehrenfest process.
        eps = self.observation_noise
        up_eff = (1.0 - eps) * up + eps * down
        down_eff = (1.0 - eps) * down + eps * up
        if weights is not None:
            scale = m * w_gtft / total_weight
        else:
            scale = m / self.n if exact else self.shares.gamma
        a = scale * up_eff
        b = scale * down_eff
        if a <= 0 or b <= 0:
            raise InvalidParameterError(
                "degenerate embedding: both increment and decrement rates "
                "must be positive")
        return EhrenfestProcess(k=self.grid.k, a=a, b=b, m=m)

    def strict_equivalent_ehrenfest(self) -> EhrenfestProcess:
        """Ehrenfest embedding of the *strict* variant.

        Increments fire only on GTFT partners: conditioned on a GTFT
        initiator the increment probability is ``(m−1)/(n−1)`` (the other
        GTFT agents) and the decrement probability ``n_ad/(n−1)``, so
        ``λ_strict = (m−1)/n_ad`` — strictly below the standard rule's bias
        whenever AC agents exist.
        """
        if self._law.weights is not None:
            raise InvalidParameterError(
                "the strict embedding is derived for the uniform "
                "scheduler; weighted populations are not supported here")
        if self._law.topology is not None:
            raise InvalidParameterError(
                "the strict embedding is derived for the complete-graph "
                "scheduler; graph-restricted populations are not "
                "supported here")
        m = self.n_gtft
        if self.n_ad == 0 or m < 2:
            raise InvalidParameterError(
                "strict embedding needs at least one AD and two GTFT agents")
        a = (m / self.n) * (m - 1) / (self.n - 1)
        b = (m / self.n) * self.n_ad / (self.n - 1)
        return EhrenfestProcess(k=self.grid.k, a=a, b=b, m=m)
