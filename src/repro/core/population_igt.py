"""Agent-level k-IGT dynamics on ``(α, β, γ)`` populations.

This is the paper's actual protocol: ``n`` agents with fixed strategy types
(AC / AD / GTFT in fractions ``α / β / γ``); at each step an ordered pair of
distinct agents is scheduled uniformly at random, the pair plays a repeated
donation game, and a GTFT *initiator* then updates its generosity index by
the k-IGT rule.  Three observation modes are supported:

* ``"strategy"`` (Definition 2.1) — the initiator reads its partner's true
  strategy type.
* ``"action"`` (Remark, Section 2.2) — the initiator classifies its
  partner as AD iff it defected in every round of their δ-repeated game.
  That event's probability depends only on the two strategies, so the
  rule runs as the exact per-pair classification law
  (:func:`repro.engine.igt_action_model`).  For large δ it coincides
  with the strategy rule with high probability.
* ``"strict"`` (Remark after Proposition 2.2) — like ``"strategy"`` but AC
  partners do not trigger an increment.

The count vector over generosity indices is exactly a
``(k, a, b, m)``-Ehrenfest process (Section 2.2.1); the embedding — with
both the paper's idealized parameters and the exact finite-``n`` sampling
corrections — is exposed via :meth:`IGTSimulation.equivalent_ehrenfest`.

Execution is delegated to the engine layer (:mod:`repro.engine`): the
dynamics is declared once as a ``k + 2``-state interaction model
(:func:`repro.engine.igt_model`, or :func:`~repro.engine.igt_action_model`
in ``"action"`` mode) and run on the backend selected by the
``backend=`` knob — ``"agent"`` (per-agent states, trajectories bit-for-bit
identical to the pre-engine fast path under a fixed seed) or ``"count"``
(exact count-level simulation, practical up to ``n = 10^7`` and beyond; no
per-agent observables).  Payoffs are accounted per type pair on either
backend (:meth:`IGTSimulation.mean_payoff_by_type`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.igt import GenerosityGrid
from repro.engine import (
    build_engine,
    check_backend,
    igt_action_model,
    igt_model,
    make_law,
    resolve_backend,
)
from repro.games.strategies import (
    MemoryOneStrategy,
    always_cooperate,
    always_defect,
    generous_tit_for_tat,
)
from repro.markov.ehrenfest import EhrenfestProcess
from repro.utils import (
    as_generator,
    check_fraction,
    check_int_array,
    check_positive_int,
)
from repro.utils.errors import InvalidParameterError

_MODES = ("strategy", "action", "strict")

#: Per-agent uniform GTFT start indices (agent and weighted paths) are
#: drawn this many at a time.  Below a range of 2^32, numpy's bounded
#: ``integers`` takes 32-bit values from the bit generator, which keeps
#: the spare half of each 64-bit output in its own state: chunked draws
#: return the values, and leave the generator state, of one draw of all
#: ``n_gtft`` indices.
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

    def idealized_rates(self) -> tuple[float, float]:
        """The paper's idealized embedding rates ``a = γ(1−β)``, ``b = γβ``.

        Eq. (5): a GTFT initiator is drawn with probability ``γ`` and
        meets an AD partner with probability ``β``.
        """
        return self.gamma * (1.0 - self.beta), self.gamma * self.beta

    def finite_n_rates(self, n: int) -> tuple[float, float]:
        """The exact embedding rates ``(a, b)`` of ``n`` agents.

        The responder is drawn from the *other* ``n − 1`` agents, so a
        GTFT initiator (probability ``m/n``) meets AD with probability
        ``β̂ = n_ad/(n−1)``: ``a = (m/n)(1 − β̂)`` and ``b = (m/n)·β̂``.
        The stationary bias ``λ = (n−1−n_ad)/n_ad`` is an ``O(1/n)``
        correction to ``(1−β)/β``.
        """
        _, n_ad, m = self.agent_counts(n)
        beta_hat = n_ad / (n - 1)
        return (m / n) * (1.0 - beta_hat), (m / n) * beta_hat


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
        When true, count executed interactions per ordered engine-state
        pair (:meth:`pair_counts`); :meth:`mean_payoff_by_type`
        contracts them against the exact expected-payoff table.
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
        observables (``indices``, ``strategy_of``) are unavailable
        there; every mode and payoff accounting run on both.
        ``"auto"`` dispatches between the engines from ``n`` via
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
        self.setting = setting
        self._rng = as_generator(seed)
        self._law = law = make_law(self.n, weights, topology,
                                   seed=self._rng)
        check_backend(backend, allow_auto=True)
        self.backend = backend = resolve_backend(
            backend, n=self.n, weighted=law.weights is not None,
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

        k = grid.k
        self.track_payoffs = bool(track_payoffs)
        self._payoff_matrix = None
        if self.track_payoffs or mode == "action":
            if setting is None:
                raise InvalidParameterError(
                    "an RDSetting is required for payoff tracking and for "
                    "mode='action'")
            if self.track_payoffs:
                from repro.core.equilibrium import payoff_table
                self._payoff_matrix = payoff_table(grid, setting)

        if mode == "action":
            self._model = igt_action_model(grid, setting)
        else:
            self._model = igt_model(k, mode=mode,
                                    observation_noise=self.observation_noise)

        # Per-agent layout [AC block, AD block, GTFT block], in the
        # engine's state dtype.  The uniform and graph count chains run
        # on counts alone: no state array at n = 10^8.
        states = None
        if backend == "agent" or law.weights is not None:
            states = np.empty(n, dtype=self._model.state_dtype)
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
            if gtft_states is None:
                # Counts alone: the histogram of n_gtft uniform indices
                # is one multinomial draw, O(k) at any n.
                gtft_counts = self._rng.multinomial(n_gtft,
                                                    np.full(k, 1.0 / k))
            else:
                for lo in range(0, n_gtft, _START_CHUNK):
                    chunk = self._rng.integers(
                        0, k, size=min(_START_CHUNK, n_gtft - lo))
                    gtft_counts += np.bincount(chunk, minlength=k)
                    gtft_states[lo:lo + chunk.size] = chunk
        elif np.isscalar(initial_indices):
            start = check_positive_int("initial_indices", initial_indices,
                                       minimum=0)
            if start >= k:
                raise InvalidParameterError(
                    f"initial index must lie in 0..{k - 1}, got {start}")
            gtft_counts[start] = n_gtft
            if gtft_states is not None:
                gtft_states[:] = start
        else:
            explicit = check_int_array("initial_indices", initial_indices)
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

        self._engine = build_engine(
            self._model, law, backend, states=states, counts=counts_full,
            track_pair_counts=self.track_payoffs)
        self._counts_full = self._engine.counts_live
        self._counts = self._counts_full[:k]

    @property
    def steps_run(self) -> int:
        """Interactions executed so far."""
        return self._engine.steps_run

    # ------------------------------------------------------------------
    # Observables
    # ------------------------------------------------------------------
    @property
    def counts(self) -> np.ndarray:
        """Current count vector ``z`` over the ``k`` generosity indices."""
        return self._counts.copy()

    @property
    def counts_live(self) -> np.ndarray:
        """The live engine count vector over ``{g_1..g_k, AC, AD}`` (all
        ``n`` agents; an alias — do not resize or write it)."""
        return self._counts_full

    def empirical_mu(self) -> np.ndarray:
        """Empirical distribution ``µ_t = z_t / m`` over the grid."""
        return self._counts / self.n_gtft

    def average_generosity(self) -> float:
        """Average generosity ``(1/m)·Σ_j g_j z_j`` of the GTFT population."""
        return float(self.grid.values @ self._counts) / self.n_gtft

    def _require_agent_states(self) -> np.ndarray:
        """The agent engine's live per-agent states."""
        if self.backend != "agent":
            raise InvalidParameterError(
                "per-agent observables are not tracked by backend='count'; "
                "use backend='agent'")
        return self._engine.states_live

    @property
    def indices(self) -> np.ndarray:
        """Per-agent grid indices (0 for non-GTFT agents; int64 copy)."""
        masked = self._require_agent_states().astype(np.int64)
        masked[:self._gtft_slice.start] = 0
        return masked

    def gtft_indices(self) -> np.ndarray:
        """Grid indices of the GTFT agents (``int64`` copy)."""
        return self._require_agent_states()[self._gtft_slice].astype(
            np.int64)

    def strategy_of(self, agent: int) -> MemoryOneStrategy:
        """The concrete memory-one strategy an agent currently plays."""
        state = int(self._require_agent_states()[agent])
        k = self.grid.k
        if state == k:
            return always_cooperate()
        if state == k + 1:
            return always_defect()
        s1 = self.setting.s1 if self.setting is not None else 1.0
        return generous_tit_for_tat(self.grid.value(state), s1)

    # ------------------------------------------------------------------
    # Dynamics
    # ------------------------------------------------------------------
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
        """
        steps = check_positive_int("steps", steps, minimum=0)
        result = self._engine.run(steps, observe_every=observe_every,
                                  observe=observe)
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
        k = self.grid.k
        result = self._engine.run(
            steps,
            stop_when=None if stop_when is None
            else lambda full: stop_when(full[:k]),
            check_stop_every=check_stop_every,
            observe_every=observe_every, observe=observe)
        return result.converged

    # ------------------------------------------------------------------
    # Snapshot / restore (crash-safety; see repro.engine.snapshot)
    # ------------------------------------------------------------------
    def snapshot(self):
        """Exact engine-level state between runs (crash-safety capture).

        The returned :class:`~repro.engine.snapshot.SnapshotState`
        restores into a freshly constructed simulation with identical
        arguments via :meth:`restore`, after which continued runs are
        byte-identical to this simulation continuing.
        """
        return self._engine.snapshot()

    def restore(self, snapshot) -> None:
        """Adopt a snapshot taken by an identically constructed simulation.

        The engine's arrays are restored in place, so every facade
        alias (:attr:`counts`, the full count vector, per-agent states
        on the agent backend) tracks the restored state, and the shared
        generator rewinds to the captured bitstream position.
        """
        self._engine.restore(snapshot)

    def pair_counts(self) -> np.ndarray:
        """Executed interactions per ordered engine-state pair.

        The ``(k+2, k+2)`` matrix the engine accumulates when payoffs
        are tracked; the payoff observables below are linear
        functionals of it.
        """
        if not self.track_payoffs:
            raise InvalidParameterError(
                "pair counts need track_payoffs=True")
        return self._engine.pair_counts

    def mean_payoff_by_type(self) -> dict:
        """Mean payoff per played interaction for each agent *type*.

        The payoff observable of both backends: a dict over ``"GTFT"``
        / ``"AC"`` / ``"AD"``, contracting the per-type-pair interaction
        counts against the exact expected payoff table.  In
        ``mode="action"`` only interactions initiated by a GTFT agent
        count (only those play a game).  Types that played no
        interaction report ``0.0``.
        """
        if not self.track_payoffs:
            raise InvalidParameterError(
                "payoff observables need track_payoffs=True")
        k = self.grid.k
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
        responder is drawn from the *other* ``n − 1`` agents, so
        ``a = (m/n)·(1 − β̂)`` and ``b = (m/n)·β̂`` with
        ``β̂ = n_ad/(n−1)``, and the exact stationary bias is
        ``λ = (n−1−n_ad)/n_ad`` — an ``O(1/n)`` correction to
        ``(1−β)/β`` that matters for the small populations used in exact
        validation.  Both come from :class:`PopulationShares`
        (:meth:`~PopulationShares.idealized_rates`,
        :meth:`~PopulationShares.finite_n_rates`).  Observation
        noise ``ε`` flips the AD / non-AD reading, so the count chain
        stays an Ehrenfest process with the blended rates
        ``((1−ε)a + εb, (1−ε)b + εa)``.

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

        In ``mode="strict"`` increments fire only on GTFT partners:
        conditioned on a GTFT initiator the increment probability is
        ``(m−1)/(n−1)`` (the other GTFT agents) and the decrement
        probability the standard ``n_ad/(n−1)``, so
        ``λ_strict = (m−1)/n_ad`` — strictly below the standard rule's
        bias whenever AC agents exist.  Uniform scheduler and
        ``exact=True`` only.  ``mode="action"`` is refused: its
        decrement probability depends on both players' strategies, so
        its count chain is not an Ehrenfest process.
        """
        if self.mode == "action":
            raise InvalidParameterError(
                "mode='action' has no Ehrenfest embedding: the decrement "
                "probability depends on both players' strategies, not on "
                "the counts alone")
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
        if self.mode == "strict":
            if weights is not None:
                raise InvalidParameterError(
                    "the strict embedding is derived for the uniform "
                    "scheduler; weighted populations are not supported here")
            if not exact:
                raise InvalidParameterError(
                    "the strict embedding has finite-n rates only; use "
                    "exact=True")
            if self.n_ad == 0 or m < 2:
                raise InvalidParameterError(
                    "strict embedding needs at least one AD and two GTFT "
                    "agents")
            _, b = self.shares.finite_n_rates(self.n)
            a = (m / self.n) * (m - 1) / (self.n - 1)
            return EhrenfestProcess(k=self.grid.k, a=a, b=b, m=m)
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
            scale = m * w_gtft / total_weight
            a, b = scale * (1.0 - beta_hat), scale * beta_hat
        elif exact:
            if self.n_ad == 0 and self.observation_noise == 0:
                raise InvalidParameterError(
                    "the Ehrenfest embedding needs b > 0, i.e. at least one "
                    "AD agent (or positive observation noise)")
            a, b = self.shares.finite_n_rates(self.n)
        else:
            if self.shares.beta == 0 and self.observation_noise == 0:
                raise InvalidParameterError(
                    "the Ehrenfest embedding needs beta > 0 (or positive "
                    "observation noise)")
            a, b = self.shares.idealized_rates()
        eps = self.observation_noise
        a, b = (1.0 - eps) * a + eps * b, (1.0 - eps) * b + eps * a
        if a <= 0 or b <= 0:
            raise InvalidParameterError(
                "degenerate embedding: both increment and decrement rates "
                "must be positive")
        return EhrenfestProcess(k=self.grid.k, a=a, b=b, m=m)
