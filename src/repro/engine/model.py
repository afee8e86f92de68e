"""Interaction models: the *what happens when a pair meets* layer.

An :class:`InteractionModel` is the count-level description of a pairwise
interaction system: a finite per-agent state space of size ``S`` and a
(possibly stochastic) map from the sampled agents' states to the initiator
and responder's new states.  Crucially a model depends on the participants
only through their *states* — never their identities — which is exactly the
anonymity assumption of the population-protocol model and what makes the
count vector a Markov chain (the paper's Section 2.2.1 embedding argument).

Protocols and games declare their transition law **once** as a model;
the engines in :mod:`repro.engine.agent` and :mod:`repro.engine.count`
then own scheduling, stop predicates, and observation.

Concrete models:

* :class:`TableModel` — a deterministic joint transition table
  ``(S, S, 2)``, the classic ``δ`` of a population protocol.
* :class:`MixtureTableModel` — per interaction, one of several tables is
  applied with fixed probabilities (noisy observation channels, lazy /
  probabilistic update rules such as best-response-with-probability-p).
* :class:`LogitResponseModel` — the initiator resamples its strategy from
  the softmax of the payoffs against the responder (smoothed best response).
* :class:`ImitationModel` — pairwise-comparison imitation; reads the states
  of two extra uniformly sampled "opponent" agents per interaction
  (``slots_per_step = 4``).
* :class:`PairMixtureTableModel` — per interaction, one of two tables is
  applied with a probability depending on the *pair of states*; this is
  the engine form of the action-observed k-IGT rule, where the
  chance of classifying a partner as AD is an exact function of both
  players' strategies.

Models additionally advertise two structural facts the vectorized kernel
exploits: :attr:`InteractionModel.one_way` (the responder never changes
state) and :attr:`InteractionModel.inert_states` (states whose initiator
row is the identity, so their interactions are no-ops).  Engines hold
per-agent states in :attr:`InteractionModel.state_dtype`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.utils import check_int_array, check_probability_vector
from repro.utils.errors import InvalidParameterError

#: Agents per :func:`count_states` slice: ``np.bincount`` widens its
#: input to ``intp``, which slicing keeps cache-sized.
COUNT_SLICE = 1 << 16


def count_states(states: np.ndarray, n_states: int) -> np.ndarray:
    """The ``int64`` histogram of states in ``0..n_states - 1``."""
    counts = np.zeros(n_states, dtype=np.int64)
    for lo in range(0, states.size, COUNT_SLICE):
        counts += np.bincount(states[lo:lo + COUNT_SLICE],
                              minlength=n_states)
    return counts


def _check_table(table, n_states=None) -> np.ndarray:
    """Validate a joint transition table and return an ``int64`` copy.

    Entries pass by :func:`~repro.utils.check_int_array`'s rule: bools,
    NaN and non-integral values are refused, not truncated by a cast.
    """
    table = np.array(table)  # the model's own: caller edits cannot leak
    if table.ndim != 3 or table.shape[2] != 2 \
            or table.shape[0] != table.shape[1]:
        raise InvalidParameterError(
            f"transition table must have shape (S, S, 2), got {table.shape}")
    table = check_int_array("transition table",
                            table.ravel()).reshape(table.shape)
    s = table.shape[0]
    if n_states is not None and s != n_states:
        raise InvalidParameterError(
            f"transition table is over {s} states, expected {n_states}")
    if s < 1:
        raise InvalidParameterError("transition table must cover >= 1 state")
    if table.min() < 0 or table.max() >= s:
        raise InvalidParameterError(
            f"table entries must lie in 0..{s - 1}")
    return table


class InteractionModel(ABC):
    """Abstract pairwise interaction law over a finite state space.

    Subclasses must define :attr:`n_states` and :meth:`apply`.  Models whose
    law is a (mixture of) deterministic table(s) additionally expose
    :attr:`component_tables`/:meth:`sample_components` so the agent engine
    can use its table-lookup fast loop.

    ``slots_per_step`` is the number of agents an interaction involves: 2
    for ordinary protocols (initiator, responder), 4 for rules that also
    *read* two extra uniformly sampled agents (see :class:`ImitationModel`).
    Only the first two agents may change state.
    """

    #: Number of agents sampled per interaction (2 or 4).
    slots_per_step: int = 2

    @property
    @abstractmethod
    def n_states(self) -> int:
        """Size of the per-agent state space."""

    @property
    def state_dtype(self) -> np.dtype:
        """The narrowest unsigned dtype holding every state, which engines
        store per-agent states in (``uint8`` up to 256 states)."""
        return np.min_scalar_type(self.n_states - 1)

    @property
    def one_way(self) -> bool:
        """Whether the responder's state never changes.

        One-way models admit a cheaper conflict analysis in the
        vectorized kernel (reads of the same agent commute) and an inert
        filter.  The default is conservative; table-backed models derive
        the answer from their tables.
        """
        return False

    @property
    def inert_states(self):
        """Boolean mask of states whose interactions are no-ops, or ``None``.

        State ``u`` is inert when an interaction initiated from ``u``
        changes nothing regardless of the responder (and, because the
        model is one-way, nothing can move an agent out of ``u``
        either).  Only meaningful — and only consulted — for one-way
        models; ``None`` means "unknown, assume none".
        """
        return None

    @property
    def component_tables(self):
        """Deterministic table components, or ``None`` for generic models.

        A list ``[t_0, ..., t_{C-1}]`` of ``(S, S, 2)`` tables such that each
        interaction applies table ``t_c`` with ``c`` drawn by
        :meth:`sample_components`.  Engines use this for the fast sequential
        loop; generic stochastic models return ``None``.
        """
        return None

    def sample_components(self, rng, size: int):
        """Component indices for ``size`` interactions (``None`` if ``C=1``)."""
        return None

    @property
    def component_probs(self):
        """Probabilities with which :meth:`sample_components` draws each
        table, iid per interaction (``None`` when ``C = 1`` or generic).

        The count backend splits an interaction batch over the components
        by one multinomial draw with these probabilities.
        """
        return None

    @abstractmethod
    def apply(self, initiators, responders, rng, observed=None):
        """Vectorized outcome of a batch of interactions.

        Parameters
        ----------
        initiators, responders:
            Integer state arrays of equal length (the pair's *states*).
        rng:
            Generator for the model's own randomness (one independent draw
            per interaction; unused by deterministic models).
        observed:
            For ``slots_per_step == 4``, the pair of extra observed state
            arrays ``(obs_i, obs_j)``; ``None`` otherwise.

        Returns
        -------
        ``(new_initiators, new_responders)`` state arrays.  Observed agents
        never change state.
        """

    def apply_scalar(self, u: int, v: int, rng, observed=None) -> tuple:
        """Single-interaction outcome on Python ints (sequential engines).

        The default routes through :meth:`apply` with length-1 arrays;
        models on hot sequential paths may override with a cheaper scalar
        implementation.  The law must match :meth:`apply` exactly.
        """
        obs = None
        if observed is not None:
            obs = (np.array([observed[0]]), np.array([observed[1]]))
        new_u, new_v = self.apply(np.array([u]), np.array([v]), rng, obs)
        return int(new_u[0]), int(new_v[0])


def _tables_structure(tables) -> tuple:
    """``(one_way, inert_mask)`` of a list of ``(S, S, 2)`` tables.

    ``one_way`` holds when every component leaves the responder fixed;
    ``inert_mask[u]`` when every component's initiator row ``u`` is the
    identity (so interactions from ``u`` are no-ops under every draw).
    """
    s = tables[0].shape[0]
    ids = np.arange(s)
    one_way = all(np.array_equal(t[:, :, 1], np.broadcast_to(ids, (s, s)))
                  for t in tables)
    if not one_way:
        return False, None
    inert = np.ones(s, dtype=bool)
    for t in tables:
        inert &= (t[:, :, 0] == ids[:, None]).all(axis=1)
    return True, inert


class TableModel(InteractionModel):
    """A deterministic joint transition table — the protocol ``δ``.

    Parameters
    ----------
    table:
        ``(S, S, 2)`` integer array: ``table[u, v] = (u', v')``.
    """

    def __init__(self, table):
        self._table = _check_table(table)
        self._s = self._table.shape[0]
        self._flat_u = np.ascontiguousarray(self._table[:, :, 0].ravel())
        self._flat_v = np.ascontiguousarray(self._table[:, :, 1].ravel())
        self._one_way, self._inert = _tables_structure([self._table])

    @property
    def n_states(self) -> int:
        return self._s

    @property
    def one_way(self) -> bool:
        return self._one_way

    @property
    def inert_states(self):
        return None if self._inert is None else self._inert.copy()

    @property
    def table(self) -> np.ndarray:
        """The ``(S, S, 2)`` transition table (copy)."""
        return self._table.copy()

    @property
    def component_tables(self):
        return [self._table.copy()]

    def apply(self, initiators, responders, rng, observed=None):
        idx = initiators * self._s + responders
        return self._flat_u[idx], self._flat_v[idx]

    def apply_scalar(self, u: int, v: int, rng, observed=None) -> tuple:
        idx = u * self._s + v
        return int(self._flat_u[idx]), int(self._flat_v[idx])


class MixtureTableModel(InteractionModel):
    """Applies one of ``C`` deterministic tables per interaction.

    Each interaction independently draws component ``c`` with probability
    ``probs[c]`` and applies table ``c``.  This captures, e.g., noisy
    observation channels (with probability ``ε`` apply the
    flipped-observation table) and probabilistic update rules (with
    probability ``1 − p`` apply the identity table).
    """

    def __init__(self, tables, probs):
        if len(tables) < 1:
            raise InvalidParameterError("at least one component table needed")
        first = _check_table(tables[0])
        self._tables = [first] + [
            _check_table(t, n_states=first.shape[0]) for t in tables[1:]]
        self._s = first.shape[0]
        probs = check_probability_vector("probs", np.asarray(probs, float))
        if probs.size != len(self._tables):
            raise InvalidParameterError(
                f"{probs.size} probabilities for {len(self._tables)} tables")
        self._probs = probs
        self._cum = np.cumsum(probs)
        self._cum[-1] = 1.0
        # (C, S*S) stacked flat lookups for vectorized mixture application.
        self._flat_u = np.stack([t[:, :, 0].ravel() for t in self._tables])
        self._flat_v = np.stack([t[:, :, 1].ravel() for t in self._tables])
        self._one_way, self._inert = _tables_structure(self._tables)

    @property
    def n_states(self) -> int:
        return self._s

    @property
    def one_way(self) -> bool:
        return self._one_way

    @property
    def inert_states(self):
        return None if self._inert is None else self._inert.copy()

    @property
    def component_tables(self):
        return [t.copy() for t in self._tables]

    @property
    def probs(self) -> np.ndarray:
        """Component probabilities (copy)."""
        return self._probs.copy()

    @property
    def component_probs(self):
        return self._probs.copy()

    def sample_components(self, rng, size: int):
        return np.searchsorted(self._cum, rng.random(size), side="right")

    def apply(self, initiators, responders, rng, observed=None):
        comps = self.sample_components(rng, len(initiators))
        idx = initiators * self._s + responders
        return self._flat_u[comps, idx], self._flat_v[comps, idx]

    def apply_scalar(self, u: int, v: int, rng, observed=None) -> tuple:
        c = int(np.searchsorted(self._cum, rng.random(), side="right"))
        idx = u * self._s + v
        return int(self._flat_u[c, idx]), int(self._flat_v[c, idx])


class LogitResponseModel(InteractionModel):
    """Softmax (logit) response to the responder's strategy.

    The initiator resamples its strategy from
    ``softmax(eta · payoffs[:, v])`` where ``v`` is the responder's current
    strategy; the responder never changes.  Temperature ``1/eta``; the
    smoothing keeps the strategy-count chain irreducible.
    """

    def __init__(self, payoffs, eta: float = 1.0):
        payoffs = np.asarray(payoffs, dtype=float)
        if payoffs.ndim != 2 or payoffs.shape[0] != payoffs.shape[1]:
            raise InvalidParameterError(
                f"payoffs must be a square matrix, got shape {payoffs.shape}")
        if eta <= 0:
            raise InvalidParameterError(f"eta must be positive, got {eta!r}")
        self._s = payoffs.shape[0]
        self.eta = float(eta)
        logits = self.eta * payoffs
        logits -= logits.max(axis=0, keepdims=True)
        weights = np.exp(logits)
        weights /= weights.sum(axis=0, keepdims=True)
        # _cdf[v] = CDF over the initiator's new strategy given responder v.
        self._cdf = np.cumsum(weights.T, axis=1)
        self._cdf[:, -1] = 1.0

    @property
    def n_states(self) -> int:
        return self._s

    @property
    def one_way(self) -> bool:
        return True

    def apply(self, initiators, responders, rng, observed=None):
        draws = rng.random(len(initiators))
        rows = self._cdf[responders]
        new_u = (rows <= draws[:, None]).sum(axis=1)
        np.minimum(new_u, self._s - 1, out=new_u)
        return new_u, responders

    def apply_scalar(self, u: int, v: int, rng, observed=None) -> tuple:
        draw = rng.random()
        new_u = int(np.searchsorted(self._cdf[v], draw, side="right"))
        return min(new_u, self._s - 1), v


class ImitationModel(InteractionModel):
    """Pairwise-comparison imitation (finite-population replicator).

    The initiator (state ``u``) and the responder acting as a model agent
    (state ``v``) each earn a payoff against an *independently sampled*
    opponent — the two extra observed agents — and the initiator adopts
    ``v`` with probability ``max(payoff_v − payoff_u, 0) / scale``.
    Reads four agents per interaction (``slots_per_step = 4``); only the
    initiator may change state.
    """

    slots_per_step = 4

    def __init__(self, payoffs, scale: float | None = None):
        payoffs = np.asarray(payoffs, dtype=float)
        if payoffs.ndim != 2 or payoffs.shape[0] != payoffs.shape[1]:
            raise InvalidParameterError(
                f"payoffs must be a square matrix, got shape {payoffs.shape}")
        self._s = payoffs.shape[0]
        if scale is None:
            span = float(payoffs.max() - payoffs.min())
            scale = span if span > 0 else 1.0
        if scale <= 0:
            raise InvalidParameterError(f"scale must be positive, got {scale!r}")
        self.scale = float(scale)
        self._flat = np.ascontiguousarray(payoffs.ravel())

    @property
    def n_states(self) -> int:
        return self._s

    @property
    def one_way(self) -> bool:
        return True

    def apply(self, initiators, responders, rng, observed=None):
        if observed is None:
            raise InvalidParameterError(
                "ImitationModel needs the two observed opponent states")
        obs_i, obs_j = observed
        payoff_u = self._flat[initiators * self._s + obs_i]
        payoff_v = self._flat[responders * self._s + obs_j]
        advantage = payoff_v - payoff_u
        switch = (advantage > 0) & (rng.random(len(initiators))
                                    < advantage / self.scale)
        return np.where(switch, responders, initiators), responders

    def apply_scalar(self, u: int, v: int, rng, observed=None) -> tuple:
        if observed is None:
            raise InvalidParameterError(
                "ImitationModel needs the two observed opponent states")
        advantage = (self._flat[v * self._s + observed[1]]
                     - self._flat[u * self._s + observed[0]])
        if advantage > 0 and rng.random() < advantage / self.scale:
            return v, v
        return u, v


class PairMixtureTableModel(InteractionModel):
    """Applies one of two tables with a *pair-dependent* probability.

    Each interaction with states ``(u, v)`` independently applies
    ``table_hit`` with probability ``pair_probs[u, v]`` and ``table_miss``
    otherwise.  This generalizes :class:`MixtureTableModel` (whose mixing
    weights are constant) and is exactly the shape of the
    action-observed k-IGT rule: the probability that a GTFT initiator
    classifies its partner as AD — the partner defected in every round of
    a real repeated game — depends on both players' strategies, and
    conditioned on the classification the update is a deterministic table.

    Parameters
    ----------
    table_hit, table_miss:
        ``(S, S, 2)`` transition tables.
    pair_probs:
        ``(S, S)`` matrix of hit probabilities in ``[0, 1]``.
    """

    def __init__(self, table_hit, table_miss, pair_probs):
        hit = _check_table(table_hit)
        miss = _check_table(table_miss, n_states=hit.shape[0])
        self._s = hit.shape[0]
        probs = np.asarray(pair_probs, dtype=float)
        if probs.shape != (self._s, self._s):
            raise InvalidParameterError(
                f"pair_probs must have shape {(self._s, self._s)}, "
                f"got {probs.shape}")
        if np.isnan(probs).any() or probs.min() < 0.0 or probs.max() > 1.0:
            raise InvalidParameterError(
                "pair_probs entries must be probabilities in [0, 1]")
        self._tables = [hit, miss]
        self._hit_u = np.ascontiguousarray(hit[:, :, 0].ravel())
        self._hit_v = np.ascontiguousarray(hit[:, :, 1].ravel())
        self._miss_u = np.ascontiguousarray(miss[:, :, 0].ravel())
        self._miss_v = np.ascontiguousarray(miss[:, :, 1].ravel())
        self._probs = probs
        self._probs_flat = np.ascontiguousarray(probs.ravel())
        # A state is inert only when *both* branches leave it unchanged
        # for every partner — _tables_structure ANDs across the tables.
        self._one_way, self._inert = _tables_structure(self._tables)

    @property
    def n_states(self) -> int:
        return self._s

    @property
    def one_way(self) -> bool:
        return self._one_way

    @property
    def inert_states(self):
        return None if self._inert is None else self._inert.copy()

    @property
    def pair_probs(self) -> np.ndarray:
        """The ``(S, S)`` hit-probability matrix (copy)."""
        return self._probs.copy()

    def apply(self, initiators, responders, rng, observed=None):
        idx = initiators * self._s + responders
        hit = rng.random(len(idx)) < self._probs_flat[idx]
        new_u = np.where(hit, self._hit_u[idx], self._miss_u[idx])
        new_v = np.where(hit, self._hit_v[idx], self._miss_v[idx])
        return new_u, new_v

    def apply_scalar(self, u: int, v: int, rng, observed=None) -> tuple:
        idx = u * self._s + v
        if rng.random() < self._probs_flat[idx]:
            return int(self._hit_u[idx]), int(self._hit_v[idx])
        return int(self._miss_u[idx]), int(self._miss_v[idx])
