"""Heterogeneous-activity (weighted-scheduler) count-level simulation.

Under the uniform scheduler the state-count vector is a Markov chain
because agents are exchangeable.  Activity weights break that: two agents
in the same state but with different weights are *not* interchangeable,
so the plain count vector loses the Markov property.  Exchangeability
survives, however, *within* each set of equally weighted agents — so the
chain is recovered by lifting the type space to the product
``(weight class × state)``:

* agents are grouped into discrete **weight classes** (agents sharing an
  activity weight), fixed for the whole run;
* the **product model** runs the inner interaction law on the state
  component and carries the class component through unchanged
  (:class:`ProductStateModel`);
* the backend expands the ``(C, S)`` class-state counts into an
  arbitrary fixed per-agent assignment and drives the
  :mod:`repro.engine.vectorized` kernel with a
  :class:`~repro.engine.sampling.WeightedScheduler` whose per-agent
  weights repeat each class weight — by within-class exchangeability the
  projection onto ``(class, state)`` counts is *exactly* the lifted
  chain, with no approximation (property-tested against exact chains in
  ``tests/engine/test_weighted_engine.py``).

Both of :class:`~repro.engine.count.CountBackend`'s execution
strategies extend to the product type space:

* the **array-proxy kernel** expands the counts into a fixed per-agent
  assignment (``O(n)`` internal memory) and is the default up to
  :data:`WEIGHTED_PROXY_MAX_N` agents — a *measured* crossover, higher
  than the uniform path's :data:`~repro.engine.count.PROXY_MAX_N`
  because weighted batches must sample a per-slot class sequence the
  uniform birthday path never needs, which shifts the proxy/birthday
  break-even point upward (see ``BENCH_engine.json``);
* **birthday-run batching** extends to the *heterogeneous* birthday
  problem: the first-collision law under weighted sampling depends on
  which weight classes the draws land in, so no count-only CDF can be
  precomputed — instead each batch samples the per-slot weight-class
  sequence first (classes are iid ``m_c·w_c/W`` categorical draws,
  partner-clash corrected by an exact per-class rejection), then the
  per-slot *freshness* factors ``(m_c − seen_c)/(m_c − δ)`` given that
  sequence, whose running product is the exact survival function of the
  first collision.  One uniform inverted through that product yields
  the collision slot; the all-distinct prefix executes in one
  vectorized shot per class (``multivariate_hypergeometric`` + shuffle,
  exactly as the uniform path), and the collision interaction is
  resolved agent-exactly at class granularity.  This restores
  ``O(√n_eff)``-batched, ``O(k)``-memory weighted runs beyond
  ``WEIGHTED_PROXY_MAX_N`` (``n_eff = W²/Σᵢwᵢ²`` is the
  heterogeneity-corrected collision scale), distribution-identical to
  the proxy kernel and the enumerated weighted chains
  (property-tested).

Facade-facing counts are the *inner* model's: :attr:`WeightedCountBackend
.counts` has length ``S`` (stop predicates and observations see the same
shape as every other engine), while :attr:`~WeightedCountBackend
.class_state_counts` exposes the full ``(C, S)`` product view.

:func:`weights_from_spec` parses the user-facing weight spellings
(``"uniform"``, ``"powerlaw[:alpha]"``, ``"twoclass[:ratio]"``) that the
experiment parameter spaces and the CLI accept.
"""

from __future__ import annotations

import math

import numpy as np

from repro.engine.base import BLOCK_SIZE, EngineResult, SimulationEngine
from repro.engine.count import _cadence_offsets, sample_without_replacement
from repro.engine.model import InteractionModel
from repro.engine.observe import ObserverSink
from repro.engine.sampling import (
    AliasTable,
    WeightedScheduler,
    check_weights,
)
from repro.engine.vectorized import ConflictFreeKernel, run_kernel
from repro.utils import as_generator
from repro.utils.errors import InvalidParameterError

#: Hard cap on distinct weight classes: the product space is ``C × S``
#: and a continuum of weights would silently degrade the lift into a
#: per-agent state space.
MAX_WEIGHT_CLASSES = 64

#: Default proxy-kernel ceiling for the *weighted* lift.  Unlike the
#: uniform chain — whose birthday batches need no per-slot randomness
#: beyond one precomputed-CDF inversion, and which therefore overtakes
#: the proxy kernel at :data:`~repro.engine.count.PROXY_MAX_N` — a
#: heterogeneous batch must sample and rank a per-slot weight-class
#: sequence, so the alias-fed proxy kernel stays faster well past 10^7
#: agents (measured: ~3.8M vs ~1.3M interactions/s at n = 10^7; see
#: ``BENCH_engine.json``).  The proxy's O(n) memory matches the agent
#: backend's at equal ``n``; beyond this ceiling the O(C·S) birthday
#: path takes over.
WEIGHTED_PROXY_MAX_N = 10_000_000

#: Number of discrete activity levels the ``powerlaw`` spec generates.
POWERLAW_LEVELS = 8


def weights_from_spec(spec: str, n: int):
    """Per-agent activity weights named by a textual spec.

    * ``"uniform"`` — ``None`` (the uniform scheduler; no weighting).
    * ``"powerlaw"`` / ``"powerlaw:alpha"`` — :data:`POWERLAW_LEVELS`
      discrete activity levels with weight ``level^-alpha``
      (``alpha = 1`` by default), assigned round-robin so every
      population stratum mixes all levels.
    * ``"twoclass"`` / ``"twoclass:ratio"`` — the first half of the
      population at weight 1, the second half at ``ratio`` (default 4).

    Discrete levels keep the weight-class product space small (the
    count-level lift is ``C × S``); the assignment is deterministic so
    identical specs give identical populations under any seed.
    """
    name, _, argument = str(spec).partition(":")
    name = name.strip().lower()
    if name == "uniform":
        if argument:
            raise InvalidParameterError(
                f"weight spec 'uniform' takes no argument, got {spec!r}")
        return None
    if name == "powerlaw":
        alpha = 1.0
        if argument:
            try:
                alpha = float(argument)
            except ValueError as error:
                raise InvalidParameterError(
                    f"malformed powerlaw exponent in {spec!r}") from error
        if not np.isfinite(alpha) or alpha <= 0:
            raise InvalidParameterError(
                f"powerlaw exponent must be positive and finite, "
                f"got {alpha!r}")
        levels = np.arange(1, POWERLAW_LEVELS + 1, dtype=float) ** -alpha
        return levels[np.arange(int(n)) % POWERLAW_LEVELS]
    if name == "twoclass":
        ratio = 4.0
        if argument:
            try:
                ratio = float(argument)
            except ValueError as error:
                raise InvalidParameterError(
                    f"malformed twoclass ratio in {spec!r}") from error
        if not np.isfinite(ratio) or ratio <= 0:
            raise InvalidParameterError(
                f"twoclass ratio must be positive and finite, got {ratio!r}")
        weights = np.ones(int(n))
        weights[int(n) // 2:] = ratio
        return weights
    raise InvalidParameterError(
        f"unknown weight spec {spec!r}; expected 'uniform', "
        f"'powerlaw[:alpha]', or 'twoclass[:ratio]'")


def resolve_weights(weights, n: int):
    """The facades' one ``weights=`` parser: spec or array -> weights.

    ``None`` passes through (uniform); a string resolves via
    :func:`weights_from_spec`; anything else is validated as a
    length-``n`` positive 1-D array.  Every facade funnels its knob
    through here so the validation (and its messages) exist once.
    """
    if weights is None:
        return None
    if isinstance(weights, str):
        return weights_from_spec(weights, n)
    weights = check_weights(weights)
    if weights.size != n:
        raise InvalidParameterError(
            f"weights must have length n={n}, got {weights.size}")
    return weights


def weight_classes(weights) -> tuple[np.ndarray, np.ndarray]:
    """Discretize per-agent weights into ``(class_weights, class_of)``.

    ``class_weights`` holds the distinct weight values (ascending) and
    ``class_of[i]`` the class index of agent ``i``.  More than
    :data:`MAX_WEIGHT_CLASSES` distinct values is rejected — the
    count-level lift needs a small discrete class set.
    """
    w = check_weights(weights)
    class_weights, class_of = np.unique(w, return_inverse=True)
    if class_weights.size > MAX_WEIGHT_CLASSES:
        raise InvalidParameterError(
            f"{class_weights.size} distinct weight values exceed the "
            f"{MAX_WEIGHT_CLASSES}-class cap of the count-level lift; "
            f"discretize the weights (e.g. via weights_from_spec) or use "
            f"the agent backend")
    return class_weights, class_of


class ProductStateModel(InteractionModel):
    """An interaction law lifted to ``(weight class × state)`` products.

    Product state ``c·S + s`` encodes class ``c`` and inner state ``s``;
    the inner law acts on the state component and the class component is
    carried through untouched (weights are immutable agent attributes).
    Component tables, one-way structure, inert states, and the 4-slot
    observed-agent surface all lift — so whatever kernel path the inner
    model supports, the product does too (observed product states are
    projected to their inner component before the inner law reads them).
    """

    def __init__(self, inner: InteractionModel, n_classes: int):
        if inner.slots_per_step not in (2, 4):
            raise InvalidParameterError(
                f"slots_per_step must be 2 or 4, "
                f"got {inner.slots_per_step}")
        self._inner = inner
        self._classes = int(n_classes)
        if self._classes < 1:
            raise InvalidParameterError(
                f"n_classes must be positive, got {n_classes!r}")
        self._s = inner.n_states
        self.slots_per_step = inner.slots_per_step

    @property
    def inner(self) -> InteractionModel:
        """The lifted interaction law."""
        return self._inner

    @property
    def n_classes(self) -> int:
        """Number of weight classes ``C``."""
        return self._classes

    @property
    def n_states(self) -> int:
        return self._classes * self._s

    @property
    def one_way(self) -> bool:
        return self._inner.one_way

    @property
    def inert_states(self):
        inert = self._inner.inert_states
        # Class never changes, so a product state is inert exactly when
        # its inner state is.
        return None if inert is None else np.tile(inert, self._classes)

    @property
    def component_tables(self):
        tables = self._inner.component_tables
        if tables is None:
            return None
        return [self._lift_table(table) for table in tables]

    def _lift_table(self, table) -> np.ndarray:
        s, c = self._s, self._classes
        p = c * s
        ids = np.arange(p)
        class_part = (ids // s) * s
        inner_ids = ids % s
        lifted = np.empty((p, p, 2), dtype=np.int64)
        gathered = table[np.ix_(inner_ids, inner_ids)]
        lifted[:, :, 0] = class_part[:, None] + gathered[:, :, 0]
        lifted[:, :, 1] = class_part[None, :] + gathered[:, :, 1]
        return lifted

    def sample_components(self, rng, size: int):
        return self._inner.sample_components(rng, size)

    def apply(self, initiators, responders, rng, observed=None):
        s = self._s
        class_u = initiators - initiators % s
        class_v = responders - responders % s
        if observed is not None:
            # Observed agents are read-only: project their product
            # states to the inner component the inner law consumes.
            observed = (observed[0] % s, observed[1] % s)
        new_u, new_v = self._inner.apply(initiators % s, responders % s,
                                         rng, observed)
        return class_u + new_u, class_v + new_v

    def apply_scalar(self, u: int, v: int, rng, observed=None) -> tuple:
        s = self._s
        if observed is not None:
            observed = (observed[0] % s, observed[1] % s)
        new_u, new_v = self._inner.apply_scalar(u % s, v % s, rng, observed)
        return (u - u % s + new_u, v - v % s + new_v)


class _ProjectingSink(ObserverSink):
    """Project product ``(class x state)`` counts to inner counts on the
    way into the user's sink, preserving stream order.

    The proxy kernel observes product counts; users observe inner state
    counts.  Projecting per emit (instead of post-hoc) keeps streaming
    and reducing sinks constant-memory on the weighted proxy path.
    """

    def __init__(self, inner: ObserverSink, project) -> None:
        self._inner = inner
        self._project = project

    def emit(self, step, counts, states=None) -> None:
        self._inner.emit(step, self._project(counts))


class WeightedCountBackend(SimulationEngine):
    """Count-level engine for activity-weighted populations.

    Tracks the exact ``(weight class × state)`` count chain of an
    :class:`~repro.engine.model.InteractionModel` under the
    :class:`~repro.engine.sampling.WeightedScheduler` law, via the
    product-space array-proxy kernel at small ``n`` and heterogeneous
    birthday-run batching beyond it (see the module docstring).  The
    engine-facing :attr:`counts` are the *inner* model's length-``S``
    state counts — stop predicates and observations see the familiar
    shape — with the full product view on :attr:`class_state_counts`.

    Parameters
    ----------
    model:
        The (inner) interaction law; 4-slot observed-agent models are
        supported on both paths.  The proxy kernel additionally needs
        the vectorized-kernel family (component tables or a one-way
        stochastic law); the birthday path accepts any model.
    initial_counts:
        ``(C, S)`` non-negative integers: agents per weight class and
        state, summing to the population size ``n >= 2``.
    class_weights:
        Length-``C`` positive activity weights, one per class.  With a
        single class (or equal weights) the chain coincides with
        :class:`~repro.engine.count.CountBackend`'s law.
    seed:
        Seed or generator.
    track_pair_counts:
        Accumulate executed interactions per ordered *inner*-state pair
        into :attr:`pair_counts` (count-level payoff accounting, the
        projection of the product-pair counts).
    vectorized:
        Proxy-path selection, mirroring
        :class:`~repro.engine.count.CountBackend`: ``None`` (default)
        uses the array-proxy kernel for supported models up to
        :data:`WEIGHTED_PROXY_MAX_N` agents (the measured weighted
        crossover), ``True`` forces it (still requires a supported
        model), ``False`` forces the birthday path.  Both paths
        simulate the same law.
    """

    def __init__(self, model: InteractionModel, initial_counts,
                 class_weights, seed=None,
                 track_pair_counts: bool = False,
                 vectorized: bool | None = None):
        self.model = model
        weights = np.asarray(class_weights, dtype=float)
        if weights.ndim != 1 or weights.size < 1:
            raise InvalidParameterError(
                "class_weights must be a 1-D array of at least one class")
        if np.any(~np.isfinite(weights)) or np.any(weights <= 0):
            raise InvalidParameterError(
                "class weights must be positive and finite")
        counts = np.asarray(initial_counts, dtype=np.int64).copy()
        if counts.ndim != 2 or counts.shape != (weights.size,
                                                model.n_states):
            raise InvalidParameterError(
                f"initial_counts must have shape (C, S) = "
                f"({weights.size}, {model.n_states}), got {counts.shape}")
        if counts.min() < 0:
            raise InvalidParameterError("counts must be non-negative")
        self.n = int(counts.sum())
        if self.n < 2:
            raise InvalidParameterError(
                f"population must have at least 2 agents, got n={self.n}")
        self._spp = model.slots_per_step
        if self._spp == 4 and self.n < 4:
            raise InvalidParameterError(
                "models observing extra agents need n >= 4 for an "
                "all-distinct interaction to exist")
        self._class_weights = weights
        self._classes = weights.size
        self._product = ProductStateModel(model, self._classes)
        self._rng = as_generator(seed)
        self._track_pairs = bool(track_pair_counts)
        if self._spp == 4:
            proxy_ok = model.one_way and model.component_tables is None
        else:
            proxy_ok = (model.component_tables is not None
                        or model.one_way)
        if vectorized is True and not proxy_ok:
            raise InvalidParameterError(
                "the proxy fast path needs a model the vectorized kernel "
                "accepts (component tables or a one-way law)")
        if vectorized is None:
            vectorized = proxy_ok and self.n <= WEIGHTED_PROXY_MAX_N
        self._kernel = None
        self._sampler = None
        self._pair_counts = None
        if vectorized:
            # Fixed per-agent expansion: within-class exchangeability
            # makes weighted pair sampling over any fixed assignment
            # project to exactly the (class × state) count chain.
            product_states = np.repeat(
                np.arange(self._classes * model.n_states, dtype=np.int64),
                counts.ravel())
            per_agent_weights = np.repeat(weights, counts.sum(axis=1))
            self._sampler = WeightedScheduler(per_agent_weights,
                                              self._rng)
            self._product_counts = np.bincount(
                product_states, minlength=self._classes * model.n_states)
            self._kernel = ConflictFreeKernel(
                self._product, product_states, self._product_counts,
                allow_stochastic=model.component_tables is None,
                track_pairs=self._track_pairs)
        else:
            # Birthday path: O(C·S) state only — no per-agent arrays.
            self._product_counts = counts.ravel()
            self._init_birthday(counts)
            if self._track_pairs:
                self._pair_counts = np.zeros(model.n_states ** 2,
                                             dtype=np.int64)
        self._counts = counts.sum(axis=0)
        self.steps_run = 0

    def _init_birthday(self, counts) -> None:
        """Precompute the fixed per-run structures of the birthday path.

        Class membership never changes, so the per-class member counts
        ``m_c``, the class-draw alias table (classes weighted by their
        total activity ``m_c·w_c``), and the heterogeneity-corrected
        collision scale ``n_eff = W²/Σᵢwᵢ²`` are all run constants.
        """
        m = counts.sum(axis=1)
        self._members = m
        occupied = np.flatnonzero(m > 0)
        self._occupied = occupied
        mass = m[occupied] * self._class_weights[occupied]
        self._class_alias = AliasTable(mass)
        total = float(mass.sum())
        self._n_eff = total ** 2 / float(
            (m[occupied] * self._class_weights[occupied] ** 2).sum())
        # Window length (in interactions): collisions arrive on the
        # √n_eff slot scale, so a ~2.5·√n_eff-slot window collides
        # inside with probability ≈ 95%; the occasional fully-clean
        # window is executed whole (exact — only the event
        # {T ≥ window} was consumed), so nothing is wasted.
        slots = int(2.5 * math.sqrt(self._n_eff)) + 8 * self._spp
        self._window = max(1, slots // self._spp)
        # Partner slot offsets: responder ≠ initiator, observed_i ≠
        # initiator, observed_j ≠ responder (count.py's exclusions).
        self._partner_offset = ((None, 1, 2, 2) if self._spp == 4
                                else (None, 1))

    @classmethod
    def from_agent_states(cls, model: InteractionModel, states, weights,
                          **kwargs) -> "WeightedCountBackend":
        """Build the lift from per-agent states and per-agent weights.

        Discretizes ``weights`` into classes (:func:`weight_classes`),
        histograms ``states`` per class, and constructs the backend —
        the one implementation of the facades' agent-view-to-lift
        conversion.  ``kwargs`` pass through to the constructor.
        """
        states = np.asarray(states, dtype=np.int64)
        class_weights, class_of = weight_classes(weights)
        if class_of.size != states.size:
            raise InvalidParameterError(
                f"weights cover {class_of.size} agents, states "
                f"{states.size}")
        class_counts = np.zeros((class_weights.size, model.n_states),
                                dtype=np.int64)
        np.add.at(class_counts, (class_of, states), 1)
        return cls(model, class_counts, class_weights, **kwargs)

    @property
    def rng(self) -> np.random.Generator:
        """The backend's generator."""
        return self._rng

    @property
    def class_weights(self) -> np.ndarray:
        """Per-class activity weights (copy)."""
        return self._class_weights.copy()

    @property
    def class_state_counts(self) -> np.ndarray:
        """Current ``(C, S)`` weight-class × state counts (copy)."""
        return self._product_counts.reshape(self._classes, -1).copy()

    @property
    def pair_counts(self) -> np.ndarray:
        """Executed interactions per ordered *inner*-state pair, ``(S, S)``.

        On the proxy path, the product-pair accumulator contracted over
        both class axes; the birthday path accumulates inner pairs
        directly.  Requires ``track_pair_counts=True``.
        """
        if not self._track_pairs:
            raise InvalidParameterError(
                "pair counts were not tracked; construct the backend with "
                "track_pair_counts=True")
        c, s = self._classes, self.model.n_states
        if self._kernel is not None:
            product = self._kernel.pair_count_matrix().reshape(c, s, c, s)
            return product.sum(axis=(0, 2))
        return self._pair_counts.reshape(s, s).copy()

    def _project(self, product_counts) -> np.ndarray:
        """Inner-state counts of a product count vector."""
        return product_counts.reshape(self._classes, -1).sum(axis=0)

    # ------------------------------------------------------------------
    # Snapshot / restore (the crash-safety contract; see engine.snapshot)
    # ------------------------------------------------------------------
    def snapshot(self) -> "SnapshotState":
        """Exact mutable state between runs, for :meth:`restore`.

        The birthday-path structures from :meth:`_init_birthday`
        (member counts, class alias table, window length) are run
        constants — class membership never changes — so the mutable
        surface is the product counts, the projected inner counts, the
        step cursor, the generator position, the pair-count accumulator
        when tracked, and on the proxy path the internal per-agent
        product-state arrangement plus stochastic peel stamps.
        """
        from repro.engine.snapshot import (
            SnapshotState,
            encode_array,
            rng_state,
        )

        payload = {
            "n": int(self.n),
            "n_states": int(self.model.n_states),
            "n_classes": int(self._classes),
            "proxy": self._kernel is not None,
            "steps_run": int(self.steps_run),
            "product_counts": encode_array(self._product_counts),
            "counts": encode_array(self._counts),
            "rng": rng_state(self._rng),
        }
        if self._kernel is not None:
            payload["proxy_state"] = self._kernel.encode_proxy_state()
        elif self._pair_counts is not None:
            payload["pair_counts"] = encode_array(self._pair_counts)
        return SnapshotState(kind="weighted", payload=payload)

    def restore(self, snapshot: "SnapshotState") -> None:
        """Adopt a snapshot taken by an identically constructed engine.

        All arrays are written *in place* — the proxy kernel adopts the
        product-count vector, and facades alias the projected inner
        counts through :attr:`counts_live`.
        """
        from repro.engine.snapshot import (
            check_snapshot,
            decode_array,
            restore_rng,
        )

        payload = check_snapshot(snapshot, "weighted", n=self.n,
                                 n_states=self.model.n_states,
                                 n_classes=self._classes,
                                 proxy=self._kernel is not None)
        self._product_counts[:] = decode_array(payload["product_counts"])
        self._counts[:] = decode_array(payload["counts"])
        self.steps_run = int(payload["steps_run"])
        restore_rng(self._rng, payload["rng"])
        if self._kernel is not None:
            self._kernel.restore_proxy_state(payload["proxy_state"])
        elif self._pair_counts is not None:
            self._pair_counts[:] = decode_array(payload["pair_counts"])

    def run(self, max_steps: int, stop_when=None,
            observe_every: int | None = None,
            check_stop_every: int = 1, observe=None) -> EngineResult:
        (max_steps, observe_every, check_stop_every, sink,
         stopped) = self._prepare_run(max_steps, stop_when, observe_every,
                                      check_stop_every, observe)
        done = 0
        converged = stopped
        if not stopped and self._kernel is not None and max_steps > 0:
            wrapped = None
            if stop_when is not None:
                def wrapped(product):
                    # Refresh the live inner counts before the predicate
                    # runs, so predicates reading backend state (instead
                    # of their argument) see current values — the same
                    # guarantee the other engines give.
                    self._counts[:] = self._project(product)
                    return stop_when(self._counts)
            # The kernel runs on product (class x state) counts; project
            # each observation to inner state counts as it streams, so
            # constant-memory sinks never see (or retain) product series.
            done, converged = run_kernel(
                self._kernel, self._sampler.pair_block,
                self._product.sample_components, self._rng, max_steps,
                self.steps_run, wrapped, observe_every, check_stop_every,
                _ProjectingSink(sink, self._project), BLOCK_SIZE,
                others_block=self._sampler.others_block)
            self.steps_run += done
            self._counts[:] = self._project(self._product_counts)
        elif not stopped:
            while done < max_steps:
                executed, converged = self._advance(
                    max_steps - done, done, stop_when, observe_every,
                    check_stop_every, sink)
                done += executed
                if converged:
                    break
            self.steps_run += done
            self._counts[:] = self._project(self._product_counts)
        sink.flush()
        return EngineResult(counts=self._counts.copy(),
                            steps=self.steps_run, converged=converged,
                            observations=sink.records)

    # ------------------------------------------------------------------
    # Heterogeneous birthday-run batching
    # ------------------------------------------------------------------
    def _draw_window(self, interactions: int):
        """Sample one batch window's class sequence and collision slot.

        Returns ``(cls, tau)``: the per-slot weight classes of the
        ``interactions·spp``-slot window and the index of the first slot
        that repeats an already-touched agent (``tau == len(cls)`` means
        the whole window is collision-free).

        Classes are iid ``m_c·w_c/W`` categorical draws; slots with a
        distinctness partner reject a same-class draw with probability
        ``1/m_c`` and redraw, which leaves exactly the partner-excluded
        class law ``(m_c·w_c − δ·w_c)/(W − w_a)``.  Given the class
        sequence, slot ``t`` hits an untouched agent with probability
        ``(m_c − seen_c)/(m_c − δ)`` (``seen_c`` = prior class-``c``
        slots, ``δ`` = partner in the same class), so the running
        product of those factors is the survival function of the first
        collision — inverted with a single uniform.
        """
        rng = self._rng
        spp = self._spp
        window = interactions * spp
        occupied = self._occupied
        members = self._members
        cls = occupied[self._class_alias.draw_block(rng, window)]
        for position in range(1, spp):
            offset = self._partner_offset[position]
            pending = np.arange(position, window, spp)
            while pending.size:
                clash = cls[pending] == cls[pending - offset]
                clashing = pending[clash]
                if not clashing.size:
                    break
                # Reject a same-class draw with probability 1/m_c.
                rejected = (rng.random(clashing.size)
                            * members[cls[clashing]] < 1.0)
                redraw = clashing[rejected]
                if not redraw.size:
                    break
                cls[redraw] = occupied[
                    self._class_alias.draw_block(rng, redraw.size)]
                pending = redraw
        # seen_c before each slot: the slot's rank among its class.
        # Class ids fit in a byte (MAX_WEIGHT_CLASSES = 64), and numpy's
        # stable sort on uint8 keys is a radix pass — ~10x cheaper per
        # window than the int64 merge sort.
        order = np.argsort(cls.astype(np.uint8), kind="stable")
        sorted_cls = cls[order]
        boundary = np.empty(window, dtype=bool)
        if window:
            boundary[0] = True
            np.not_equal(sorted_cls[1:], sorted_cls[:-1],
                         out=boundary[1:])
        starts = np.flatnonzero(boundary)
        sizes = np.diff(np.append(starts, window))
        rank = np.arange(window) - np.repeat(starts, sizes)
        seen = np.empty(window, dtype=np.int64)
        seen[order] = rank
        paired = np.zeros(window, dtype=np.int64)
        for position in range(1, spp):
            offset = self._partner_offset[position]
            idx = np.arange(position, window, spp)
            paired[idx] = cls[idx] == cls[idx - offset]
        m_at = members[cls]
        factors = (m_at - seen) / (m_at - paired)
        np.clip(factors, 0.0, 1.0, out=factors)
        survival = np.cumprod(factors)
        tau = int(np.count_nonzero(survival > rng.random()))
        return cls, tau

    def _advance(self, budget: int, done: int, stop_when, observe_every,
                 check_stop_every, sink) -> tuple[int, bool]:
        """Execute one heterogeneous birthday batch of 1..``budget`` steps.

        The uniform-path contract of :meth:`CountBackend._advance` holds
        verbatim: checkpoints inside the batch are materialized from the
        recorded per-slot product states without splitting it, and a
        collision-free window executes whole (exact — only the event
        {first collision ≥ window} was consumed, and the chain is Markov
        in the product counts).
        """
        interactions = min(budget, self._window)
        cls, tau = self._draw_window(interactions)
        collides = tau < interactions * self._spp
        t = tau // self._spp if collides else interactions
        executed = t + 1 if collides else t
        obs_at = _cadence_offsets(done, observe_every, executed)
        stop_at = (_cadence_offsets(done, check_stop_every, executed)
                   if stop_when is not None else range(0))
        if obs_at or stop_at:
            return self._run_with_checkpoints(t, cls, tau, collides, done,
                                              stop_when, obs_at, stop_at,
                                              sink)
        if not collides:
            self._run_clean(t, cls, want_state=False)
            return executed, False
        pids, updated, pool = self._run_clean(t, cls, want_state=True)
        self._run_collision(t, cls, tau, pids, updated, pool)
        return executed, False

    def _run_with_checkpoints(self, t, cls, tau, collides, done, stop_when,
                              obs_at, stop_at, sink):
        """Batch execution with interior observation / stop checkpoints.

        Mirrors :meth:`CountBackend._run_with_checkpoints` on product
        states: interior count vectors are segment sums over the
        recorded per-slot pre/post product ids, projected to inner
        counts for the observer and the predicate; an early stop rewinds
        the product counts (and pair counts) to the firing checkpoint.
        """
        spp = self._spp
        p = self._classes * self.model.n_states
        s = self.model.n_states
        base = self.steps_run + done
        before = self._product_counts.copy()
        pids, updated, pool = self._run_clean(t, cls, want_state=True)
        executed = t + 1 if collides else t
        current = before
        prev = 0
        for offset in sorted(set(obs_at) | set(stop_at)):
            if offset > t:
                break
            current += np.bincount(updated[prev * spp:offset * spp],
                                   minlength=p)
            current -= np.bincount(pids[prev * spp:offset * spp],
                                   minlength=p)
            prev = offset
            inner = self._project(current)
            if offset in obs_at:
                sink.emit(base + offset, inner)
            if offset in stop_at:
                # Refresh the live inner counts before the predicate
                # runs (the same guarantee the proxy path gives).
                self._counts[:] = inner
            if offset in stop_at and stop_when(inner):
                self._product_counts[:] = current
                if self._pair_counts is not None and offset < t:
                    discarded_u = pids[offset * spp::spp] % s
                    discarded_v = pids[offset * spp + 1::spp] % s
                    self._pair_counts -= np.bincount(
                        discarded_u * s + discarded_v, minlength=s * s)
                return offset, True
        if collides:
            self._run_collision(t, cls, tau, pids, updated, pool)
            if executed in obs_at:
                sink.emit(base + executed,
                          self._project(self._product_counts))
            if executed in stop_at:
                self._counts[:] = self._project(self._product_counts)
                if stop_when(self._counts):
                    return executed, True
        return executed, False

    def _run_clean(self, t: int, cls, want_state: bool):
        """Execute ``t`` all-distinct interactions, vectorized per class.

        The prefix slots hold distinct agents whose classes are given by
        ``cls``; within each class the agents are exchangeable, so their
        states are a without-replacement sample from that class's state
        counts (``multivariate_hypergeometric`` + shuffle), exactly as
        the uniform path samples from the global counts.  With
        ``want_state`` returns ``(pids, updated, pool)``: per-slot
        pre/post product ids and the untouched remainder's product
        counts — the collision-resolution inputs.
        """
        s = self.model.n_states
        p = self._classes * s
        if t == 0:
            if want_state:
                empty = np.empty(0, dtype=np.int64)
                return empty, empty, self._product_counts.copy()
            return None
        spp = self._spp
        n_slots = t * spp
        rng = self._rng
        prefix_cls = cls[:n_slots]
        counts2 = self._product_counts.reshape(self._classes, s)
        slots = np.empty(n_slots, dtype=np.int64)
        state_ids = np.arange(s)
        present = np.flatnonzero(np.bincount(prefix_cls,
                                             minlength=self._classes))
        for c in present:
            positions = np.flatnonzero(prefix_cls == c)
            composition = sample_without_replacement(rng, counts2[c],
                                                     positions.size)
            values = np.repeat(state_ids, composition)
            rng.shuffle(values)
            slots[positions] = values
        initiators = slots[0::spp]
        responders = slots[1::spp]
        observed = None
        if spp == 4:
            observed = (slots[2::spp], slots[3::spp])
        new_u, new_v = self.model.apply(initiators, responders, rng,
                                        observed)
        if self._pair_counts is not None:
            self._pair_counts += np.bincount(initiators * s + responders,
                                             minlength=s * s)
        pids = prefix_cls * s + slots
        updated = pids.copy()
        updated[0::spp] = prefix_cls[0::spp] * s + new_u
        updated[1::spp] = prefix_cls[1::spp] * s + new_v
        sampled = np.bincount(pids, minlength=p)
        delta = np.bincount(updated, minlength=p) - sampled
        if want_state:
            pool = self._product_counts - sampled
            self._product_counts += delta
            return pids, updated, pool
        self._product_counts += delta
        return None

    def _run_collision(self, t: int, cls, tau, pids, updated, pool) -> None:
        """Resolve the interaction that ends a clean run, exactly.

        Slot ``tau`` repeats an already-touched agent; its interaction's
        other slots are fresh (before ``tau``, by the survival
        conditioning) or drawn from their unconditioned touched/fresh
        law (after ``tau``).  A touched slot hits a uniformly chosen
        eligible touched member of its class (partner excluded when in
        the same class): clean-prefix members read their recorded
        post-state, same-interaction members their pre-state.  Fresh
        slots draw their state from the untouched remainder ``pool``.
        """
        rng = self._rng
        spp = self._spp
        s = self.model.n_states
        prefix_slots = t * spp
        position_tau = tau - prefix_slots
        pool = pool.reshape(self._classes, s).copy()
        members = self._members
        # Touched class-c agents: their prefix slot indices, plus the
        # states of agents first seen in this very interaction.
        prefix_by_class: dict[int, list] = {}
        extra_by_class: dict[int, list] = {}

        def touched_tokens(c):
            if c not in prefix_by_class:
                prefix_by_class[c] = np.flatnonzero(
                    cls[:prefix_slots] == c).tolist()
            return prefix_by_class[c], extra_by_class.setdefault(c, [])

        def draw_fresh(c) -> int:
            row = pool[c]
            pick = int(rng.integers(int(row.sum())))
            state = 0
            acc = row[0]
            while acc <= pick:
                state += 1
                acc += row[state]
            row[state] -= 1
            return int(state)

        def pick_touched(c, barred):
            prefix_tokens, extras = touched_tokens(c)
            eligible = ([token for token in prefix_tokens
                         if token != barred]
                        if isinstance(barred, int) else prefix_tokens)
            extra_count = len(extras) - (1 if isinstance(barred, tuple)
                                         and barred[0] == c else 0)
            index = int(rng.integers(len(eligible) + extra_count))
            if index < len(eligible):
                token = eligible[index]
                return token, int(updated[token]) % s
            extra_index = index - len(eligible)
            if isinstance(barred, tuple) and barred[0] == c \
                    and extra_index >= barred[1]:
                extra_index += 1
            return (c, extra_index), extras[extra_index]

        slot_state = [0] * spp
        slot_token: list = [None] * spp
        slot_cls = [int(cls[prefix_slots + position])
                    for position in range(spp)]
        for position in range(spp):
            c = slot_cls[position]
            offset = self._partner_offset[position]
            partner = position - offset if offset is not None else None
            same_class = (partner is not None
                          and slot_cls[partner] == c)
            barred = slot_token[partner] if same_class else None
            prefix_tokens, extras = touched_tokens(c)
            seen = len(prefix_tokens) + len(extras)
            if position < position_tau:
                fresh = True
            elif position == position_tau:
                fresh = False
            else:
                delta = 1 if same_class else 0
                fresh = (int(rng.integers(members[c] - delta))
                         >= seen - delta)
            if fresh:
                state = draw_fresh(c)
                extras.append(state)
                slot_token[position] = (c, len(extras) - 1)
                slot_state[position] = state
            else:
                token, state = pick_touched(c, barred)
                slot_token[position] = token
                slot_state[position] = state
        u, v = slot_state[0], slot_state[1]
        observed = None
        if spp == 4:
            observed = (slot_state[2], slot_state[3])
        if self._pair_counts is not None:
            self._pair_counts[u * s + v] += 1
        new_u, new_v = self.model.apply_scalar(u, v, rng, observed)
        counts = self._product_counts
        counts[slot_cls[0] * s + u] -= 1
        counts[slot_cls[1] * s + v] -= 1
        counts[slot_cls[0] * s + new_u] += 1
        counts[slot_cls[1] * s + new_v] += 1
