"""The ``(k, a, b, m)``-Ehrenfest process (paper Definition 2.3).

``m`` balls sit in ``k`` ordered urns.  At each step an urn ``j`` is sampled
proportionally to its load ``x_j / m``; the selected ball moves to urn
``j + 1`` with probability ``a`` and to urn ``j - 1`` with probability ``b``
(moves off the ends are truncated, i.e. become null steps).  For
``k = 2, a = b = 1/2`` this is the classical Ehrenfest urn from statistical
physics; the paper introduces the weighted, high-dimensional generalization
and proves:

* **Theorem 2.4** — the stationary distribution is
  ``Multinomial(m, p)`` with ``p_j ∝ λ^{j-1}`` where ``λ = a / b``.
* **Theorem 2.5** — mixing time ``O(min{k/|a−b|, k²} · m log m)`` (upper,
  via a coordinate coupling) and ``Ω(km)`` (lower, via the diameter).

This class exposes three equivalent simulation views:

1. the *count chain* over ``Delta_k^m`` (the paper's definition),
2. the *coordinate chain* over ``{1..k}^m`` used in the coupling proof
   (each ball's urn index evolves as a lazy reflected walk), and
3. an exact dense/sparse transition matrix for small state spaces.

The count vector of the coordinate chain is distributed exactly as the count
chain, which gives an O(1)-per-step simulator and a vectorized
"state at time t" sampler.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.markov.chain import FiniteMarkovChain
from repro.markov.distributions import multinomial_pmf_over_space
from repro.markov.random_walks import paper_absorption_bound
from repro.markov.state_space import CompositionSpace, num_compositions
from repro.utils import as_generator, check_positive_int
from repro.utils.errors import InvalidParameterError


def geometric_weights(k: int, lam: float) -> np.ndarray:
    """The cell weights ``p_j = λ^{j-1} / Σ_i λ^{i-1}``, ``j = 1..k``.

    Theorem 2.4's stationary weights (and, with ``λ = (1−β)/β``, those of
    Theorem 2.7).  Computed in log space and divided through by the
    largest power, so they stay finite for large ``λ`` and ``k``.  A
    ``λ`` that is not positive and finite is refused.
    """
    k = check_positive_int("k", k)
    if not 0 < lam < math.inf:
        raise InvalidParameterError(
            f"lam must be positive and finite, got {lam!r}")
    logs = np.arange(k, dtype=float) * math.log(lam)
    logs -= logs.max()
    weights = np.exp(logs)
    return weights / weights.sum()


@dataclass(frozen=True)
class EhrenfestTransition:
    """One non-null directed transition of the count chain.

    Attributes
    ----------
    source, target:
        Count vectors in ``Delta_k^m``.
    coefficient:
        Which rate parameter drives the move: ``"a"`` (ball up) or ``"b"``
        (ball down).  This is the edge coloring of the paper's Figure 2.
    probability:
        The one-step transition probability ``a·x_j/m`` or ``b·x_{j+1}/m``.
    """

    source: tuple[int, ...]
    target: tuple[int, ...]
    coefficient: str
    probability: float


class EhrenfestProcess:
    """The ``(k, a, b, m)``-Ehrenfest process of Definition 2.3.

    Parameters
    ----------
    k:
        Number of urns, ``k >= 2``.
    a:
        Up-move probability, ``a > 0``.
    b:
        Down-move probability, ``b > 0`` with ``a + b <= 1``.
    m:
        Number of balls, ``m >= 1``.
    """

    def __init__(self, k: int, a: float, b: float, m: int):
        self.k = check_positive_int("k", k, minimum=2)
        self.m = check_positive_int("m", m, minimum=1)
        self.a = float(a)
        self.b = float(b)
        if not (self.a > 0 and self.b > 0):
            raise InvalidParameterError(
                f"a and b must be positive, got a={a!r}, b={b!r}")
        if self.a + self.b > 1.0 + 1e-12:
            raise InvalidParameterError(
                f"a + b must be at most 1, got {self.a + self.b!r}")

    # ------------------------------------------------------------------
    # Stationary characterization (Theorem 2.4)
    # ------------------------------------------------------------------
    @property
    def lam(self) -> float:
        """The bias ratio ``λ = a / b`` from Theorem 2.4."""
        return self.a / self.b

    def stationary_weights(self) -> np.ndarray:
        """The per-urn weights ``p_j = λ^{j-1} / Σ_i λ^{i-1}`` (Theorem 2.4).

        Also the stationary law of a single ball, i.e. of the process at
        ``m = 1`` (the lazy reflected walk on ``{1..k}``).
        """
        return geometric_weights(self.k, self.lam)

    def stationary_distribution(self, space: CompositionSpace | None = None) -> np.ndarray:
        """Exact stationary PMF over ``Delta_k^m`` (multinomial, Theorem 2.4)."""
        if space is None:
            space = self.space()
        self._check_space(space)
        return multinomial_pmf_over_space(space, self.stationary_weights())

    def mean_stationary_counts(self) -> np.ndarray:
        """Expected stationary counts ``E[π_j] = m · p_j``."""
        return self.m * self.stationary_weights()

    def sample_stationary(self, seed=None, size: int | None = None) -> np.ndarray:
        """Draw count vectors exactly from the stationary distribution."""
        rng = as_generator(seed)
        draw = rng.multinomial(self.m, self.stationary_weights(),
                               size=size if size is not None else 1)
        return draw if size is not None else draw[0]

    # ------------------------------------------------------------------
    # Exact chain over Delta_k^m
    # ------------------------------------------------------------------
    def space(self) -> CompositionSpace:
        """The count state space ``Delta_k^m``."""
        return CompositionSpace(self.m, self.k)

    def n_states(self) -> int:
        """``|Delta_k^m| = C(m + k - 1, k - 1)``."""
        return num_compositions(self.m, self.k)

    def _check_space(self, space: CompositionSpace) -> None:
        if space.m != self.m or space.k != self.k:
            raise InvalidParameterError(
                f"space has (m={space.m}, k={space.k}) but the process has "
                f"(m={self.m}, k={self.k})")

    def transitions_from(self, x) -> Iterator[EhrenfestTransition]:
        """Yield all non-null transitions out of count vector ``x``."""
        x = tuple(int(v) for v in x)
        if len(x) != self.k or sum(x) != self.m or min(x) < 0:
            raise InvalidParameterError(
                f"x must lie in Delta_{self.k}^{self.m}, got {x!r}")
        for j in range(self.k - 1):
            if x[j] > 0:
                target = list(x)
                target[j] -= 1
                target[j + 1] += 1
                yield EhrenfestTransition(
                    source=x, target=tuple(target), coefficient="a",
                    probability=self.a * x[j] / self.m)
            if x[j + 1] > 0:
                target = list(x)
                target[j + 1] -= 1
                target[j] += 1
                yield EhrenfestTransition(
                    source=x, target=tuple(target), coefficient="b",
                    probability=self.b * x[j + 1] / self.m)

    def transition_matrix(self, space: CompositionSpace | None = None,
                          sparse: bool = True):
        """Build the exact one-step kernel over ``Delta_k^m``.

        Returns a scipy CSR matrix by default (the kernel has only
        ``O(k)`` non-null moves per state) or a dense array when
        ``sparse=False``.
        """
        import scipy.sparse as sp

        if space is None:
            space = self.space()
        self._check_space(space)
        n = len(space)
        rows: list[int] = []
        cols: list[int] = []
        vals: list[float] = []
        for i, x in enumerate(space):
            off_diagonal = 0.0
            for transition in self.transitions_from(x):
                rows.append(i)
                cols.append(space.index(transition.target))
                vals.append(transition.probability)
                off_diagonal += transition.probability
            rows.append(i)
            cols.append(i)
            vals.append(1.0 - off_diagonal)
        matrix = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
        return matrix if sparse else matrix.toarray()

    def exact_chain(self, space: CompositionSpace | None = None) -> FiniteMarkovChain:
        """Wrap the exact kernel in a :class:`FiniteMarkovChain`."""
        if space is None:
            space = self.space()
        matrix = self.transition_matrix(space)
        return FiniteMarkovChain(matrix, state_labels=space.states)

    # ------------------------------------------------------------------
    # Simulation: count view (O(1) per step via the coordinate view)
    # ------------------------------------------------------------------
    def initial_coordinates(self, x0, seed=None) -> np.ndarray:
        """Return a coordinate vector in ``{1..k}^m`` whose counts equal ``x0``.

        Ball identities are exchangeable, so any consistent assignment gives
        the same count-chain law; a deterministic block assignment is used.
        """
        x0 = np.asarray(x0, dtype=np.int64)
        if x0.size != self.k or x0.sum() != self.m or x0.min() < 0:
            raise InvalidParameterError(
                f"x0 must lie in Delta_{self.k}^{self.m}, got {x0!r}")
        return np.repeat(np.arange(1, self.k + 1), x0)

    @staticmethod
    def counts_from_coordinates(coords: np.ndarray, k: int) -> np.ndarray:
        """Count vector of a coordinate configuration in ``{1..k}^m``."""
        return np.bincount(coords - 1, minlength=k).astype(np.int64)

    def simulate_counts(self, x0, steps: int, seed=None,
                        observe_every: int | None = None) -> np.ndarray:
        """Simulate the count chain for ``steps`` steps.

        Uses the coordinate representation internally (one ball index update
        per step), which reproduces the count-chain law exactly and runs in
        O(1) per step.

        Parameters
        ----------
        x0:
            Initial count vector in ``Delta_k^m``.
        steps:
            Number of steps.
        observe_every:
            When ``None`` (default) return only the final count vector of
            shape ``(k,)``.  Otherwise return an array of shape
            ``(steps // observe_every + 1, k)`` holding the trajectory
            sampled every ``observe_every`` steps (including the initial
            state).
        """
        steps = check_positive_int("steps", steps, minimum=0)
        rng = as_generator(seed)
        coords = self.initial_coordinates(x0)
        counts = self.counts_from_coordinates(coords, self.k)
        if observe_every is not None:
            observe_every = check_positive_int("observe_every", observe_every)
            recorded = np.empty((steps // observe_every + 1, self.k),
                                dtype=np.int64)
            recorded[0] = counts
        block = 65536
        done = 0
        a, b = self.a, self.b
        k = self.k
        row = 1
        while done < steps:
            batch = min(block, steps - done)
            picks = rng.integers(0, self.m, size=batch)
            uniforms = rng.random(batch)
            for offset in range(batch):
                i = picks[offset]
                u = uniforms[offset]
                value = coords[i]
                if u < a:
                    if value < k:
                        coords[i] = value + 1
                        counts[value - 1] -= 1
                        counts[value] += 1
                elif u < a + b:
                    if value > 1:
                        coords[i] = value - 1
                        counts[value - 1] -= 1
                        counts[value - 2] += 1
                if observe_every is not None \
                        and (done + offset + 1) % observe_every == 0:
                    recorded[row] = counts
                    row += 1
            done += batch
        if observe_every is not None:
            return recorded[:row]
        return counts

    def sample_state_at(self, x0, t: int, seed=None, size: int = 1) -> np.ndarray:
        """Draw ``size`` independent samples of the count vector at time ``t``.

        Exploits that the coordinates evolve independently given how many
        times each is selected: the per-coordinate selection counts are
        multinomial, after which each ball performs its own lazy reflected
        walk.  Vectorized over balls and replicas — far faster than ``size``
        sequential simulations for large ``t``.

        Returns an array of shape ``(size, k)``.
        """
        t = check_positive_int("t", t, minimum=0)
        size = check_positive_int("size", size, minimum=1)
        rng = as_generator(seed)
        base = self.initial_coordinates(x0)
        out = np.empty((size, self.k), dtype=np.int64)
        for r in range(size):
            updates = rng.multinomial(t, np.full(self.m, 1.0 / self.m))
            coords = base.copy()
            remaining = updates.copy()
            active = remaining > 0
            while np.any(active):
                u = rng.random(self.m)
                go_up = active & (u < self.a) & (coords < self.k)
                go_down = active & (u >= self.a) & (u < self.a + self.b) & (coords > 1)
                coords[go_up] += 1
                coords[go_down] -= 1
                remaining[active] -= 1
                active = remaining > 0
            out[r] = self.counts_from_coordinates(coords, self.k)
        return out

    # ------------------------------------------------------------------
    # Mixing-time bounds (Theorem 2.5 / Lemma A.8 / Proposition A.9)
    # ------------------------------------------------------------------
    def phi(self) -> float:
        """The quantity ``Φ`` of Lemma A.8.

        ``Φ = min{k/|a−b|, k²}·m`` when ``a ≠ b`` and ``k²·m`` when
        ``a = b``; the coupling time is below ``2Φ·log(4m)`` with
        probability at least 3/4.  The per-ball factor is Lemma A.5's
        absorption bound.
        """
        return paper_absorption_bound(self.k, self.a, self.b) * self.m

    def mixing_time_upper_bound(self) -> float:
        """The paper's coupling upper bound ``2Φ·log(4m)`` (Lemma A.8)."""
        return 2.0 * self.phi() * math.log(4.0 * self.m)

    def mixing_time_lower_bound(self) -> float:
        """The diameter lower bound ``km/2`` (Proposition A.9)."""
        return self.k * self.m / 2.0

    def diameter(self) -> int:
        """Graph diameter of the transition structure.

        Moving all ``m`` balls from urn 1 to urn ``k`` takes ``(k-1)·m``
        single-ball moves, and no pair of states is further apart; the paper
        bounds this below by ``Ω(km)`` (Proposition A.9).
        """
        return (self.k - 1) * self.m

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"EhrenfestProcess(k={self.k}, a={self.a}, b={self.b}, "
                f"m={self.m})")


def classic_two_urn_process(m: int) -> EhrenfestProcess:
    """The classical (unweighted, two-urn) Ehrenfest process.

    ``k = 2`` with ``a = b = 1/2``: at each step a ball is chosen uniformly
    and moved to the other urn with probability 1/2 (the lazy version that
    makes the chain aperiodic).  Its stationary law is ``Binomial(m, 1/2)``
    and it exhibits cutoff at ``(1/2)·m·log m`` (Remark 2.6).
    """
    return EhrenfestProcess(k=2, a=0.5, b=0.5, m=m)
