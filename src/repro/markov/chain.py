"""Generic finite Markov chains with exact stationary and mixing analysis.

The paper's exact results (Theorem 2.4, the detailed-balance verification of
Appendix A.3, and the distance-to-stationarity definition of Section 2.1) are
all statements about finite chains; this class makes them checkable for any
concrete instance small enough to hold in memory.
"""

from __future__ import annotations

import numpy as np

from repro.markov.distributions import total_variation
from repro.utils import as_generator, check_positive_int
from repro.utils.errors import ConvergenceError, InvalidParameterError


def _to_dense(matrix) -> np.ndarray:
    import scipy.sparse as sp

    if sp.issparse(matrix):
        return matrix.toarray()
    return np.asarray(matrix, dtype=float)


class FiniteMarkovChain:
    """A discrete-time Markov chain on a finite state space.

    Parameters
    ----------
    transition_matrix:
        Row-stochastic ``(n, n)`` matrix (dense array or scipy sparse).
    state_labels:
        Optional sequence of hashable labels aligned with matrix indices
        (e.g. the count vectors of a :class:`~repro.markov.CompositionSpace`).
    validate:
        When true (default), check row-stochasticity on construction.
    """

    def __init__(self, transition_matrix, state_labels=None, validate: bool = True):
        import scipy.sparse as sp

        if sp.issparse(transition_matrix):
            self._P = sp.csr_matrix(transition_matrix, dtype=float)
        else:
            self._P = np.asarray(transition_matrix, dtype=float)
        shape = self._P.shape
        if len(shape) != 2 or shape[0] != shape[1] or shape[0] == 0:
            raise InvalidParameterError(
                f"transition matrix must be square and non-empty, got {shape}")
        self._n = shape[0]
        if state_labels is not None and len(state_labels) != self._n:
            raise InvalidParameterError(
                f"{len(state_labels)} labels for {self._n} states")
        self.state_labels = list(state_labels) if state_labels is not None else None
        if validate:
            self._check_stochastic()

    # ------------------------------------------------------------------
    # Basic structure
    # ------------------------------------------------------------------
    @property
    def n_states(self) -> int:
        """Number of states."""
        return self._n

    @property
    def transition_matrix(self):
        """The underlying row-stochastic matrix (dense or CSR sparse)."""
        return self._P

    def dense(self) -> np.ndarray:
        """Return the transition matrix as a dense array."""
        return _to_dense(self._P)

    def _check_stochastic(self, atol: float = 1e-9) -> None:
        import scipy.sparse as sp

        if sp.issparse(self._P):
            row_sums = np.asarray(self._P.sum(axis=1)).ravel()
            min_entry = self._P.data.min() if self._P.nnz else 0.0
        else:
            row_sums = self._P.sum(axis=1)
            min_entry = self._P.min()
        if min_entry < -atol:
            raise InvalidParameterError("transition matrix has negative entries")
        if np.max(np.abs(row_sums - 1.0)) > atol:
            worst = int(np.argmax(np.abs(row_sums - 1.0)))
            raise InvalidParameterError(
                f"row {worst} sums to {row_sums[worst]!r}, expected 1.0")

    # ------------------------------------------------------------------
    # Distributions
    # ------------------------------------------------------------------
    def step_distribution(self, dist: np.ndarray) -> np.ndarray:
        """Advance a row distribution one step: ``dist @ P``."""
        return np.asarray(dist @ self._P).ravel()

    def distribution_after(self, dist: np.ndarray, t: int) -> np.ndarray:
        """Advance a row distribution ``t`` steps."""
        t = check_positive_int("t", t, minimum=0)
        current = np.asarray(dist, dtype=float)
        for _ in range(t):
            current = self.step_distribution(current)
        return current

    def stationary_distribution(self, method: str = "auto",
                                tol: float = 1e-12,
                                max_iterations: int = 2_000_000) -> np.ndarray:
        """Compute a stationary distribution ``pi`` with ``pi P = pi``.

        ``method='solve'`` uses a dense linear solve (exact up to conditioning;
        requires a unique stationary distribution), ``method='power'`` uses
        power iteration from the uniform distribution, and ``'auto'`` picks
        ``solve`` for up to 4000 states and ``power`` above that.
        """
        if method == "auto":
            method = "solve" if self._n <= 4000 else "power"
        if method == "solve":
            dense = self.dense()
            # Solve pi (P - I) = 0 with the normalization sum(pi) = 1 by
            # replacing one column of the transposed system.
            system = dense.T - np.eye(self._n)
            system[-1, :] = 1.0
            rhs = np.zeros(self._n)
            rhs[-1] = 1.0
            pi = np.linalg.solve(system, rhs)
            pi = np.clip(pi, 0.0, None)
            return pi / pi.sum()
        if method == "power":
            pi = np.full(self._n, 1.0 / self._n)
            for _ in range(max_iterations):
                nxt = self.step_distribution(pi)
                if total_variation(nxt, pi) < tol:
                    return nxt / nxt.sum()
                pi = nxt
            raise ConvergenceError(
                f"power iteration did not converge in {max_iterations} steps")
        raise InvalidParameterError(f"unknown method {method!r}")

    def is_stationary(self, pi, atol: float = 1e-9) -> bool:
        """Check whether ``pi P = pi`` within ``atol`` (in TV distance)."""
        pi = np.asarray(pi, dtype=float)
        return total_variation(self.step_distribution(pi), pi) <= atol

    def satisfies_detailed_balance(self, pi, atol: float = 1e-9) -> bool:
        """Check the detailed-balance equations ``pi_x P(x,y) = pi_y P(y,x)``.

        This is the reversibility criterion the paper uses to verify its
        stationary-distribution Ansatz (Appendix A.3).
        """
        import scipy.sparse as sp

        pi = np.asarray(pi, dtype=float)
        if sp.issparse(self._P):
            coo = self._P.tocoo()
            flow = pi[coo.row] * coo.data
            reverse = np.asarray(
                self._P[coo.col, coo.row]).ravel() * pi[coo.col]
            return bool(np.all(np.abs(flow - reverse) <= atol))
        dense = self.dense()
        flow = pi[:, None] * dense
        return bool(np.all(np.abs(flow - flow.T) <= atol))

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def sample_path(self, start: int, steps: int, seed=None) -> np.ndarray:
        """Sample a trajectory of state indices of length ``steps + 1``.

        Intended for small chains (uses one categorical draw per step).
        """
        rng = as_generator(seed)
        steps = check_positive_int("steps", steps, minimum=0)
        start = check_positive_int("start", start, minimum=0)
        if start >= self._n:
            raise InvalidParameterError(f"start={start} out of range")
        dense = self.dense()
        cumulative = np.cumsum(dense, axis=1)
        path = np.empty(steps + 1, dtype=np.int64)
        path[0] = start
        uniforms = rng.random(steps)
        current = start
        for t in range(steps):
            current = int(np.searchsorted(cumulative[current], uniforms[t], side="right"))
            current = min(current, self._n - 1)
            path[t + 1] = current
        return path

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        import scipy.sparse as sp

        kind = "sparse" if sp.issparse(self._P) else "dense"
        return f"FiniteMarkovChain(n_states={self._n}, {kind})"
