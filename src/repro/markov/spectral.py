"""Spectral diagnostics for reversible chains.

The spectral gap gives an independent handle on mixing:
``t_rel = 1/gap`` satisfies ``(t_rel − 1)·log 2 ≤ t_mix ≤ t_rel·log(4/π_min)``
for reversible chains (Levin–Peres Thms 12.4/12.5), which lets the benchmarks
cross-check the paper's coupling bound against an exact eigenvalue
computation on small Ehrenfest instances.
"""

from __future__ import annotations

import numpy as np

from repro.markov.chain import FiniteMarkovChain
from repro.utils.errors import InvalidParameterError


def _eigenvalues_reversible(chain: FiniteMarkovChain, pi: np.ndarray) -> np.ndarray:
    """Real eigenvalue spectrum of a reversible kernel via symmetrization.

    For reversible ``P``, ``D^{1/2} P D^{-1/2}`` (with ``D = diag(pi)``) is
    symmetric and shares its spectrum with ``P``.
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    pi = np.asarray(pi, dtype=float)
    if np.any(pi <= 0):
        raise InvalidParameterError(
            "spectral analysis requires a fully supported stationary "
            "distribution")
    sqrt_pi = np.sqrt(pi)
    P = chain.transition_matrix
    if sp.issparse(P):
        n = chain.n_states
        if n <= 2500:
            dense = P.toarray()
            sym = sqrt_pi[:, None] * dense / sqrt_pi[None, :]
            sym = 0.5 * (sym + sym.T)
            return np.linalg.eigvalsh(sym)
        D = sp.diags(sqrt_pi)
        D_inv = sp.diags(1.0 / sqrt_pi)
        sym = D @ P @ D_inv
        sym = 0.5 * (sym + sym.T)
        # Largest few eigenvalues in magnitude suffice for the gap.
        vals = spla.eigsh(sym, k=min(6, n - 1), which="LA",
                          return_eigenvectors=False)
        lows = spla.eigsh(sym, k=min(6, n - 1), which="SA",
                          return_eigenvectors=False)
        return np.sort(np.concatenate([lows, vals]))
    dense = np.asarray(P, dtype=float)
    sym = sqrt_pi[:, None] * dense / sqrt_pi[None, :]
    sym = 0.5 * (sym + sym.T)
    return np.linalg.eigvalsh(sym)


def spectral_gap(chain: FiniteMarkovChain, pi=None) -> float:
    """Absolute spectral gap ``1 − max{|λ| : λ ≠ 1}`` of a reversible chain."""
    if pi is None:
        pi = chain.stationary_distribution()
    eigenvalues = _eigenvalues_reversible(chain, np.asarray(pi, dtype=float))
    eigenvalues = np.sort(eigenvalues)
    # Drop the top eigenvalue 1 (within numerical noise).
    if abs(eigenvalues[-1] - 1.0) > 1e-6:
        raise InvalidParameterError(
            f"largest eigenvalue is {eigenvalues[-1]!r}, expected 1; "
            "is the chain stochastic and reversible?")
    rest = eigenvalues[:-1]
    if rest.size == 0:
        return 1.0
    slem = float(np.max(np.abs(rest)))
    return 1.0 - slem


def relaxation_time(chain: FiniteMarkovChain, pi=None) -> float:
    """Relaxation time ``t_rel = 1 / spectral_gap``."""
    gap = spectral_gap(chain, pi)
    if gap <= 0:
        raise InvalidParameterError("chain has zero spectral gap (periodic?)")
    return 1.0 / gap
