"""Large-n law oracle: the count engine against the exact mean recursion.

No exact chain can be enumerated at ``n = 10^7`` or ``10^9``, but the
k-IGT strategy dynamics have an exactly linear drift while the AC/AD
counts stay fixed: with ``m`` GTFT agents, every interaction moves the
expected generosity counts by

    E[z_{t+1}] = (I + A/m) E[z_t],

with ``A = drift_generator(k, a, b)`` and the exact finite-``n`` rates
``a = (m/n)(n-1-n_AD)/(n-1)`` (a GTFT initiator meets a non-AD partner)
and ``b = (m/n) n_AD/(n-1)`` (it meets an AD partner).  Averaging
independent replicate runs of :class:`~repro.engine.CountBackend` must
land within the CLT band of that mean on every coordinate.  The two
sizes exercise the two birthday-path samplers:
:func:`~repro.engine.count.sample_without_replacement` delegates to
numpy's hypergeometric sampler at ``n = 10^7`` and takes the exact
distinct-index fallback at ``n = 10^9``.

The weighted lift (:class:`~repro.engine.WeightedCountBackend`) keeps the
drift linear per weight class: a class-``c`` GTFT agent initiates with
probability ``w_c/W`` and meets an AD responder with probability
``W_AD/(W − w_c)``, so

    E[z_{c,t+1}] = (I + drift_generator(k, up_c, down_c)) E[z_{c,t}],

with ``up_c = (w_c/W)(W − w_c − W_AD)/(W − w_c)`` and
``down_c = (w_c/W)·W_AD/(W − w_c)``.  Past
:data:`~repro.engine.WEIGHTED_PROXY_MAX_N` its replicates run the
heterogeneous birthday sampler.

Means cannot see a sampler that gets the fluctuations wrong, so the
replicate covariances are held to the exact second moments too.  Only
the initiator moves, at rates linear in ``z``, so with ``L = A/m`` and
``D(μ) = Σ_j μ_j (a·u_j u_jᵀ + b·d_j d_jᵀ)/m`` (``u_j``, ``d_j`` the
up/down moves out of index ``j``) the centered second moments close:

    Cov_{t+1} = Cov_t + L Cov_t + Cov_t Lᵀ + D(μ_t) − (Lμ_t)(Lμ_t)ᵀ.

``(Lμ_t)(Lμ_t)ᵀ = L M_t Lᵀ`` with ``M_{t+1} = P M_t Pᵀ``
(``P = I + L``), so ``(Cov, M, μ)`` evolves linearly and ``T`` steps are one matrix
power (repeated squaring).  ``E[zzᵀ] − μμᵀ`` is never formed: at
``n = 10^9`` its float64 cancellation wipes out the variance.
"""

import math

import numpy as np
import pytest

from repro.core.mean_field import drift_generator
from repro.engine import (
    WEIGHTED_PROXY_MAX_N,
    CountBackend,
    WeightedCountBackend,
    igt_model,
)
from repro.engine.count import _MARGINALS_MAX_TOTAL, PROXY_MAX_N

K = 4

#: ``(n, interactions, replicates, distinct-index fallback)``; each
#: case runs in a few seconds.
CASES = [
    (10**7, 200_000, 100, False),
    (10**9, 50_000, 40, True),
]

#: ``(n, interactions, replicates, distinct-index fallback)`` of the
#: covariance cases, each a few seconds.  Short runs buy replicates: the
#: standard error of a sample variance is ``sqrt(2/R)`` of it, whatever
#: the horizon.
COV_CASES = [
    (10**7, 20_000, 1500, False),
    (10**9, 20_000, 1000, True),
]

#: ``(n, class weights, interactions, replicates)`` of the weighted-lift
#: case, a few seconds.
WEIGHTED_CASE = (2 * 10**7, (1.0, 4.0), 200_000, 40)


def start_counts(n: int, with_ac: bool) -> np.ndarray:
    """A quarter of the agents AD, a quarter AC (or none), and every
    GTFT agent at generosity index 0.

    Without AC agents three quarters of the initiators are GTFT at one
    index, which is where a wrong pairing law moves the variance most.
    """
    counts = np.zeros(K + 2, dtype=np.int64)
    counts[K] = n // 4 if with_ac else 0
    counts[K + 1] = n // 4
    counts[0] = n - counts[K:].sum()
    return counts


def rates(counts) -> tuple[int, float, float]:
    """``(m, a, b)``: GTFT agents and their exact up/down rates."""
    n, m, n_ad = int(counts.sum()), int(counts[:K].sum()), int(counts[K + 1])
    a = (m / n) * (n - 1 - n_ad) / (n - 1)
    b = (m / n) * n_ad / (n - 1)
    return m, a, b


def exact_mean(counts, steps: int) -> np.ndarray:
    """``(I + A/m)^steps z0`` from the start ``counts``."""
    m, a, b = rates(counts)
    step = np.eye(K) + drift_generator(K, a, b) / m
    return np.linalg.matrix_power(step, steps) @ counts[:K]


def exact_moments(counts, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact ``(E[z_T], Cov(z_T))`` by doubling the linear recursion on
    ``(Cov, μμᵀ, μ)`` (see the module docstring)."""
    m, a, b = rates(counts)
    eye = np.eye(K)
    move = drift_generator(K, a, b) / m
    step = eye + move
    noise = np.zeros((K * K, K))  # column j: vec of D's j-th term
    for j in range(K):
        term = np.zeros((K, K))
        if j < K - 1:
            up = eye[j + 1] - eye[j]
            term += a * np.outer(up, up)
        if j > 0:
            down = eye[j - 1] - eye[j]
            term += b * np.outer(down, down)
        noise[:, j] = term.ravel() / m
    s = K * K
    system = np.zeros((2 * s + K, 2 * s + K))
    system[:s, :s] = np.eye(s) + np.kron(move, eye) + np.kron(eye, move)
    system[:s, s:2 * s] = -np.kron(move, move)
    system[:s, 2 * s:] = noise
    system[s:2 * s, s:2 * s] = np.kron(step, step)
    system[2 * s:, 2 * s:] = step
    z0 = counts[:K].astype(float)
    state = np.concatenate((np.zeros(s), np.outer(z0, z0).ravel(), z0))
    state = np.linalg.matrix_power(system, steps) @ state
    return state[2 * s:], state[:s].reshape(K, K)


def replicate_finals(counts, steps: int, replicates: int,
                     seed: int) -> np.ndarray:
    """Final generosity counts of independent birthday-path replicates."""
    children = np.random.SeedSequence(seed).spawn(replicates)
    finals = np.empty((replicates, K))
    for row, child in enumerate(children):
        engine = CountBackend(igt_model(K), counts, seed=child)
        assert engine._kernel is None  # birthday path, not the proxy
        result = engine.run(steps)
        assert int(result.counts.sum()) == int(counts.sum())
        np.testing.assert_array_equal(result.counts[K:], counts[K:])
        finals[row] = result.counts[:K]
    return finals


def weighted_start_counts(n: int) -> np.ndarray:
    """``(class, state)`` counts: half the agents in the light class, half
    in the heavy one, every AD agent heavy, every GTFT agent at index 0.

    At weights ``(1, 4)`` a responder is AD with probability
    ``W_AD/W = 0.4`` although only ``n_AD/n = 0.25`` of the agents are, so
    a responder law that ignores the weights moves the means by far more
    than the band.
    """
    counts = np.zeros((2, K + 2), dtype=np.int64)
    counts[0, 0] = n // 2
    counts[1, K + 1] = n // 4
    counts[1, 0] = n // 2 - n // 4
    return counts


def weighted_exact_mean(counts, weights, steps: int) -> np.ndarray:
    """Per class, ``(I + drift_generator(k, up_c, down_c))^steps z_c``."""
    weights = np.asarray(weights)
    total = float(counts.sum(axis=1) @ weights)
    w_ad = float(counts[:, K + 1] @ weights)
    means = np.empty((weights.size, K))
    for c, w in enumerate(weights):
        up = (w / total) * (total - w - w_ad) / (total - w)
        down = (w / total) * w_ad / (total - w)
        step = np.eye(K) + drift_generator(K, up, down)
        means[c] = np.linalg.matrix_power(step, steps) @ counts[c, :K]
    return means


def poisson_tails(total: int, mean: float) -> tuple[float, float]:
    """``(P(X <= total), P(X >= total))`` for ``X ~ Poisson(mean)``."""
    term = math.exp(-mean)
    below = 0.0
    for x in range(total):
        below += term
        term *= mean / (x + 1)
    return below + term, 1.0 - below


@pytest.mark.parametrize("n, steps, replicates, fallback", CASES,
                         ids=["hypergeometric-1e7", "distinct-index-1e9"])
def test_replicate_mean_matches_exact_recursion(n, steps, replicates,
                                                fallback):
    assert n > PROXY_MAX_N
    assert (n >= _MARGINALS_MAX_TOTAL) == fallback
    counts = start_counts(n, with_ac=True)
    finals = replicate_finals(counts, steps, replicates, 20240519)
    mean = finals.mean(axis=0)
    se = finals.std(axis=0, ddof=1) / np.sqrt(replicates)
    exact = exact_mean(counts, steps)
    varying = se > 0
    assert varying[:2].all()
    np.testing.assert_array_less(np.abs(mean - exact)[varying],
                                 5 * se[varying])
    # A coordinate no replicate ever reached must be one the mean flow
    # barely reaches either.
    assert np.all(exact[~varying] < 1.0)


def test_weighted_replicate_mean_matches_exact_recursion():
    n, weights, steps, replicates = WEIGHTED_CASE
    assert n > WEIGHTED_PROXY_MAX_N
    counts = weighted_start_counts(n)
    children = np.random.SeedSequence(20261018).spawn(replicates)
    finals = np.empty((replicates, 2, K))
    for row, child in enumerate(children):
        engine = WeightedCountBackend(igt_model(K), counts, weights,
                                      seed=child)
        assert engine._kernel is None  # heterogeneous birthday path
        engine.run(steps)
        lifted = engine.class_state_counts
        np.testing.assert_array_equal(lifted.sum(axis=1),
                                      counts.sum(axis=1))
        np.testing.assert_array_equal(lifted[:, K:], counts[:, K:])
        finals[row] = lifted[:, :K]
    finals = finals.reshape(replicates, -1)
    exact = weighted_exact_mean(counts, weights, steps).ravel()
    # Coordinates the flow fills: the CLT band of the replicate mean.
    dense = exact >= 1.0
    assert dense.sum() >= 4
    mean = finals[:, dense].mean(axis=0)
    se = finals[:, dense].std(axis=0, ddof=1) / np.sqrt(replicates)
    np.testing.assert_array_less(np.abs(mean - exact[dense]), 5 * se)
    # Sparse coordinates (both classes' top level): a plausible Poisson
    # replicate total.
    for j in np.flatnonzero(~dense):
        total = int(finals[:, j].sum())
        low, high = poisson_tails(total, replicates * exact[j])
        assert min(low, high) > 1e-6, \
            f"coordinate {j}: total {total} vs " \
            f"Poisson({replicates * exact[j]:.3g})"


@pytest.mark.parametrize("n, steps, replicates, fallback", COV_CASES,
                         ids=["hypergeometric-1e7", "distinct-index-1e9"])
def test_replicate_covariance_matches_exact_recursion(n, steps, replicates,
                                                      fallback):
    assert (n >= _MARGINALS_MAX_TOTAL) == fallback
    counts = start_counts(n, with_ac=False)
    finals = replicate_finals(counts, steps, replicates, 20261017)
    mean, cov = exact_moments(counts, steps)
    np.testing.assert_allclose(mean, exact_mean(counts, steps), rtol=1e-9)
    # Coordinates the flow fills (exact mean >= 1): every sample
    # (co)variance within 5 normal-theory standard errors,
    # Var(S_ij) = (C_ii C_jj + C_ij^2) / (R - 1).
    dense = np.flatnonzero(mean >= 1.0)
    assert dense.size >= 2
    exact = cov[np.ix_(dense, dense)]
    sample = np.cov(finals[:, dense], rowvar=False)
    variance = np.diag(exact)
    se = np.sqrt((np.outer(variance, variance) + exact ** 2)
                 / (replicates - 1))
    z = (sample - exact) / se
    assert np.all(np.abs(z) < 5), f"covariance z-scores\n{z.round(2)}"
    # Sparse coordinates (exact mean < 1) are rare-event counts: their
    # replicate total must be a plausible Poisson(R * mean) draw, which
    # a CLT band cannot judge.
    for j in np.flatnonzero(mean < 1.0):
        total = int(finals[:, j].sum())
        low, high = poisson_tails(total, replicates * mean[j])
        assert min(low, high) > 1e-6, \
            f"index {j}: total {total} vs Poisson({replicates * mean[j]:.3g})"
