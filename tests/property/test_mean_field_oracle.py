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
"""

import numpy as np
import pytest

from repro.core.mean_field import drift_generator
from repro.engine import CountBackend, igt_model
from repro.engine.count import _MARGINALS_MAX_TOTAL, PROXY_MAX_N

K = 4

#: ``(n, interactions, replicates, distinct-index fallback)``; each
#: case runs in a few seconds.
CASES = [
    (10**7, 200_000, 100, False),
    (10**9, 50_000, 40, True),
]


def exact_mean(n: int, steps: int) -> np.ndarray:
    """``(I + A/m)^steps z0`` for all GTFT agents starting at index 0."""
    m, n_ad = n // 2, n // 4
    a = (m / n) * (n - 1 - n_ad) / (n - 1)
    b = (m / n) * n_ad / (n - 1)
    step = np.eye(K) + drift_generator(K, a, b) / m
    z0 = np.zeros(K)
    z0[0] = m
    return np.linalg.matrix_power(step, steps) @ z0


@pytest.mark.parametrize("n, steps, replicates, fallback", CASES,
                         ids=["hypergeometric-1e7", "distinct-index-1e9"])
def test_replicate_mean_matches_exact_recursion(n, steps, replicates,
                                                fallback):
    assert n > PROXY_MAX_N
    assert (n >= _MARGINALS_MAX_TOTAL) == fallback
    counts = np.zeros(K + 2, dtype=np.int64)
    counts[0] = n // 2      # every GTFT agent at generosity index 0
    counts[K] = n // 4      # AC
    counts[K + 1] = n // 4  # AD
    children = np.random.SeedSequence(20240519).spawn(replicates)
    finals = np.empty((replicates, K))
    for row, child in enumerate(children):
        engine = CountBackend(igt_model(K), counts, seed=child)
        assert engine._kernel is None  # birthday path, not the proxy
        result = engine.run(steps)
        assert int(result.counts.sum()) == n
        np.testing.assert_array_equal(result.counts[K:], counts[K:])
        finals[row] = result.counts[:K]
    mean = finals.mean(axis=0)
    se = finals.std(axis=0, ddof=1) / np.sqrt(replicates)
    exact = exact_mean(n, steps)
    varying = se > 0
    assert varying[:2].all()
    np.testing.assert_array_less(np.abs(mean - exact)[varying],
                                 5 * se[varying])
    # A coordinate no replicate ever reached must be one the mean flow
    # barely reaches either.
    assert np.all(exact[~varying] < 1.0)
