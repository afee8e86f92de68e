"""Statistical helpers for validating theory against simulation."""

from __future__ import annotations

import numpy as np

from repro.utils import as_generator, check_positive_int
from repro.utils.errors import InvalidParameterError


def mean_confidence_interval(samples, confidence: float = 0.95) -> tuple[float, float, float]:
    """``(mean, low, high)`` via the t-distribution.

    Degenerates to ``(x, x, x)`` for a single sample.
    """
    from scipy import stats as scipy_stats

    arr = np.asarray(samples, dtype=float)
    if arr.size == 0:
        raise InvalidParameterError("need at least one sample")
    mean = float(arr.mean())
    if arr.size == 1 or np.allclose(arr, arr[0]):
        return mean, mean, mean
    sem = scipy_stats.sem(arr)
    margin = sem * scipy_stats.t.ppf((1 + confidence) / 2.0, arr.size - 1)
    return mean, mean - float(margin), mean + float(margin)


def bootstrap_confidence_interval(samples, statistic=np.mean,
                                  n_resamples: int = 2000,
                                  confidence: float = 0.95,
                                  seed=None) -> tuple[float, float, float]:
    """``(point, low, high)`` percentile bootstrap for any statistic."""
    arr = np.asarray(samples, dtype=float)
    if arr.size == 0:
        raise InvalidParameterError("need at least one sample")
    n_resamples = check_positive_int("n_resamples", n_resamples)
    rng = as_generator(seed)
    point = float(statistic(arr))
    resampled = np.empty(n_resamples)
    for i in range(n_resamples):
        resampled[i] = statistic(rng.choice(arr, size=arr.size, replace=True))
    alpha = 1.0 - confidence
    low, high = np.quantile(resampled, [alpha / 2.0, 1.0 - alpha / 2.0])
    return point, float(low), float(high)


def chi_square_goodness_of_fit(observed_counts, expected_probs,
                               min_expected: float = 5.0) -> tuple[float, float]:
    """``(statistic, p_value)`` χ² GOF test with small-bin pooling.

    Bins whose expected count falls below ``min_expected`` are pooled into a
    single tail bin (the standard validity fix); with fewer than two
    post-pooling bins the test degenerates to ``(0.0, 1.0)``.
    """
    from scipy import stats as scipy_stats

    observed = np.asarray(observed_counts, dtype=float)
    probs = np.asarray(expected_probs, dtype=float)
    if observed.shape != probs.shape:
        raise InvalidParameterError(
            f"shapes differ: {observed.shape} vs {probs.shape}")
    total = observed.sum()
    if total <= 0:
        raise InvalidParameterError("observed counts sum to zero")
    expected = probs / probs.sum() * total
    keep = expected >= min_expected
    if np.all(keep):
        obs_binned, exp_binned = observed, expected
    else:
        obs_binned = np.append(observed[keep], observed[~keep].sum())
        exp_binned = np.append(expected[keep], expected[~keep].sum())
    if obs_binned.size < 2:
        return 0.0, 1.0
    statistic, p_value = scipy_stats.chisquare(obs_binned, exp_binned)
    return float(statistic), float(p_value)


def fit_power_law(x, y) -> tuple[float, float]:
    """Least-squares fit ``y ≈ C·x^alpha``; returns ``(alpha, C)``.

    Used to verify scaling shapes (e.g. mixing time linear in ``k`` means
    ``alpha ≈ 1``; the ``Ψ = O(1/k)`` rate means ``alpha ≈ −1``).
    """
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.size != ya.size or xa.size < 2:
        raise InvalidParameterError("need at least two (x, y) pairs")
    if np.any(xa <= 0) or np.any(ya <= 0):
        raise InvalidParameterError("power-law fit requires positive data")
    slope, intercept = np.polyfit(np.log(xa), np.log(ya), deg=1)
    return float(slope), float(np.exp(intercept))
