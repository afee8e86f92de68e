"""Shared fixtures and helpers for the test suite."""

import numpy as np
import pytest

from repro.core.equilibrium import RDSetting
from repro.core.igt import GenerosityGrid
from repro.core.population_igt import PopulationShares
from repro.core.regimes import default_theorem_2_9_setting


def birthday(engine):
    """The count engine class ``engine`` with its proxy ceiling at 0.

    A count engine picks its path from the model and ``n`` alone; this
    subclass takes the birthday path at every ``n``, so tests can check
    that path below the ceiling, against the proxy and the exact chains.
    Import it with ``from conftest import birthday``.
    """
    return type(f"Birthday{engine.__name__}", (engine,),
                {"_PROXY_MAX_N": 0})


@pytest.fixture
def rng():
    """A fixed-seed generator for deterministic stochastic tests."""
    return np.random.default_rng(20240519)


@pytest.fixture
def canonical():
    """The canonical Theorem 2.9 instance ``(setting, shares, g_max)``."""
    return default_theorem_2_9_setting()


@pytest.fixture
def small_setting():
    """A small, fast RD setting used widely in unit tests."""
    return RDSetting(b=4.0, c=1.0, delta=0.7, s1=0.5)


@pytest.fixture
def small_shares():
    """A population with all three types well represented."""
    return PopulationShares(alpha=0.3, beta=0.2, gamma=0.5)


@pytest.fixture
def small_grid():
    """A k = 4 generosity grid over [0, 0.6]."""
    return GenerosityGrid(k=4, g_max=0.6)


def _pooled_chi_square_p_value(observed_counts, expected_probs,
                               min_expected: float = 5.0) -> float:
    from scipy import stats

    observed = np.asarray(observed_counts, dtype=float)
    probs = np.asarray(expected_probs, dtype=float)
    assert observed.shape == probs.shape and observed.sum() > 0
    expected = probs / probs.sum() * observed.sum()
    keep = expected >= min_expected
    if not keep.all():
        observed = np.append(observed[keep], observed[~keep].sum())
        expected = np.append(expected[keep], expected[~keep].sum())
    if observed.size < 2:
        return 1.0
    return float(stats.chisquare(observed, expected).pvalue)


@pytest.fixture
def chi_square_p_value():
    """χ² goodness-of-fit p-value of counts against probabilities.

    Bins expecting fewer than ``min_expected`` counts are pooled into one
    tail bin (the standard validity fix); with fewer than two bins left
    the fit cannot be rejected and the p-value is 1.
    """
    return _pooled_chi_square_p_value
