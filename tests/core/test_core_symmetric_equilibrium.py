"""Symmetric equilibria located through the grid DE gap.

If every GTFT agent plays ``g`` (``µ`` a point mass), ``g`` is a
symmetric equilibrium of the grid game when no grid deviation pays
more, i.e. when ``de_gap`` vanishes there.  Scanning a fine grid
locates it: at ``ĝ`` in the canonical Theorem 2.9 setting, and inside
the interval, well below the stationary mean, in the literal-only
setting that E7 exhibits.
"""

import numpy as np
import pytest

from repro.core.equilibrium import RDSetting, de_gap, grid_payoffs_vs_mixture
from repro.core.generosity import average_stationary_generosity
from repro.core.igt import GenerosityGrid
from repro.core.population_igt import PopulationShares
from repro.core.regimes import (
    default_theorem_2_9_setting,
    literal_only_theorem_2_9_setting,
)


def point_mass_gaps(setting, shares, g_max, k=41):
    grid = GenerosityGrid(k=k, g_max=g_max)
    gaps = np.array([de_gap(np.eye(k)[i], grid, setting, shares)
                     for i in range(k)])
    return grid, gaps


def symmetric_equilibrium(setting, shares, g_max) -> float:
    grid, gaps = point_mass_gaps(setting, shares, g_max)
    return float(grid.values[int(np.argmin(gaps))])


class TestSymmetricEquilibrium:
    def test_effective_regime_corner_high(self):
        """The canonical Theorem 2.9 setting has g* = g_max."""
        setting, shares, g_max = default_theorem_2_9_setting()
        _, gaps = point_mass_gaps(setting, shares, g_max)
        assert gaps[-1] == pytest.approx(0.0, abs=1e-12)
        assert np.all(gaps[:-1] > 0)

    def test_literal_regime_interior_below_stationary_mean(self):
        """The literal-only setting has an interior g* (~0.44) strictly
        below where the stationary mass concentrates (~0.6) — the
        geometric root cause of the stalled DE gap."""
        setting, shares, g_max = literal_only_theorem_2_9_setting()
        grid, gaps = point_mass_gaps(setting, shares, g_max)
        g_star = float(grid.values[int(np.argmin(gaps))])
        assert 0.4 < g_star < 0.5
        assert gaps.min() < 1e-3
        assert gaps[-1] > 0.1
        mean = average_stationary_generosity(32, shares.beta, g_max)
        assert mean > g_star + 0.1

    def test_payoff_falls_toward_g_max_in_literal_regime(self):
        """Against a population at ĝ, backing off from ĝ pays: on a grid
        of spacing 0.05 the payoffs at ĝ − 0.1, ĝ − 0.05 and ĝ fall."""
        setting, shares, g_max = literal_only_theorem_2_9_setting()
        grid = GenerosityGrid(k=13, g_max=g_max)
        assert np.allclose(grid.values[-3:], [g_max - 0.1, g_max - 0.05,
                                              g_max])
        payoffs = grid_payoffs_vs_mixture(np.eye(13)[-1], grid, setting,
                                          shares)
        assert payoffs[-3] > payoffs[-2] > payoffs[-1]

    def test_equilibrium_monotone_in_beta(self):
        """More defectors -> (weakly) less equilibrium generosity."""
        setting = RDSetting(b=20.0, c=1.0, delta=0.8, s1=0.5)
        values = [symmetric_equilibrium(
            setting, PopulationShares(alpha=0.2, beta=beta,
                                      gamma=0.8 - beta), 0.99)
                  for beta in (0.02, 0.1, 0.25, 0.4)]
        assert values == sorted(values, reverse=True)
        assert values[0] > values[-1]
