"""AliasTable: construction exactness, law equality, stream contract.

The alias table replaced the cumulative-sum inversion sampler as the
production weighted draw (same one-uniform-per-draw stream consumption,
O(1) instead of O(log n) per draw).  Three guarantees are pinned here:

* **the build is exact** — for any weight vector, the law implied by the
  ``(prob, alias)`` pair reconstructs the normalized weights to float
  precision, including degenerate shapes (one dominant weight, near-zero
  weights, ``k = 2``, ``k = 1``, adversarial geometric chains that
  exercise the sequential fallback);
* **law equality with the inversion reference** — alias draws and
  :func:`~repro.engine.sampling.inversion_draw_block` draws from the same
  weights both clear a chi-square test against the exact law;
* **the stream contract** — a block of ``size`` draws consumes exactly
  ``size`` uniforms, so surrounding draws stay aligned.
"""

import numpy as np
import pytest

from repro.engine import AliasTable
from repro.engine.sampling import inversion_draw_block, weight_cdf
from repro.utils import InvalidParameterError

# 99.9% chi-square critical values, keyed by degrees of freedom.
_CHI2_999 = {1: 10.828, 4: 18.467, 10: 29.588, 19: 43.820}


def implied_law(table: AliasTable) -> np.ndarray:
    """The outcome law the ``(prob, alias)`` pair actually encodes."""
    law = table.prob.copy()
    np.add.at(law, table.alias, 1.0 - table.prob)
    return law / table.k


def assert_exact(weights):
    table = AliasTable(weights)
    target = np.asarray(weights, dtype=float)
    target = target / target.sum()
    np.testing.assert_allclose(implied_law(table), target,
                               rtol=0, atol=1e-12)
    assert table.prob.min() >= 0.0 and table.prob.max() <= 1.0
    assert table.alias.min() >= 0 and table.alias.max() < table.k


class TestBuildExactness:
    def test_one_dominant_weight(self):
        weights = np.ones(1000)
        weights[337] = 1e6
        assert_exact(weights)

    def test_near_zero_weights(self):
        weights = np.full(64, 1e-14)
        weights[0] = 1.0
        assert_exact(weights)

    def test_k_equals_two(self):
        assert_exact([1.0, 1e9])
        assert_exact([3.0, 3.0])

    def test_k_equals_one(self):
        table = AliasTable([2.5])
        assert table.k == 1
        assert table.prob[0] == 1.0
        rng = np.random.default_rng(0)
        assert np.all(table.draw_block(rng, 100) == 0)

    def test_geometric_chain_exercises_fallback(self):
        """A geometric cascade keeps re-shrinking the donor set — the
        shape that forces many rounds (or the sequential finish)."""
        assert_exact(2.0 ** -np.arange(200, dtype=float))

    def test_random_weights(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            assert_exact(rng.random(10_000) + 1e-9)

    def test_powerlaw_weights(self):
        assert_exact((1.0 + np.arange(100_000)) ** -1.2)

    def test_equal_weights(self):
        table = AliasTable(np.ones(257))
        np.testing.assert_allclose(table.prob, 1.0)

    def test_rejects_bad_weights(self):
        for bad in ([], [1.0, -1.0], [1.0, np.inf], [[1.0, 2.0]]):
            with pytest.raises(InvalidParameterError):
                AliasTable(bad)


class TestLawEquality:
    def test_chi_square_vs_exact_law(self):
        weights = np.array([1.0, 5.0, 0.25, 2.0, 8.0, 1.5, 0.5, 3.0,
                            2.5, 0.75, 4.0])
        table = AliasTable(weights)
        rng = np.random.default_rng(11)
        draws = table.draw_block(rng, 200_000)
        expected = 200_000 * table.probabilities
        observed = np.bincount(draws, minlength=table.k)
        statistic = ((observed - expected) ** 2 / expected).sum()
        assert statistic < _CHI2_999[table.k - 1], statistic

    def test_chi_square_vs_inversion_reference(self):
        """Alias and inversion draws from the same weights realize the
        same law (the explicit law-equality bar from the migration)."""
        weights = (1.0 + np.arange(20)) ** -1.1
        table = AliasTable(weights)
        cdf = weight_cdf(weights)
        expected = 150_000 * table.probabilities
        for draws in (
            table.draw_block(np.random.default_rng(21), 150_000),
            inversion_draw_block(np.random.default_rng(22), cdf, 150_000),
        ):
            observed = np.bincount(draws, minlength=table.k)
            statistic = ((observed - expected) ** 2 / expected).sum()
            assert statistic < _CHI2_999[table.k - 1], statistic

    def test_bitstreams_differ_from_inversion(self):
        """Same uniforms, different values: the alias migration changed
        weighted trajectories (and the result cache was epoch-bumped)."""
        weights = (1.0 + np.arange(20)) ** -1.1
        table = AliasTable(weights)
        alias_draws = table.draw_block(np.random.default_rng(5), 1000)
        inversion_draws = inversion_draw_block(
            np.random.default_rng(5), weight_cdf(weights), 1000)
        assert np.any(alias_draws != inversion_draws)


class TestStreamContract:
    def test_one_uniform_per_draw(self):
        """A block of ``size`` draws advances the generator exactly as
        ``rng.random(size)`` does — the inversion sampler's consumption,
        preserved so surrounding draws stay aligned."""
        table = AliasTable([1.0, 3.0, 0.5, 2.0])
        rng_a = np.random.default_rng(123)
        rng_b = np.random.default_rng(123)
        table.draw_block(rng_a, 777)
        rng_b.random(777)
        np.testing.assert_array_equal(rng_a.integers(0, 1 << 62, size=8),
                                      rng_b.integers(0, 1 << 62, size=8))
