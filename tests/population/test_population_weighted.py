"""Tests for the weighted scheduler extension."""

import numpy as np
import pytest

from repro.population.scheduler import WeightedScheduler
from repro.utils import InvalidParameterError


class TestWeightedScheduler:
    def test_rejects_bad_weights(self):
        with pytest.raises(InvalidParameterError):
            WeightedScheduler([1.0])
        with pytest.raises(InvalidParameterError):
            WeightedScheduler([1.0, 0.0])
        with pytest.raises(InvalidParameterError):
            WeightedScheduler([1.0, float("inf")])
        with pytest.raises(InvalidParameterError):
            WeightedScheduler([[1.0, 2.0]])

    def test_pairs_distinct(self):
        scheduler = WeightedScheduler([1.0, 5.0, 2.0], seed=0)
        for _ in range(100):
            (i,), (j,) = scheduler.pair_block(1)
            assert i != j

    def test_block_pairs_distinct(self):
        scheduler = WeightedScheduler([1.0, 5.0, 2.0, 0.5], seed=1)
        initiators, responders = scheduler.pair_block(5000)
        assert (initiators != responders).all()

    def test_heavy_agent_initiates_more(self):
        scheduler = WeightedScheduler([10.0, 1.0, 1.0], seed=2)
        initiators, _ = scheduler.pair_block(20_000)
        share = np.mean(initiators == 0)
        assert share == pytest.approx(10 / 12, abs=0.03)

    def test_uniform_weights_match_random_scheduler_law(self):
        """Equal weights: initiator marginal uniform, pairs distinct —
        the RandomScheduler law."""
        n = 4
        weighted = WeightedScheduler(np.ones(n), seed=3)
        initiators, responders = weighted.pair_block(60_000)
        counts = np.zeros((n, n))
        for i, j in zip(initiators, responders):
            counts[i, j] += 1
        off = counts[~np.eye(n, dtype=bool)]
        expected = 60_000 / (n * (n - 1))
        assert np.abs(off - expected).max() < 0.08 * expected

    def test_reproducible(self):
        a = WeightedScheduler([1, 2, 3], seed=9).pair_block(100)
        b = WeightedScheduler([1, 2, 3], seed=9).pair_block(100)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_responder_conditional_law(self):
        """Conditioned on the initiator, the responder is weight-tilted
        among the *other* agents: P(r=2 | i=0) = 0.8/0.9 (rejection
        renormalizes); unconditionally the heavy agent crowds itself out
        of the responder slot (P(r=2) = 0.2 * 8/9 ~ 0.178)."""
        scheduler = WeightedScheduler([1.0, 1.0, 8.0], seed=4)
        initiators, responders = scheduler.pair_block(40_000)
        mask = initiators == 0
        conditional = np.mean(responders[mask] == 2)
        assert conditional == pytest.approx(0.8 / 0.9, abs=0.03)
        assert np.mean(responders == 2) == pytest.approx(0.2 * 8 / 9,
                                                         abs=0.02)
