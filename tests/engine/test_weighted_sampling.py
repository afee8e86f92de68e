"""Weighted pair sampling: laws and loud refusals.

Covers the guarantees of the weighted pair law:

* :class:`~repro.engine.RandomScheduler` draws observers with the shift
  trick, and :class:`~repro.engine.WeightedScheduler`'s observers are
  never the agent they are drawn for;
* with equal weights the weighted pair law is exactly
  :class:`~repro.engine.RandomScheduler`'s (chi-square on ordered-pair
  frequencies);
* engines never *silently* downgrade a weighted scheduler: the agent
  backend draws every pair (and every observed agent) through it, and
  the exchangeable count backend refuses it outright.
"""

import numpy as np
import pytest

from repro.engine import (
    AgentBackend,
    CountBackend,
    ImitationModel,
    RandomScheduler,
    TableModel,
    WeightedScheduler,
)
from repro.utils import InvalidParameterError

#: chi-square 99.9% quantiles by degrees of freedom (no scipy at runtime).
_CHI2_999 = {11: 31.264, 19: 43.820}


def pair_chi_square(initiators, responders, probabilities) -> float:
    """Chi-square statistic of ordered-pair frequencies vs a pair law."""
    n = probabilities.shape[0]
    observed = np.zeros((n, n))
    np.add.at(observed, (initiators, responders), 1)
    total = len(initiators)
    expected = probabilities * total
    mask = ~np.eye(n, dtype=bool)
    return float(((observed[mask] - expected[mask]) ** 2
                  / expected[mask]).sum())


def uniform_pair_law(n: int) -> np.ndarray:
    law = np.full((n, n), 1.0 / (n * (n - 1)))
    np.fill_diagonal(law, 0.0)
    return law


def weighted_pair_law(weights) -> np.ndarray:
    """P(i, j) = w_i * w_j / (1 - w_i) for the rejection responder law."""
    w = np.asarray(weights, float)
    w = w / w.sum()
    law = w[:, None] * (w[None, :] / (1.0 - w[:, None]))
    np.fill_diagonal(law, 0.0)
    return law


class TestSharedBitstream:
    def test_uniform_others_block_matches_shift_trick(self):
        sampler = RandomScheduler(7, seed=3)
        reference_rng = np.random.default_rng(3)
        first = np.arange(7).repeat(100)
        drawn = sampler.others_block(first)
        second = reference_rng.integers(0, 6, size=len(first))
        second = second + (second >= first)
        assert np.array_equal(drawn, second)
        assert (drawn != first).all()


class TestEqualWeightsLaw:
    def test_equal_weights_reproduce_uniform_pair_law(self):
        """Chi-square of equal-weight pair frequencies vs the uniform law."""
        n, draws = 4, 60_000
        sampler = WeightedScheduler(np.ones(n), seed=2024)
        initiators, responders = sampler.pair_block(draws)
        statistic = pair_chi_square(initiators, responders,
                                    uniform_pair_law(n))
        dof = n * (n - 1) - 1
        assert statistic < _CHI2_999[dof], statistic

    def test_random_scheduler_passes_same_test(self):
        """The uniform reference itself clears the same chi-square bar."""
        n, draws = 4, 60_000
        scheduler = RandomScheduler(n, seed=7)
        initiators, responders = scheduler.pair_block(draws)
        statistic = pair_chi_square(initiators, responders,
                                    uniform_pair_law(n))
        assert statistic < _CHI2_999[n * (n - 1) - 1], statistic

    def test_weighted_law_matches_rejection_formula(self):
        weights = [1.0, 1.0, 8.0, 2.0, 4.0]
        sampler = WeightedScheduler(weights, seed=5)
        initiators, responders = sampler.pair_block(80_000)
        statistic = pair_chi_square(initiators, responders,
                                    weighted_pair_law(weights))
        assert statistic < _CHI2_999[5 * 4 - 1], statistic

    def test_weighted_others_block_excludes_first(self):
        scheduler = WeightedScheduler([1.0, 3.0, 0.5, 2.0], seed=9)
        first = np.array([0, 1, 2, 3] * 250)
        assert (scheduler.others_block(first) != first).all()


class TestNoSilentDowngrade:
    """Regression for the silently-ignored-scheduler bug: every engine
    surface either honors a weighted scheduler or refuses loudly."""

    @staticmethod
    def _counting(scheduler):
        calls = {"pair": 0, "others": 0}
        original_pair = scheduler.pair_block
        original_others = scheduler.others_block

        def pair_block(size):
            calls["pair"] += 1
            return original_pair(size)

        def others_block(first):
            calls["others"] += 1
            return original_others(first)

        scheduler.pair_block = pair_block
        scheduler.others_block = others_block
        return calls

    def test_agent_backend_draws_pairs_through_weighted_scheduler(self):
        table = np.zeros((2, 2, 2), dtype=np.int64)
        table[:, :, 0] = np.arange(2)[:, None]
        table[:, :, 1] = np.arange(2)[None, :]
        scheduler = WeightedScheduler([1.0, 2.0, 3.0, 4.0], seed=0)
        calls = self._counting(scheduler)
        backend = AgentBackend(TableModel(table),
                               np.array([0, 1, 0, 1]), scheduler=scheduler)
        backend.run(500)
        assert calls["pair"] > 0

    def test_agent_backend_draws_observers_through_weighted_scheduler(self):
        scheduler = WeightedScheduler([1.0, 2.0, 3.0, 4.0], seed=0)
        calls = self._counting(scheduler)
        model = ImitationModel(np.array([[1.0, 0.0], [2.0, 1.0]]))
        backend = AgentBackend(model, np.array([0, 1, 0, 1]),
                               scheduler=scheduler)
        backend.run(500)
        assert calls["pair"] > 0
        assert calls["others"] > 0

    def test_weighted_law_reaches_the_dynamics(self):
        """An almost-zero-weight agent initiates (essentially) never."""
        # One-way rule: the initiator adopts its partner's state, so an
        # agent that never initiates keeps its initial state.
        table = np.empty((2, 2, 2), dtype=np.int64)
        for u in range(2):
            for v in range(2):
                table[u, v] = (v, v)
        weights = np.ones(50)
        weights[0] = 1e-12
        states = np.zeros(50, dtype=np.int64)
        states[0] = 1
        backend = AgentBackend(TableModel(table), states,
                               scheduler=WeightedScheduler(weights, seed=3))
        backend.run(20_000)
        # Agent 0 is (essentially) never the initiator, so it keeps its
        # state; everyone else eventually copies it under this rule only
        # via interactions where 0 responds.
        assert backend.states[0] == 1

    def test_count_backend_refuses_weighted_scheduler(self):
        table = np.zeros((2, 2, 2), dtype=np.int64)
        table[:, :, 0] = np.arange(2)[:, None]
        table[:, :, 1] = np.arange(2)[None, :]
        with pytest.raises(InvalidParameterError,
                           match="WeightedCountBackend"):
            CountBackend(TableModel(table), np.array([2, 2]),
                         scheduler=WeightedScheduler(np.ones(4), seed=0))

    def test_count_backend_honors_uniform_scheduler_stream(self):
        table = np.empty((2, 2, 2), dtype=np.int64)
        for u in range(2):
            for v in range(2):
                table[u, v] = (max(u, v), v)
        model = TableModel(table)
        counts = np.array([5, 3])
        via_scheduler = CountBackend(
            model, counts, scheduler=RandomScheduler(8, seed=11)).run(200)
        via_seed = CountBackend(model, counts, seed=11).run(200)
        assert np.array_equal(via_scheduler.counts, via_seed.counts)

    def test_count_backend_rejects_mismatched_scheduler_n(self):
        table = np.zeros((2, 2, 2), dtype=np.int64)
        with pytest.raises(InvalidParameterError, match="n="):
            CountBackend(TableModel(table), np.array([2, 2]),
                         scheduler=RandomScheduler(9, seed=0))
