"""The pair laws: one class per scheduling law, each drawing ordered
pairs of distinct agents in blocks.

``repro.population.scheduler`` keeps the pre-engine import path for the
end-to-end benchmark's traced mode; it must hand out the engine's own
objects, so wrapping them there wraps what the engines call.
"""

import numpy as np
import pytest

from repro.population import scheduler as population_scheduler
from repro.engine import (
    AliasTable,
    GraphScheduler,
    RandomScheduler,
    WeightedScheduler,
    graph_pair_block,
    ordered_pair_block,
    ring_graph,
    weighted_pair_block,
)
from repro.utils import InvalidParameterError


class TestRandomScheduler:
    def test_pairs_distinct(self):
        scheduler = RandomScheduler(5, seed=0)
        for _ in range(200):
            (i,), (j,) = scheduler.pair_block(1)
            assert i != j
            assert 0 <= i < 5 and 0 <= j < 5

    def test_block_pairs_distinct(self):
        scheduler = RandomScheduler(6, seed=1)
        initiators, responders = scheduler.pair_block(5000)
        assert (initiators != responders).all()

    def test_block_uniform_over_ordered_pairs(self):
        scheduler = RandomScheduler(4, seed=2)
        initiators, responders = scheduler.pair_block(120_000)
        counts = np.zeros((4, 4))
        for i, j in zip(initiators, responders):
            counts[i, j] += 1
        off_diagonal = counts[~np.eye(4, dtype=bool)]
        expected = 120_000 / 12
        assert np.abs(off_diagonal - expected).max() < 0.06 * expected

    def test_rejects_single_agent(self):
        with pytest.raises(InvalidParameterError):
            RandomScheduler(1)

    def test_seeded_reproducible(self):
        a = RandomScheduler(5, seed=9).pair_block(50)
        b = RandomScheduler(5, seed=9).pair_block(50)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


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


ACTIVITY = [1.0, 2.0, 5.0, 0.5]


class TestBlockFunctions:
    """Each law's ``pair_block`` is its module-level block function on
    the law's own generator: one bitstream, whichever is called."""

    @pytest.mark.parametrize("law, block", [
        (lambda: RandomScheduler(9, seed=4),
         lambda rng: ordered_pair_block(rng, 9, 500)),
        (lambda: WeightedScheduler(ACTIVITY, seed=4),
         lambda rng: weighted_pair_block(rng, AliasTable(ACTIVITY), 500)),
        (lambda: GraphScheduler(ring_graph(9), seed=4),
         lambda rng: graph_pair_block(rng, ring_graph(9), 500)),
    ], ids=["uniform", "weighted", "graph"])
    def test_pair_block_is_the_module_function(self, law, block):
        initiators, responders = law().pair_block(500)
        expected = block(np.random.default_rng(4))
        assert np.array_equal(initiators, expected[0])
        assert np.array_equal(responders, expected[1])


def test_population_scheduler_reexports_the_engine_pair_laws():
    for name, engine_object in [("RandomScheduler", RandomScheduler),
                                ("WeightedScheduler", WeightedScheduler),
                                ("GraphScheduler", GraphScheduler),
                                ("ordered_pair_block", ordered_pair_block)]:
        assert getattr(population_scheduler, name) is engine_object
    assert sorted(population_scheduler.__all__) == sorted(
        ["RandomScheduler", "WeightedScheduler", "GraphScheduler",
         "ordered_pair_block"])
