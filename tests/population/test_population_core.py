"""Tests for protocol abstraction, scheduler, simulator, and metrics."""

import numpy as np
import pytest

from repro.population.protocol import (
    TransitionFunctionProtocol,
)
from repro.population.scheduler import RandomScheduler
from repro.population.simulator import Simulator
from repro.utils import InvalidParameterError


@pytest.fixture
def max_protocol():
    """Both agents adopt the max of their states (epidemic of the maximum)."""
    return TransitionFunctionProtocol(
        n_states=4, fn=lambda u, v: (max(u, v), max(u, v)))


@pytest.fixture
def one_way_protocol():
    """Initiator copies the responder; responder unchanged."""
    return TransitionFunctionProtocol(n_states=3, fn=lambda u, v: (v, v))


class TestTransitionFunctionProtocol:
    def test_basic(self, max_protocol):
        assert max_protocol.transition(1, 3) == (3, 3)
        assert max_protocol.n_states == 4

    def test_default_output_is_state(self, max_protocol):
        assert max_protocol.output(2) == 2

    def test_custom_output(self):
        protocol = TransitionFunctionProtocol(
            n_states=2, fn=lambda u, v: (u, v), output_fn=lambda s: s > 0)
        assert protocol.output(1) is True

    def test_labels(self):
        protocol = TransitionFunctionProtocol(
            n_states=2, fn=lambda u, v: (u, v), labels=["off", "on"])
        assert protocol.state_label(1) == "on"

    def test_label_count_mismatch(self):
        with pytest.raises(InvalidParameterError):
            TransitionFunctionProtocol(n_states=2, fn=lambda u, v: (u, v),
                                       labels=["only-one"])

    def test_is_one_way_detection(self, one_way_protocol, max_protocol):
        # Initiator copies responder: only the initiator changes -> one-way.
        assert one_way_protocol.is_one_way
        truly = TransitionFunctionProtocol(
            n_states=3, fn=lambda u, v: (max(u, v), v))
        assert truly.is_one_way
        # Both agents adopt the max -> the responder can change -> two-way.
        assert not max_protocol.is_one_way

    def test_transition_table_shape(self, max_protocol):
        table = max_protocol.transition_table()
        assert table.shape == (4, 4, 2)
        assert table[1, 3, 0] == 3

    def test_transition_table_rejects_escapes(self):
        bad = TransitionFunctionProtocol(n_states=2,
                                         fn=lambda u, v: (u + 5, v))
        with pytest.raises(InvalidParameterError):
            bad.transition_table()


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


class TestSimulator:
    def test_max_spreads(self, max_protocol, rng):
        states = np.zeros(30, dtype=np.int64)
        states[0] = 3
        sim = Simulator(max_protocol, states, seed=rng)
        result = sim.run(20_000,
                         stop_when=lambda counts: counts[3] == 30)
        assert result.converged
        assert (result.states == 3).all()

    def test_counts_match_states(self, max_protocol, rng):
        states = np.array([0, 1, 2, 3, 3], dtype=np.int64)
        sim = Simulator(max_protocol, states, seed=rng)
        assert np.array_equal(sim.counts, [1, 1, 1, 2])
        sim.run(100)
        assert np.array_equal(sim.counts,
                              np.bincount(sim.states, minlength=4))

    def test_population_size_conserved(self, one_way_protocol, rng):
        states = np.array([0, 1, 2] * 10, dtype=np.int64)
        sim = Simulator(one_way_protocol, states, seed=rng)
        result = sim.run(5000)
        assert result.counts.sum() == 30

    def test_observations_cadence(self, max_protocol, rng):
        states = np.zeros(10, dtype=np.int64)
        states[0] = 1
        sim = Simulator(max_protocol, states, seed=rng)
        result = sim.run(100, observe_every=25)
        steps = [s for s, _ in result.observations]
        assert steps == [0, 25, 50, 75, 100]

    def test_stop_checked_at_cadence(self, max_protocol, rng):
        states = np.zeros(10, dtype=np.int64)
        sim = Simulator(max_protocol, states, seed=rng)
        result = sim.run(100, stop_when=lambda c: True, check_stop_every=10)
        assert result.converged
        assert result.steps == 0  # predicate already true before any step

    def test_invalid_initial_state_rejected(self, max_protocol):
        with pytest.raises(InvalidParameterError):
            Simulator(max_protocol, np.array([0, 9]), seed=0)

    def test_single_agent_rejected(self, max_protocol):
        with pytest.raises(InvalidParameterError):
            Simulator(max_protocol, np.array([0]), seed=0)

    def test_reproducible(self, max_protocol):
        states = np.arange(4) % 4
        r1 = Simulator(max_protocol, states, seed=5).run(200)
        r2 = Simulator(max_protocol, states, seed=5).run(200)
        assert np.array_equal(r1.states, r2.states)

    def test_outputs(self, one_way_protocol, rng):
        sim = Simulator(one_way_protocol, np.array([0, 1, 2]), seed=rng)
        assert sim.outputs() == [0, 1, 2]
