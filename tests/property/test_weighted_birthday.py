"""Heterogeneous birthday batching: distribution-equivalence properties.

The weighted count backend has two execution strategies — the array-proxy
kernel (per-agent arrays, bounded by ``WEIGHTED_PROXY_MAX_N``) and the
heterogeneous birthday batching path (O(k · C) memory, any ``n``).  Both
must realize the *same* exact ``(weight class × state)`` chain.  Pinned
here:

* **birthday vs the enumerated chain** — on a 2-class toy the birthday
  path's empirical T-step distribution matches an exactly enumerated
  transition matrix of the weighted pair law (the same bar the proxy
  kernel passed in the PR that introduced the lift);
* **birthday vs proxy** — running each strategy on identical workloads
  (including the 4-slot imitation rule) yields statistically
  indistinguishable final-count laws;
* **uniform degeneracy** — with one weight class the heterogeneous
  collision schedule reduces to the uniform birthday problem, matching
  :class:`~repro.engine.count.CountBackend` against the exact Ehrenfest
  yardstick used throughout the suite.
"""

import itertools

import numpy as np
from conftest import birthday

from repro.core.general_games import PopulationGameSimulation, hawk_dove_game
from repro.engine import (
    CountBackend,
    TableModel,
    WeightedCountBackend,
)

#: The lift on each path: the proxy kernel (the default at these sizes)
#: and birthday batching.
PATHS = {"proxy": WeightedCountBackend,
         "birthday": birthday(WeightedCountBackend)}


def epidemic_table() -> np.ndarray:
    table = np.empty((2, 2, 2), dtype=np.int64)
    for u in range(2):
        for v in range(2):
            table[u, v] = (max(u, v), v)
    return table


def exact_weighted_epidemic_chain(class_sizes, class_weights):
    """Exact transition matrix of the 2-state epidemic under weights.

    States are tuples ``(ones_in_class_0, ones_in_class_1, ...)``; the
    initiator is weight-proportional, the responder weight-proportional
    among the remaining agents, and the initiator moves to 1 iff either
    participant is 1.
    """
    spaces = [range(size + 1) for size in class_sizes]
    states = list(itertools.product(*spaces))
    index = {state: i for i, state in enumerate(states)}
    total_weight = sum(s * w for s, w in zip(class_sizes, class_weights))
    matrix = np.zeros((len(states), len(states)))
    for state in states:
        def cell_count(c, bit, minus=None):
            count = state[c] if bit == 1 else class_sizes[c] - state[c]
            if minus == (c, bit):
                count -= 1
            return count

        for c_i in range(len(class_sizes)):
            for bit_i in (0, 1):
                p_init = (cell_count(c_i, bit_i) * class_weights[c_i]
                          / total_weight)
                if p_init == 0:
                    continue
                remaining = total_weight - class_weights[c_i]
                for c_j in range(len(class_sizes)):
                    for bit_j in (0, 1):
                        count_j = cell_count(c_j, bit_j, minus=(c_i, bit_i))
                        p_resp = count_j * class_weights[c_j] / remaining
                        if p_resp == 0:
                            continue
                        new = list(state)
                        if bit_i == 0 and bit_j == 1:
                            new[c_i] += 1
                        matrix[index[state], index[tuple(new)]] += (
                            p_init * p_resp)
    return states, index, matrix


class TestBirthdayMatchesEnumeratedChain:
    def test_two_class_toy(self):
        class_sizes = (2, 2)
        class_weights = (1.0, 4.0)
        states, index, matrix = exact_weighted_epidemic_chain(
            class_sizes, class_weights)
        model = TableModel(epidemic_table())
        initial = np.array([[2, 0], [1, 1]], dtype=np.int64)
        steps, runs = 5, 4000
        rng = np.random.default_rng(424)
        histogram = np.zeros(len(states))
        for _ in range(runs):
            backend = PATHS["birthday"](model, initial,
                                        np.array(class_weights), seed=rng)
            backend.run(steps)
            final = backend.class_state_counts
            histogram[index[(int(final[0, 1]), int(final[1, 1]))]] += 1
        histogram /= runs
        initial_distribution = np.zeros(len(states))
        initial_distribution[index[(0, 1)]] = 1.0
        exact = initial_distribution @ np.linalg.matrix_power(matrix, steps)
        tv = 0.5 * np.abs(histogram - exact).sum()
        assert tv < 0.05, f"TV to exact weighted chain {tv:.4f}"


class TestBirthdayMatchesProxy:
    def test_epidemic_final_count_law(self):
        """Pairwise table model: both strategies over many replicates
        give the same mean infected count."""
        model = TableModel(epidemic_table())
        initial = np.array([[38, 2], [58, 2]], dtype=np.int64)
        class_weights = np.array([1.0, 6.0])
        runs, steps = 1200, 200
        means = {}
        for path, engine in PATHS.items():
            rng = np.random.default_rng(1234)
            total = 0.0
            for _ in range(runs):
                backend = engine(model, initial, class_weights, seed=rng)
                total += backend.run(steps).counts[1]
            means[path] = total / runs
        # Final infected count is in [4, 100]; the replicate standard
        # error is well under 1, so a gap of 2.5 flags a law mismatch.
        assert abs(means["proxy"] - means["birthday"]) < 2.5, means

    def test_imitation_four_slot_law(self):
        """The 4-slot lift (observed agents in product space) agrees
        across strategies — the path the count backend used to refuse."""
        game = hawk_dove_game(2.0, 4.0)
        runs, steps, n = 250, 250, 24
        means = {}
        for path, build in PATHS.items():
            total = 0.0
            for r in range(runs):
                sim = PopulationGameSimulation(
                    game, n, rule="imitation", seed=5000 + r,
                    backend="count", weights="twoclass:4")
                engine = sim._engine
                assert isinstance(engine, WeightedCountBackend)
                # Rebuild on each path from the same start.
                backend = build(
                    engine.model, engine.class_state_counts,
                    engine.class_weights, seed=np.random.default_rng(r))
                backend.run(steps)
                total += backend.counts[0]
            means[path] = total / runs
        assert abs(means["proxy"] - means["birthday"]) < 1.5, means

    def test_observation_trajectories_align(self):
        """Observation cadences and totals are identical in structure
        across strategies (steps axis exact, counts conserved)."""
        model = TableModel(epidemic_table())
        initial = np.array([[90, 5], [100, 5]], dtype=np.int64)
        class_weights = np.array([1.0, 3.0])
        for engine in PATHS.values():
            backend = engine(model, initial, class_weights, seed=8)
            result = backend.run(1000, observe_every=37)
            steps_axis = [step for step, _ in result.observations]
            assert steps_axis == [0] + list(range(37, 1001, 37))
            for _, counts in result.observations:
                assert counts.sum() == 200


class TestUniformDegeneracy:
    def test_single_class_matches_uniform_count_backend(self):
        """C = 1: the heterogeneous schedule is the uniform birthday
        problem; the law matches CountBackend on the same chain."""
        model = TableModel(epidemic_table())
        n, steps, runs = 60, 150, 1400
        totals = {}
        rng = np.random.default_rng(77)
        total = 0.0
        for _ in range(runs):
            backend = PATHS["birthday"](
                model, np.array([[n - 3, 3]]), np.array([2.5]), seed=rng)
            total += backend.run(steps).counts[1]
        totals["weighted"] = total / runs
        rng = np.random.default_rng(78)
        total = 0.0
        for _ in range(runs):
            backend = CountBackend(model, np.array([n - 3, 3]), seed=rng)
            total += backend.run(steps).counts[1]
        totals["uniform"] = total / runs
        assert abs(totals["weighted"] - totals["uniform"]) < 1.5, totals
