"""WeightedCountBackend: the exact ``(weight class × state)`` chain.

Property tests of the weighted count lift:

* on a 2-class toy the empirical T-step distribution of the
  ``(class, state)`` counts matches an exactly enumerated transition
  matrix of the weighted pair law;
* with equal weights the projected chain is distribution-identical to
  :class:`~repro.engine.count.CountBackend` (pinned against the exact
  Ehrenfest chain from :mod:`repro.markov`, the same reference the
  uniform backend is tested against);
* the product lift preserves model structure (tables, one-way, inert
  states) and the facades run it end to end.
"""

import itertools

import numpy as np
import pytest
from conftest import birthday

from repro.core.general_games import PopulationGameSimulation, hawk_dove_game
from repro.core.igt import GenerosityGrid
from repro.core.population_igt import IGTSimulation, PopulationShares
from repro.engine import (
    CountBackend,
    ProductStateModel,
    TableModel,
    WeightedCountBackend,
    igt_model,
    weight_classes,
    weights_from_spec,
)
from repro.markov.ehrenfest import EhrenfestProcess
from repro.utils import InvalidParameterError


def epidemic_table(n_states: int = 2) -> np.ndarray:
    table = np.empty((n_states, n_states, 2), dtype=np.int64)
    for u in range(n_states):
        for v in range(n_states):
            table[u, v] = (max(u, v), v)
    return table


def exact_weighted_epidemic_chain(class_sizes, class_weights):
    """Exact transition matrix of the 2-state epidemic under weights.

    States are tuples ``(ones_in_class_0, ones_in_class_1, ...)``; the
    initiator cell is weight-proportional, the responder cell
    weight-proportional among the remaining agents, and the initiator
    moves to 1 iff either participant is 1.
    """
    spaces = [range(size + 1) for size in class_sizes]
    states = list(itertools.product(*spaces))
    index = {state: i for i, state in enumerate(states)}
    total_weight = sum(s * w for s, w in zip(class_sizes, class_weights))
    matrix = np.zeros((len(states), len(states)))
    for state in states:
        # cell (c, bit): count of class-c agents in state `bit`.
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
                        count_j = cell_count(c_j, bit_j,
                                             minus=(c_i, bit_i))
                        p_resp = count_j * class_weights[c_j] / remaining
                        if p_resp == 0:
                            continue
                        new = list(state)
                        if bit_i == 0 and bit_j == 1:
                            new[c_i] += 1  # initiator infected
                        matrix[index[state], index[tuple(new)]] += (
                            p_init * p_resp)
    return states, index, matrix


class TestWeightedCountExactChain:
    # A run split across calls restarts each call from the class-major
    # expansion of the product counts: the law must not move.
    @pytest.mark.parametrize("calls", [(5,), (2, 1, 2)],
                             ids=["one-call", "split"])
    def test_two_class_toy_matches_exact_chain(self, calls):
        class_sizes = (2, 2)
        class_weights = (1.0, 4.0)
        states, index, matrix = exact_weighted_epidemic_chain(
            class_sizes, class_weights)
        model = TableModel(epidemic_table())
        # One infected agent in the heavy class.
        initial = np.array([[2, 0], [1, 1]], dtype=np.int64)
        start = (0, 1)
        steps, runs = sum(calls), 4000
        rng = np.random.default_rng(99)
        histogram = np.zeros(len(states))
        for _ in range(runs):
            backend = WeightedCountBackend(model, initial,
                                           np.array(class_weights),
                                           seed=rng)
            assert backend._kernel is not None  # the proxy path
            for call in calls:
                backend.run(call)
            final = backend.class_state_counts
            histogram[index[(int(final[0, 1]), int(final[1, 1]))]] += 1
        histogram /= runs
        initial_distribution = np.zeros(len(states))
        initial_distribution[index[start]] = 1.0
        exact = initial_distribution @ np.linalg.matrix_power(matrix, steps)
        tv = 0.5 * np.abs(histogram - exact).sum()
        assert tv < 0.05, f"TV to exact weighted chain {tv:.4f}"

    def test_heavy_class_infects_faster(self):
        """Sanity: seeding the heavy class spreads faster than the light
        one — the law actually depends on the weights."""
        model = TableModel(epidemic_table())
        class_weights = np.array([1.0, 10.0])
        totals = []
        for seed_class in (0, 1):
            initial = np.array([[20, 0], [20, 0]], dtype=np.int64)
            initial[seed_class] = [19, 1]
            infected = 0.0
            rng = np.random.default_rng(7)
            for _ in range(200):
                backend = WeightedCountBackend(model, initial,
                                               class_weights, seed=rng)
                infected += backend.run(60).counts[1]
            totals.append(infected / 200)
        assert totals[1] > totals[0] + 1.0, totals


class TestEqualWeightsIdentity:
    def test_matches_exact_ehrenfest_chain(self):
        """Equal-weight classes: the projected weighted chain realizes
        the same exact law the uniform CountBackend is pinned against."""
        n, n_ac, n_ad, k = 8, 1, 2, 2
        m = n - n_ac - n_ad
        beta_hat = n_ad / (n - 1)
        process = EhrenfestProcess(k=k, a=(m / n) * (1 - beta_hat),
                                   b=(m / n) * beta_hat, m=m)
        space = process.space()
        matrix = process.exact_chain(space).dense()
        model = igt_model(k)
        # Two equal-weight classes splitting the population arbitrarily.
        initial = np.array([[m - 2, 0, n_ac, 0],
                            [2, 0, 0, n_ad]], dtype=np.int64)
        steps, runs = 12, 6000
        rng = np.random.default_rng(2024)
        histogram = np.zeros(len(space))
        for _ in range(runs):
            backend = WeightedCountBackend(model, initial,
                                           np.array([2.0, 2.0]), seed=rng)
            final = backend.run(steps).counts
            histogram[space.index(tuple(final[:k]))] += 1
        histogram /= runs
        start = np.zeros(len(space))
        start[space.index((m, 0))] = 1.0
        exact = start @ np.linalg.matrix_power(matrix, steps)
        tv = 0.5 * np.abs(histogram - exact).sum()
        assert tv < 0.05, f"TV to exact chain {tv:.4f}"

    def test_counts_live_fresh_inside_stop_predicates(self):
        """Predicates reading backend state (not their argument) must
        see current counts mid-run, like on every other engine."""
        model = TableModel(epidemic_table())
        initial = np.array([[30, 1], [30, 0]], dtype=np.int64)
        backend = WeightedCountBackend(model, initial,
                                       np.array([1.0, 2.0]), seed=0)
        result = backend.run(
            100_000,
            stop_when=lambda _: backend.counts_live[1] >= 30,
            check_stop_every=50)
        assert result.converged
        assert backend.counts[1] >= 30
        assert result.steps < 100_000

    @pytest.mark.parametrize("weighted", [False, True],
                             ids=["uniform", "weighted"])
    @pytest.mark.parametrize("path", [lambda engine: engine, birthday],
                             ids=["proxy", "birthday"])
    def test_counts_live_equals_predicate_argument(self, weighted, path):
        """On every count path, each predicate call's argument equals
        ``counts_live`` at the moment of the call — also at checkpoints
        inside a birthday batch, whose end state is already computed."""
        model = TableModel(epidemic_table())
        for seed in range(5):
            if weighted:
                backend = path(WeightedCountBackend)(
                    model, np.array([[30, 1], [29, 0]]),
                    np.array([1.0, 2.0]), seed=seed)
            else:
                backend = path(CountBackend)(model, np.array([59, 1]),
                                             seed=seed)
            calls = []

            def record(counts):
                calls.append((np.array(counts),
                              backend.counts_live.copy()))
                return False

            backend.run(3000, stop_when=record, check_stop_every=7)
            assert len(calls) == 429
            for argument, live in calls:
                np.testing.assert_array_equal(argument, live)

    def test_single_class_matches_count_backend_law(self):
        """C = 1 weighted backend vs the plain count backend: identical
        final-count distributions on a short chain."""
        model = TableModel(epidemic_table(3))
        counts = np.array([6, 3, 1])
        steps, runs = 15, 3000
        rng = np.random.default_rng(5)
        weighted_hist = np.zeros(11)
        uniform_hist = np.zeros(11)
        for _ in range(runs):
            weighted = WeightedCountBackend(
                model, counts[None, :], np.array([3.0]), seed=rng)
            weighted_hist[weighted.run(steps).counts[2]] += 1
            uniform = CountBackend(model, counts, seed=rng)
            uniform_hist[uniform.run(steps).counts[2]] += 1
        tv = 0.5 * np.abs(weighted_hist - uniform_hist).sum() / runs
        assert tv < 0.06, f"TV between backends {tv:.4f}"


class TestProductStateModel:
    def test_lifted_tables_and_structure(self):
        inner = igt_model(3)  # one-way, AC/AD inert
        product = ProductStateModel(inner, 2)
        assert product.n_states == 10
        assert product.one_way
        inert = product.inert_states
        assert inert is not None and inert.sum() == 2 * 2
        [lifted] = product.component_tables
        [table] = inner.component_tables
        s = inner.n_states
        for cu in range(2):
            for cv in range(2):
                block = lifted[cu * s:(cu + 1) * s, cv * s:(cv + 1) * s]
                assert np.array_equal(block[:, :, 0] - cu * s,
                                      table[:, :, 0])
                assert np.array_equal(block[:, :, 1] - cv * s,
                                      table[:, :, 1])

    def test_apply_preserves_class(self):
        inner = igt_model(3)
        product = ProductStateModel(inner, 3)
        rng = np.random.default_rng(0)
        initiators = rng.integers(0, product.n_states, size=200)
        responders = rng.integers(0, product.n_states, size=200)
        new_u, new_v = product.apply(initiators, responders, None)
        s = inner.n_states
        assert np.array_equal(new_u // s, initiators // s)
        assert np.array_equal(new_v // s, responders // s)

    def test_four_slot_lift_projects_observed(self):
        """Observed product states reach the inner law as inner states."""
        from repro.engine import ImitationModel

        class Probe(ImitationModel):
            def apply(self, initiators, responders, uniforms,
                      observed=None):
                assert observed is not None
                assert (observed[0] < self.n_states).all()
                assert (observed[1] < self.n_states).all()
                return super().apply(initiators, responders, uniforms,
                                     observed)

        inner = Probe(np.array([[1.0, 0.0], [2.0, 1.0]]))
        product = ProductStateModel(inner, 3)
        assert product.slots_per_step == 4
        rng = np.random.default_rng(0)
        s = inner.n_states
        initiators = rng.integers(0, product.n_states, size=300)
        responders = rng.integers(0, product.n_states, size=300)
        observed = (rng.integers(0, product.n_states, size=300),
                    rng.integers(0, product.n_states, size=300))
        new_u, new_v = product.apply(initiators, responders,
                                     rng.random(300), observed)
        assert np.array_equal(new_u // s, initiators // s)
        assert np.array_equal(new_v // s, responders // s)
        u, v = product.apply_scalar(2 * s + 1, s, rng.random(),
                                    observed=(s + 1, 2 * s))
        assert u // s == 2 and v // s == 1


class TestWeightClassHelpers:
    def test_weight_classes_groups_and_caps(self):
        weights = np.array([1.0, 2.0, 1.0, 2.0, 4.0])
        class_weights, class_of = weight_classes(weights)
        assert np.array_equal(class_weights, [1.0, 2.0, 4.0])
        assert np.array_equal(class_weights[class_of], weights)
        with pytest.raises(InvalidParameterError, match="cap"):
            weight_classes(np.linspace(1.0, 2.0, 100))

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64])
    def test_from_agent_states_histograms_per_class(self, dtype):
        # The per-class histogram equals a scatter-add over (class,
        # state) pairs, with classes in ascending weight order.
        rng = np.random.default_rng(11)
        weights = weights_from_spec("powerlaw", 10_000)[
            rng.permutation(10_000)]
        states = rng.integers(0, 5, size=10_000).astype(dtype)
        engine = WeightedCountBackend.from_agent_states(
            TableModel(epidemic_table(5)), states, weights)
        class_weights, class_of = weight_classes(weights)
        expected = np.zeros((class_weights.size, 5), dtype=np.int64)
        np.add.at(expected, (class_of, states.astype(np.int64)), 1)
        np.testing.assert_array_equal(engine.class_weights, class_weights)
        np.testing.assert_array_equal(engine.class_state_counts, expected)

    @pytest.mark.parametrize("states", [[0, 1, 5, 2], [0, -1, 2, 3]],
                             ids=["high", "negative"])
    def test_from_agent_states_refuses_states_out_of_range(self, states):
        with pytest.raises(InvalidParameterError, match=r"lie in 0\.\.4"):
            WeightedCountBackend.from_agent_states(
                TableModel(epidemic_table(5)), np.array(states), np.ones(4))

    @pytest.mark.parametrize("counts", [
        [[1.5, 2, 1, 1], [2, 2, 1.9, 1]],
        [[1, 2, 1, 1], [2, np.nan, 1, 1]],
    ], ids=["fractional", "nan"])
    def test_initial_counts_must_be_integers(self, counts):
        # Fractional counts used to be truncated by a cast (n=11 here),
        # and NaN raised numpy's own ValueError.
        with pytest.raises(InvalidParameterError, match="initial_counts"):
            WeightedCountBackend(TableModel(epidemic_table(4)),
                                 np.array(counts), np.array([1.0, 2.0]))

    def test_weights_from_spec(self):
        assert weights_from_spec("uniform", 10) is None
        powerlaw = weights_from_spec("powerlaw:2", 16)
        assert powerlaw.shape == (16,)
        assert powerlaw.max() == 1.0
        assert powerlaw.min() == pytest.approx(8.0 ** -2)
        two = weights_from_spec("twoclass:3", 10)
        assert (two[:5] == 1.0).all() and (two[5:] == 3.0).all()
        with pytest.raises(InvalidParameterError, match="unknown weight"):
            weights_from_spec("zipf", 10)
        with pytest.raises(InvalidParameterError, match="powerlaw"):
            weights_from_spec("powerlaw:-1", 10)


class TestFacadeIntegration:
    def test_igt_weighted_backends_agree_on_moments(self):
        shares = PopulationShares(alpha=0.3, beta=0.2, gamma=0.5)
        grid = GenerosityGrid(k=4, g_max=0.6)
        weights = weights_from_spec("twoclass:4", 120)
        runs, steps = 50, 3000
        rng = np.random.default_rng(5)
        agent_means = np.zeros(4)
        count_means = np.zeros(4)
        for _ in range(runs):
            agent_sim = IGTSimulation(n=120, shares=shares, grid=grid,
                                      seed=rng, initial_indices=0,
                                      weights=weights)
            agent_sim.run(steps)
            agent_means += agent_sim.counts
            count_sim = IGTSimulation(n=120, shares=shares, grid=grid,
                                      seed=rng, initial_indices=0,
                                      backend="count", weights=weights)
            count_sim.run(steps)
            count_means += count_sim.counts
        assert np.abs(agent_means - count_means).max() / runs < 4.0

    def test_igt_weighted_ehrenfest_embedding(self):
        shares = PopulationShares(alpha=0.3, beta=0.2, gamma=0.5)
        grid = GenerosityGrid(k=3, g_max=0.6)
        n = 100
        n_ac, n_ad, _ = shares.agent_counts(n)
        weights = np.ones(n)
        weights[n_ac:n_ac + n_ad] = 5.0
        sim = IGTSimulation(n=n, shares=shares, grid=grid, seed=0,
                            weights=weights)
        process = sim.equivalent_ehrenfest(exact=True)
        total = weights.sum()
        ad_weight = 5.0 * n_ad
        assert process.lam == pytest.approx(
            (total - 1.0 - ad_weight) / ad_weight)
        # Equal weights recover the uniform embedding exactly.
        uniform_sim = IGTSimulation(n=n, shares=shares, grid=grid, seed=0,
                                    weights=np.full(n, 2.0))
        reference = IGTSimulation(n=n, shares=shares, grid=grid, seed=0)
        assert uniform_sim.equivalent_ehrenfest().lam == pytest.approx(
            reference.equivalent_ehrenfest().lam)
        assert uniform_sim.equivalent_ehrenfest().a == pytest.approx(
            reference.equivalent_ehrenfest().a)

    def test_igt_heterogeneous_gtft_weights_reject_embedding(self):
        shares = PopulationShares(alpha=0.3, beta=0.2, gamma=0.5)
        grid = GenerosityGrid(k=3, g_max=0.6)
        sim = IGTSimulation(n=80, shares=shares, grid=grid, seed=0,
                            weights="powerlaw")
        with pytest.raises(InvalidParameterError, match="GTFT"):
            sim.equivalent_ehrenfest(exact=True)

    def test_igt_weighted_count_action_mode(self):
        from repro.core.equilibrium import RDSetting
        shares = PopulationShares(alpha=0.3, beta=0.2, gamma=0.5)
        grid = GenerosityGrid(k=3, g_max=0.6)
        setting = RDSetting(b=4.0, c=1.0, delta=0.9, s1=0.5)
        sim = IGTSimulation(n=90, shares=shares, grid=grid, seed=1,
                            backend="count", weights="twoclass:2",
                            mode="action", setting=setting)
        sim.run(5000)
        assert sim.steps_run == 5000
        assert sim.counts.sum() == sim.n_gtft
        assert sim.counts_live[3:].tolist() == [sim.n_ac, sim.n_ad]

    def test_game_simulation_weighted_backends(self):
        game = hawk_dove_game(2.0, 4.0)
        weights = weights_from_spec("twoclass:3", 40)
        for rule, backend in (("logit", "count"),
                              ("best_response", "count"),
                              ("imitation", "agent"),
                              ("logit", "agent")):
            sim = PopulationGameSimulation(game, 40, rule=rule, seed=0,
                                           backend=backend,
                                           weights=weights)
            sim.run(2000)
            assert sim.counts.sum() == 40
            if backend == "agent":
                np.testing.assert_array_equal(
                    np.bincount(sim.strategies, minlength=2), sim.counts)

    def test_game_simulation_weighted_imitation_count_accepted(self):
        """The PR 5 refusal is closed: the 4-slot imitation rule runs on
        the weighted count lift."""
        game = hawk_dove_game(2.0, 4.0)
        sim = PopulationGameSimulation(game, 40, rule="imitation", seed=0,
                                       backend="count",
                                       weights="twoclass:3")
        sim.run(2000)
        assert sim.counts.sum() == 40

    def test_weighted_imitation_count_matches_agent_law(self):
        """Law equality, count lift vs agent backend, for the 4-slot
        imitation rule under heterogeneous weights (mean final counts)."""
        game = hawk_dove_game(2.0, 4.0)
        runs, steps, n = 60, 400, 30
        totals = {"agent": 0.0, "count": 0.0}
        for backend in ("agent", "count"):
            for r in range(runs):
                sim = PopulationGameSimulation(
                    game, n, rule="imitation", seed=1000 + r,
                    backend=backend, weights="twoclass:4")
                sim.run(steps)
                totals[backend] += sim.counts[0]
        difference = abs(totals["agent"] - totals["count"]) / runs
        assert difference < 2.5, difference

    def test_auto_dispatch_weighted_imitation_goes_count(self):
        """'auto' is free to resolve weighted imitation count-level now
        that the lift supports 4-slot models."""
        game = hawk_dove_game(2.0, 4.0)
        sim = PopulationGameSimulation(game, 100_000, rule="imitation",
                                       seed=0, backend="auto",
                                       weights="twoclass:3")
        assert sim.backend == "count"
        sim.run(500)
        assert sim.counts.sum() == 100_000
