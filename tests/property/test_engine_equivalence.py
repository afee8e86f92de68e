"""Backend-equivalence property tests for the engine layer.

Two guarantees are pinned down here:

* **AgentBackend is the seed simulator, bit for bit** — frozen copies of
  the pre-engine per-interaction loops (the seed protocol simulator's
  ``run`` and the ``IGTSimulation`` fast path) are replayed against the
  engine-backed implementations under shared seeds and must produce
  identical trajectories, not merely the same law.  A frozen
  per-interaction loop that hands each interaction one uniform is
  replayed the same way against the kernel's peel for every model that
  draws one: stochastic models and table mixtures.
* **CountBackend is exact in distribution** — its empirical state
  distribution is compared against the exact transition matrices from
  :mod:`repro.markov` (the paper's Ehrenfest embedding) and against the
  agent-level law for the general-game rules.
"""

import math

import numpy as np
import pytest
from conftest import birthday

from repro.core.general_games import (
    PopulationGameSimulation,
    hawk_dove_game,
)
from repro.core.igt import GenerosityGrid
from repro.core.population_igt import IGTSimulation, PopulationShares
from repro.engine import (
    AgentBackend,
    CountBackend,
    ImitationModel,
    LogitResponseModel,
    PairMixtureTableModel,
    TableModel,
    build_engine,
    igt_model,
    make_law,
    matrix_game_model,
)
from repro.markov.ehrenfest import EhrenfestProcess


# ----------------------------------------------------------------------
# Frozen references: the seed repo's per-interaction loops, verbatim law
# and randomness consumption.
# ----------------------------------------------------------------------
def reference_simulator_run(table, initial_states, seed, max_steps,
                            observe_every=None):
    """The seed simulator's ``run`` loop (block-sampled pairs, per-step)."""
    rng = np.random.default_rng(seed)
    states = np.asarray(initial_states, dtype=np.int64).copy()
    n = states.size
    counts = np.bincount(states, minlength=table.shape[0]).astype(np.int64)
    observations = []
    if observe_every is not None:
        observations.append((0, counts.copy()))
    block = 65536
    done = 0
    while done < max_steps:
        batch = min(block, max_steps - done)
        initiators = rng.integers(0, n, size=batch)
        responders = rng.integers(0, n - 1, size=batch)
        responders = responders + (responders >= initiators)
        for offset in range(batch):
            i = initiators[offset]
            j = responders[offset]
            u = states[i]
            v = states[j]
            new_u = table[u, v, 0]
            new_v = table[u, v, 1]
            if new_u != u:
                states[i] = new_u
                counts[u] -= 1
                counts[new_u] += 1
            if new_v != v:
                states[j] = new_v
                counts[v] -= 1
                counts[new_v] += 1
            step = done + offset + 1
            if observe_every is not None and step % observe_every == 0:
                observations.append((step, counts.copy()))
        done += batch
    return states, counts, observations


def max_table(n_states: int, responder_too: bool) -> np.ndarray:
    """The initiator (and, when ``responder_too``, the responder) takes
    the larger of the two states."""
    return np.array([[(max(u, v), max(u, v) if responder_too else v)
                      for v in range(n_states)] for u in range(n_states)])


def agent_run(table, initial_states, seed, max_steps, observe_every=None):
    """``table`` on the agent engine, built as ``build_engine`` builds it.

    Returns the final per-agent states and the run's result.
    """
    states = np.array(initial_states, dtype=np.int64)
    engine = build_engine(TableModel(table), make_law(states.size, seed=seed),
                          "agent", states=states)
    result = engine.run(max_steps, observe_every=observe_every)
    return engine.states, result


def reference_igt_run(n, shares, grid, seed, steps, observe_every=None,
                      strict=False):
    """The seed ``IGTSimulation`` fast path (strategy/strict, no payoffs)."""
    rng = np.random.default_rng(seed)
    n_ac, n_ad, n_gtft = shares.agent_counts(n)
    types = np.empty(n, dtype=np.int64)
    types[:n_ac] = 0       # AC
    types[n_ac:n_ac + n_ad] = 1  # AD
    types[n_ac + n_ad:] = 2      # GTFT
    indices = np.zeros(n, dtype=np.int64)
    indices[n_ac + n_ad:] = rng.integers(0, grid.k, size=n_gtft)
    counts = np.bincount(indices[n_ac + n_ad:],
                         minlength=grid.k).astype(np.int64)
    recorded = [counts.copy()] if observe_every is not None else None
    k = grid.k
    block = 65536
    done = 0
    while done < steps:
        batch = min(block, steps - done)
        first = rng.integers(0, n, size=batch)
        second = rng.integers(0, n - 1, size=batch)
        second = second + (second >= first)
        for offset in range(batch):
            i = first[offset]
            if types[i] == 2:
                j = second[offset]
                partner = types[j]
                old = indices[i]
                if partner == 1:
                    new = old - 1 if old > 0 else old
                elif strict and partner == 0:
                    new = old
                else:
                    new = old + 1 if old < k - 1 else old
                if new != old:
                    indices[i] = new
                    counts[old] -= 1
                    counts[new] += 1
            if observe_every is not None \
                    and (done + offset + 1) % observe_every == 0:
                recorded.append(counts.copy())
        done += batch
    return indices[n_ac + n_ad:], counts, recorded


def reference_generic_run(model, states, counts, scheduler, max_steps,
                          steps_run=0, stop_when=None, observe_every=None,
                          check_stop_every=1):
    """The agent engine's per-interaction loop for models without
    component tables, as it ran before they moved onto the kernel, with
    each interaction's one uniform drawn before its model call.

    Updates ``states`` and ``counts`` in place, drawing pair blocks,
    observed agents and uniforms from ``scheduler`` in the engine's
    order.  Returns ``(observations, executed, converged)``.
    """
    observations = []
    if observe_every is not None:
        observations.append((steps_run, counts.copy()))
    if stop_when is not None and stop_when(counts):
        return observations, 0, True
    four = model.slots_per_step == 4
    rng = scheduler.rng
    block = 65536
    done = 0
    while done < max_steps:
        batch = min(block, max_steps - done)
        initiators, responders = scheduler.pair_block(batch)
        if four:
            obs_i = scheduler.others_block(initiators)
            obs_j = scheduler.others_block(responders)
        for offset in range(batch):
            i = initiators[offset]
            j = responders[offset]
            u = int(states[i])
            v = int(states[j])
            observed = None
            if four:
                observed = (int(states[obs_i[offset]]),
                            int(states[obs_j[offset]]))
            new_u, new_v = model.apply_scalar(u, v, rng.random(), observed)
            if new_u != u:
                states[i] = new_u
                counts[u] -= 1
                counts[new_u] += 1
            if new_v != v:
                states[j] = new_v
                counts[v] -= 1
                counts[new_v] += 1
            step = done + offset + 1
            if observe_every is not None and step % observe_every == 0:
                observations.append((steps_run + step, counts.copy()))
            if (stop_when is not None and step % check_stop_every == 0
                    and stop_when(counts)):
                return observations, step, True
        done += batch
    return observations, max_steps, False


def igt_engine(n, shares, grid, seed, strict):
    """The k-IGT population on the agent engine, started as
    ``IGTSimulation`` starts it: the GTFT indices are the generator's
    first draws, and the engine's pairs come after them."""
    k = grid.k
    rng = np.random.default_rng(seed)
    n_ac, n_ad, n_gtft = shares.agent_counts(n)
    states = np.concatenate([np.full(n_ac, k), np.full(n_ad, k + 1),
                             rng.integers(0, k, size=n_gtft)])
    model = igt_model(k, mode="strict" if strict else "strategy")
    return build_engine(model, make_law(n, seed=rng), "agent",
                        states=states)


class TestAgentBackendBitCompat:
    """The agent engine's peeled rounds are the seed simulator bit for
    bit against the frozen pre-engine loops, which share no code with
    the kernel — states, counts, observation snapshots, everything, at
    populations far below a chunk."""

    @pytest.mark.parametrize("seed", [0, 7, 2024])
    def test_simulator_trajectories_identical(self, seed):
        table = max_table(4, responder_too=False)
        states = np.zeros(300, dtype=np.int64)
        states[:5] = 3
        states[5:40] = 1
        ref_states, ref_counts, ref_obs = reference_simulator_run(
            table, states, seed, 30_000, observe_every=7001)
        final, result = agent_run(table, states, seed, 30_000,
                                  observe_every=7001)
        assert np.array_equal(final, ref_states)
        assert np.array_equal(result.counts, ref_counts)
        assert len(result.observations) == len(ref_obs)
        for (s1, c1), (s2, c2) in zip(result.observations, ref_obs):
            assert s1 == s2 and np.array_equal(c1, c2)

    def test_two_way_protocol_identical(self):
        table = max_table(3, responder_too=True)
        states = (np.arange(100) % 3).astype(np.int64)
        ref_states, ref_counts, _ = reference_simulator_run(
            table, states, 13, 5000)
        final, result = agent_run(table, states, 13, 5000)
        assert np.array_equal(final, ref_states)
        assert np.array_equal(result.counts, ref_counts)

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("seed", [1, 42])
    def test_igt_trajectories_identical(self, seed, strict):
        shares = PopulationShares(alpha=0.3, beta=0.2, gamma=0.5)
        grid = GenerosityGrid(k=5, g_max=0.6)
        ref_gtft, ref_counts, ref_recorded = reference_igt_run(
            150, shares, grid, seed, 20_000, observe_every=4999,
            strict=strict)
        engine = igt_engine(150, shares, grid, seed, strict)
        result = engine.run(20_000, observe_every=4999)
        assert np.array_equal(engine.states[-len(ref_gtft):], ref_gtft)
        assert np.array_equal(result.counts[:grid.k], ref_counts)
        assert np.array_equal(
            np.stack([c[:grid.k] for _, c in result.observations]),
            np.stack(ref_recorded))
        # The facade builds that engine.
        sim = IGTSimulation(n=150, shares=shares, grid=grid, seed=seed,
                            mode="strict" if strict else "strategy")
        recorded = sim.run(20_000, observe_every=4999)
        assert np.array_equal(sim.gtft_indices(), ref_gtft)
        assert np.array_equal(recorded, np.stack(ref_recorded))


def moving_pair_mixture(s: int = 4) -> PairMixtureTableModel:
    """A two-way stochastic model: both tables move the responder."""
    u, v = np.meshgrid(np.arange(s), np.arange(s), indexing="ij")
    hit = np.stack([(u + 1) % s, (v + s - 1) % s], axis=-1)
    miss = np.stack([v, (u + v) % s], axis=-1)
    probs = np.random.default_rng(8).random((s, s))
    return PairMixtureTableModel(hit, miss, probs)


LAWS = [{}, {"weights": "powerlaw"}, {"topology": "ring"}]
LAW_IDS = ["uniform", "powerlaw", "ring"]


class TestGenericModelsInPairOrder:
    """Every model that draws a uniform per interaction — stochastic
    models and table mixtures — peels on the kernel bit for bit like the
    frozen per-interaction loop: same pair blocks, observed-agent draws
    and uniforms, the responder's outcome kept, observations and early
    stops at the same steps, and the generator where the loop leaves
    it."""

    def assert_runs_match(self, model, initial, law, plan, seed=5):
        """Run ``plan`` (a list of ``run`` keyword dicts) on the engine
        and on the frozen loop, comparing after every call."""
        n = initial.size
        engine = AgentBackend(model, initial,
                              scheduler=make_law(n, seed=seed, **law))
        scheduler = make_law(n, seed=seed, **law)
        states = initial.astype(np.int64)
        counts = np.bincount(states, minlength=model.n_states)
        steps_run = 0
        converged = []
        for call in plan:
            result = engine.run(**call)
            observations, executed, stopped = reference_generic_run(
                model, states, counts, scheduler, steps_run=steps_run,
                **call)
            steps_run += executed
            np.testing.assert_array_equal(engine.states, states)
            np.testing.assert_array_equal(result.counts, counts)
            assert result.steps == engine.steps_run == steps_run
            assert result.converged == stopped
            assert len(result.observations) == len(observations)
            for (s1, c1), (s2, c2) in zip(result.observations,
                                          observations):
                assert s1 == s2
                np.testing.assert_array_equal(c1, c2)
            converged.append(stopped)
        assert (engine.scheduler.rng.bit_generator.state
                == scheduler.rng.bit_generator.state)
        return converged

    @pytest.mark.parametrize("law", LAWS, ids=LAW_IDS)
    def test_two_way_pair_mixture(self, law):
        model = moving_pair_mixture()
        assert not model.one_way
        initial = np.random.default_rng(2).integers(0, 4, 150)
        self.assert_runs_match(model, initial, law, [
            {"max_steps": 3000, "observe_every": 700},
            {"max_steps": 70_000},
        ])

    @pytest.mark.parametrize("law", LAWS, ids=LAW_IDS)
    def test_imitation_reads_its_observed_agents(self, law):
        model = ImitationModel(np.array([[1.0, 3.0], [0.0, 2.0]]))
        initial = (np.arange(200) % 2).astype(np.int64)
        self.assert_runs_match(model, initial, law, [
            {"max_steps": 5000, "observe_every": 700},
            {"max_steps": 4000},
        ])

    def test_logit_stop_fires_mid_block(self):
        model = LogitResponseModel(np.array([[0.0, 2.0], [1.0, 3.0]]),
                                   eta=1.5)
        initial = np.zeros(300, dtype=np.int64)
        converged = self.assert_runs_match(model, initial, {}, [
            {"max_steps": 20_000, "observe_every": 700,
             "stop_when": lambda counts: counts[1] >= 200,
             "check_stop_every": 300},
            {"max_steps": 5000, "observe_every": 700},
        ])
        assert converged == [True, False]

    def test_noisy_igt_stop_fires_mid_block(self):
        # A table mixture draws its uniforms per chunk, so a stop inside
        # a block leaves the generator where the loop leaves it.
        # GTFT agents start at the bottom index and climb: the stop
        # fires after a few thousand steps of a 30,000-step block.
        model = igt_model(6, observation_noise=0.1)
        initial = np.repeat([0, 6, 7], [200, 120, 80])
        converged = self.assert_runs_match(model, initial, {}, [
            {"max_steps": 30_000, "observe_every": 900,
             "stop_when": lambda counts: counts[5] >= 40,
             "check_stop_every": 250},
            {"max_steps": 6000, "observe_every": 900},
        ])
        assert converged == [True, False]


class TestCountBackendExactLaw:
    @pytest.mark.parametrize("engine, calls", [
        (CountBackend, (12,)), (birthday(CountBackend), (12,)),
        (CountBackend, (5, 4, 3)), (CountBackend, (3, 3, 3, 3))],
        ids=["proxy", "birthday", "proxy-5+4+3", "proxy-4x3"])
    def test_matches_exact_ehrenfest_chain(self, engine, calls):
        """Empirical T-step distribution vs the exact chain from markov/.

        Parametrized over both count paths: the array-proxy kernel (the
        small-n path) and the birthday batching (reached here through
        a zero proxy ceiling) must both realize the exact law.
        A proxy run split across ``run()`` calls must too: every call
        starts from the canonical expansion of the counts it inherits
        (inert AC/AD agents last, behind the index bound).
        """
        n, n_ac, n_ad, k = 8, 1, 2, 2
        m = n - n_ac - n_ad
        beta_hat = n_ad / (n - 1)
        process = EhrenfestProcess(k=k, a=(m / n) * (1 - beta_hat),
                                   b=(m / n) * beta_hat, m=m)
        space = process.space()
        matrix = process.exact_chain(space).dense()
        model = igt_model(k)
        start = np.array([m, 0, n_ac, n_ad], dtype=np.int64)
        steps, runs = sum(calls), 6000
        rng = np.random.default_rng(2024)
        histogram = np.zeros(len(space))
        for _ in range(runs):
            backend = engine(model, start, seed=rng)
            for call in calls:
                final = backend.run(call).counts
            histogram[space.index(tuple(final[:k]))] += 1
        histogram /= runs
        initial = np.zeros(len(space))
        initial[space.index((m, 0))] = 1.0
        exact = initial @ np.linalg.matrix_power(matrix, steps)
        tv = 0.5 * np.abs(histogram - exact).sum()
        assert tv < 0.05, f"TV to exact chain {tv:.4f}"

    def test_split_proxy_run_with_an_inert_state_first(self):
        """The expansion moves inert states behind the index bound.

        In the "cure" protocol an initiator takes the smaller of the two
        states, so state 0 is inert and the expansion puts state 1
        first.  The number of 1s is a pure death chain: it drops by one
        with probability x(n-x)/(n(n-1)) per interaction.
        """
        n, ones, calls, runs = 10, 9, (4, 4, 4), 5000
        cure = np.array([[(min(u, v), v) for v in range(2)]
                         for u in range(2)])
        matrix = np.zeros((n + 1, n + 1))
        for x in range(n + 1):
            down = x * (n - x) / (n * (n - 1))
            matrix[x, x] = 1 - down
            if x:
                matrix[x, x - 1] = down
        rng = np.random.default_rng(31)
        histogram = np.zeros(n + 1)
        for _ in range(runs):
            backend = CountBackend(TableModel(cure),
                                   np.array([n - ones, ones]), seed=rng)
            for steps in calls:
                final = backend.run(steps).counts
            histogram[final[1]] += 1
        histogram /= runs
        exact = np.linalg.matrix_power(matrix, sum(calls))[ones]
        tv = 0.5 * np.abs(histogram - exact).sum()
        assert tv < 0.05, f"TV to exact chain {tv:.4f}"

    def test_matches_exact_chain_k3(self):
        n, n_ac, n_ad, k = 10, 2, 3, 3
        m = n - n_ac - n_ad
        beta_hat = n_ad / (n - 1)
        process = EhrenfestProcess(k=k, a=(m / n) * (1 - beta_hat),
                                   b=(m / n) * beta_hat, m=m)
        space = process.space()
        matrix = process.exact_chain(space).dense()
        model = igt_model(k)
        start = np.array([0, m, 0, n_ac, n_ad], dtype=np.int64)
        steps, runs = 20, 6000
        rng = np.random.default_rng(99)
        histogram = np.zeros(len(space))
        for _ in range(runs):
            backend = CountBackend(model, start, seed=rng)
            final = backend.run(steps).counts
            histogram[space.index(tuple(final[:k]))] += 1
        histogram /= runs
        initial = np.zeros(len(space))
        initial[space.index((0, m, 0))] = 1.0
        exact = initial @ np.linalg.matrix_power(matrix, steps)
        tv = 0.5 * np.abs(histogram - exact).sum()
        assert tv < 0.07, f"TV to exact chain {tv:.4f}"


class TestCountBackendCheckpointLaw:
    """Mid-batch checkpoints must not perturb the process law.

    Observation boundaries no longer split birthday batches: interior
    counts come from prefix sums over the batch's recorded slots, and an
    early stop truncates a faithfully sampled trajectory.  Both the
    interior-snapshot marginal and the stopped-by-T probability are
    compared against the exact chains from :mod:`repro.markov`.
    """

    @pytest.mark.parametrize("engine", [
        CountBackend, birthday(CountBackend)], ids=["proxy", "birthday"])
    def test_interior_snapshot_matches_exact_chain(self, engine):
        n, n_ac, n_ad, k = 8, 1, 2, 2
        m = n - n_ac - n_ad
        beta_hat = n_ad / (n - 1)
        process = EhrenfestProcess(k=k, a=(m / n) * (1 - beta_hat),
                                   b=(m / n) * beta_hat, m=m)
        space = process.space()
        matrix = process.exact_chain(space).dense()
        model = igt_model(k)
        start = np.array([m, 0, n_ac, n_ad], dtype=np.int64)
        # Snapshot step 7 of a 40-step run: with the ~sqrt(n) batch scale
        # the checkpoint lands strictly inside a batch, not at its end.
        snapshot_at, steps, runs = 7, 40, 5000
        rng = np.random.default_rng(20240726)
        histogram = np.zeros(len(space))
        for _ in range(runs):
            backend = engine(model, start, seed=rng)
            result = backend.run(steps, observe_every=snapshot_at)
            interior = dict(result.observations)[snapshot_at]
            histogram[space.index(tuple(interior[:k]))] += 1
        histogram /= runs
        initial = np.zeros(len(space))
        initial[space.index((m, 0))] = 1.0
        exact = initial @ np.linalg.matrix_power(matrix, snapshot_at)
        tv = 0.5 * np.abs(histogram - exact).sum()
        assert tv < 0.05, f"TV of interior snapshot to exact chain {tv:.4f}"

    @pytest.mark.parametrize("engine", [
        CountBackend, birthday(CountBackend)], ids=["proxy", "birthday"])
    def test_per_step_stop_probability_matches_absorbing_chain(
            self, engine):
        n, n_ac, n_ad, k = 8, 1, 2, 2
        m = n - n_ac - n_ad
        beta_hat = n_ad / (n - 1)
        process = EhrenfestProcess(k=k, a=(m / n) * (1 - beta_hat),
                                   b=(m / n) * beta_hat, m=m)
        space = process.space()
        matrix = process.exact_chain(space).dense()
        model = igt_model(k)
        start = np.array([m, 0, n_ac, n_ad], dtype=np.int64)
        horizon, runs = 15, 4000
        target = space.index((0, m))
        rng = np.random.default_rng(77)
        stopped = 0
        for _ in range(runs):
            backend = engine(model, start, seed=rng)
            result = backend.run(horizon, stop_when=lambda c: c[0] == 0,
                                 check_stop_every=1)
            stopped += result.converged
        absorbing = matrix.copy()
        absorbing[target] = 0.0
        absorbing[target, target] = 1.0
        initial = np.zeros(len(space))
        initial[space.index((m, 0))] = 1.0
        exact = (initial @ np.linalg.matrix_power(absorbing, horizon))[target]
        standard_error = math.sqrt(exact * (1 - exact) / runs)
        assert abs(stopped / runs - exact) < 5 * standard_error, \
            f"stop rate {stopped / runs:.4f} vs exact {exact:.4f}"


class TestGameBackendsAgree:
    @pytest.mark.parametrize("engine", [
        CountBackend, birthday(CountBackend)], ids=["proxy", "birthday"])
    @pytest.mark.parametrize("rule,kwargs", [
        ("imitation", {}),
        ("best_response", {"p_update": 0.4}),
        ("logit", {"eta": 1.3}),
    ])
    def test_count_matches_agent_law(self, rule, kwargs, engine):
        """Final-count distributions of the agent backend and of each
        count path coincide (the count engine runs the facade's model)."""
        game = hawk_dove_game(2.0, 4.0)
        model = matrix_game_model(game.row_payoffs, rule, **kwargs)
        n, steps, runs = 10, 25, 2500
        initial = np.array([0] * 5 + [1] * 5, dtype=np.int64)
        rng = np.random.default_rng(7)
        agent_hist = np.zeros(n + 1)
        count_hist = np.zeros(n + 1)
        for _ in range(runs):
            agent_sim = PopulationGameSimulation(
                game, n, rule=rule, seed=rng, initial_strategies=initial,
                **kwargs)
            agent_sim.run(steps)
            agent_hist[agent_sim.counts[0]] += 1
            count = engine(model, np.bincount(initial), seed=rng)
            count_hist[count.run(steps).counts[0]] += 1
        tv = 0.5 * np.abs(agent_hist - count_hist).sum() / runs
        assert tv < 0.09, f"{rule}: TV between backends {tv:.4f}"

    def test_igt_backends_agree_on_moments(self):
        """Mean final counts of the IGT backends coincide (larger n)."""
        shares = PopulationShares(alpha=0.3, beta=0.2, gamma=0.5)
        grid = GenerosityGrid(k=4, g_max=0.6)
        runs, steps = 60, 3000
        rng = np.random.default_rng(5)
        agent_means = np.zeros(4)
        count_means = np.zeros(4)
        for _ in range(runs):
            agent_sim = IGTSimulation(n=120, shares=shares, grid=grid,
                                      seed=rng, initial_indices=0)
            agent_sim.run(steps)
            agent_means += agent_sim.counts
            count_sim = IGTSimulation(n=120, shares=shares, grid=grid,
                                      seed=rng, initial_indices=0,
                                      backend="count")
            count_sim.run(steps)
            count_means += count_sim.counts
        agent_means /= runs
        count_means /= runs
        # Means of ~60 draws of a 60-agent count vector: allow 3-sigma-ish
        # slack per coordinate.
        assert np.abs(agent_means - count_means).max() < 4.0
