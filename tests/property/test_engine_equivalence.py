"""Backend-equivalence property tests for the engine layer.

Two guarantees are pinned down here:

* **AgentBackend is the seed simulator, bit for bit** — frozen copies of
  the pre-engine per-interaction loops (the seed protocol simulator's
  ``run`` and the ``IGTSimulation`` fast path) are replayed against the
  engine-backed implementations under shared seeds and must produce
  identical trajectories, not merely the same law.
* **CountBackend is exact in distribution** — its empirical state
  distribution is compared against the exact transition matrices from
  :mod:`repro.markov` (the paper's Ehrenfest embedding) and against the
  agent-level law for the general-game rules.
"""

import math

import numpy as np
import pytest

from repro.core.general_games import (
    PopulationGameSimulation,
    hawk_dove_game,
)
from repro.core.igt import GenerosityGrid
from repro.core.population_igt import IGTSimulation, PopulationShares
from repro.engine import (
    CountBackend,
    TableModel,
    build_engine,
    igt_model,
    make_law,
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


def agent_run(table, initial_states, seed, max_steps, vectorized=None,
              observe_every=None):
    """``table`` on the agent engine, built as ``build_engine`` builds it."""
    states = np.array(initial_states, dtype=np.int64)
    engine = build_engine(TableModel(table), make_law(states.size, seed=seed),
                          "agent", states=states, vectorized=vectorized)
    return engine.run(max_steps, observe_every=observe_every)


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


class TestAgentBackendBitCompat:
    @pytest.mark.parametrize("seed", [0, 7, 2024])
    def test_simulator_trajectories_identical(self, seed):
        table = max_table(4, responder_too=False)
        states = np.zeros(300, dtype=np.int64)
        states[:5] = 3
        states[5:40] = 1
        ref_states, ref_counts, ref_obs = reference_simulator_run(
            table, states, seed, 30_000, observe_every=7001)
        result = agent_run(table, states, seed, 30_000,
                           observe_every=7001)
        assert np.array_equal(result.states, ref_states)
        assert np.array_equal(result.counts, ref_counts)
        assert len(result.observations) == len(ref_obs)
        for (s1, c1), (s2, c2) in zip(result.observations, ref_obs):
            assert s1 == s2 and np.array_equal(c1, c2)

    def test_two_way_protocol_identical(self):
        table = max_table(3, responder_too=True)
        states = (np.arange(100) % 3).astype(np.int64)
        ref_states, ref_counts, _ = reference_simulator_run(
            table, states, 13, 5000)
        result = agent_run(table, states, 13, 5000)
        assert np.array_equal(result.states, ref_states)
        assert np.array_equal(result.counts, ref_counts)

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("seed", [1, 42])
    def test_igt_trajectories_identical(self, seed, strict):
        shares = PopulationShares(alpha=0.3, beta=0.2, gamma=0.5)
        grid = GenerosityGrid(k=5, g_max=0.6)
        ref_gtft, ref_counts, ref_recorded = reference_igt_run(
            150, shares, grid, seed, 20_000, observe_every=4999,
            strict=strict)
        sim = IGTSimulation(n=150, shares=shares, grid=grid, seed=seed,
                            mode="strict" if strict else "strategy")
        recorded = sim.run(20_000, observe_every=4999)
        assert np.array_equal(sim.gtft_indices(), ref_gtft)
        assert np.array_equal(sim.counts, ref_counts)
        assert np.array_equal(recorded, np.stack(ref_recorded))


class TestVectorizedAgentBitCompat:
    """The chunked kernel is the seed simulator bit for bit, forced on.

    The auto heuristics would decline these small populations; forcing
    ``vectorized=True`` pins the kernel's conflict resolution itself
    against the frozen pre-engine loops — states, counts, observation
    snapshots, everything.
    """

    @pytest.mark.parametrize("seed", [0, 7, 2024])
    def test_simulator_trajectories_identical(self, seed):
        table = max_table(4, responder_too=False)
        states = np.zeros(300, dtype=np.int64)
        states[:5] = 3
        states[5:40] = 1
        ref_states, ref_counts, ref_obs = reference_simulator_run(
            table, states, seed, 30_000, observe_every=7001)
        result = agent_run(table, states, seed, 30_000, vectorized=True,
                           observe_every=7001)
        assert np.array_equal(result.states, ref_states)
        assert np.array_equal(result.counts, ref_counts)
        assert len(result.observations) == len(ref_obs)
        for (s1, c1), (s2, c2) in zip(result.observations, ref_obs):
            assert s1 == s2 and np.array_equal(c1, c2)

    def test_two_way_protocol_identical(self):
        table = max_table(3, responder_too=True)
        states = (np.arange(100) % 3).astype(np.int64)
        ref_states, ref_counts, _ = reference_simulator_run(
            table, states, 13, 5000)
        result = agent_run(table, states, 13, 5000, vectorized=True)
        assert np.array_equal(result.states, ref_states)
        assert np.array_equal(result.counts, ref_counts)


class TestCountBackendExactLaw:
    @pytest.mark.parametrize("vectorized", [True, False])
    def test_matches_exact_ehrenfest_chain(self, vectorized):
        """Empirical T-step distribution vs the exact chain from markov/.

        Parametrized over both count paths: the array-proxy kernel
        (``vectorized=True``, the small-n default) and the birthday
        batching (``vectorized=False``) must both realize the exact law.
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
        steps, runs = 12, 6000
        rng = np.random.default_rng(2024)
        histogram = np.zeros(len(space))
        for _ in range(runs):
            backend = CountBackend(model, start, seed=rng,
                                   vectorized=vectorized)
            final = backend.run(steps).counts
            histogram[space.index(tuple(final[:k]))] += 1
        histogram /= runs
        initial = np.zeros(len(space))
        initial[space.index((m, 0))] = 1.0
        exact = initial @ np.linalg.matrix_power(matrix, steps)
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

    @pytest.mark.parametrize("vectorized", [True, False])
    def test_interior_snapshot_matches_exact_chain(self, vectorized):
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
            backend = CountBackend(model, start, seed=rng,
                                   vectorized=vectorized)
            result = backend.run(steps, observe_every=snapshot_at)
            interior = dict(result.observations)[snapshot_at]
            histogram[space.index(tuple(interior[:k]))] += 1
        histogram /= runs
        initial = np.zeros(len(space))
        initial[space.index((m, 0))] = 1.0
        exact = initial @ np.linalg.matrix_power(matrix, snapshot_at)
        tv = 0.5 * np.abs(histogram - exact).sum()
        assert tv < 0.05, f"TV of interior snapshot to exact chain {tv:.4f}"

    @pytest.mark.parametrize("vectorized", [True, False])
    def test_per_step_stop_probability_matches_absorbing_chain(
            self, vectorized):
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
            backend = CountBackend(model, start, seed=rng,
                                   vectorized=vectorized)
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
    @pytest.mark.parametrize("rule,kwargs", [
        ("imitation", {}),
        ("best_response", {"p_update": 0.4}),
        ("logit", {"eta": 1.3}),
    ])
    def test_count_matches_agent_law(self, rule, kwargs):
        """Final-count distributions of the two backends coincide."""
        game = hawk_dove_game(2.0, 4.0)
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
            count_sim = PopulationGameSimulation(
                game, n, rule=rule, seed=rng, initial_strategies=initial,
                backend="count", **kwargs)
            count_sim.run(steps)
            count_hist[count_sim.counts[0]] += 1
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
