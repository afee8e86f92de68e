"""Unit tests for the chunked vectorized kernel and its backend paths.

The load-bearing guarantee is *bit-for-bit* equality with the sequential
loops: same seed, same pair blocks, identical trajectories — including
the degenerate geometries (``n = 2``, ``n = 3``, chunks larger than the
population) where every chunk is one long conflict chain.
"""

import numpy as np
import pytest

from repro.core.equilibrium import RDSetting
from repro.core.igt import GenerosityGrid
from repro.engine import (
    AgentBackend,
    ConflictFreeKernel,
    CountBackend,
    igt_action_model,
    igt_model,
    matrix_game_model,
)
from repro.engine.model import TableModel
from repro.engine.vectorized import MIN_VECTORIZED_N, auto_chunk
from repro.utils import InvalidParameterError


@pytest.fixture
def epidemic():
    """One-way max-epidemic protocol on 3 states (state 2 is inert)."""
    return TableModel([[(max(u, v), v) for v in range(3)] for u in range(3)])


@pytest.fixture
def swap():
    """Two-way model: initiator and responder exchange states."""
    s = 3
    table = np.empty((s, s, 2), dtype=np.int64)
    for u in range(s):
        for v in range(s):
            table[u, v] = (v, u)
    return TableModel(table)


def igt_states(n, k=6):
    states = np.empty(n, dtype=np.int64)
    states[:n // 2] = 0
    states[n // 2:n // 2 + (3 * n) // 10] = k
    states[n // 2 + (3 * n) // 10:] = k + 1
    return states


class TestBitParity:
    @pytest.mark.parametrize("n", [2, 3, 5, 17, 300, 1500])
    def test_igt_matches_sequential(self, n):
        # chunk (>= 1024) far exceeds the small populations: every pair
        # of a chunk conflicts with many others.
        model = igt_model(6)
        states = igt_states(n)
        fast = AgentBackend(model, states, seed=11,
                            vectorized=True).run(9000)
        slow = AgentBackend(model, states, seed=11,
                            vectorized=False).run(9000)
        assert np.array_equal(fast.states, slow.states)
        assert np.array_equal(fast.counts, slow.counts)

    @pytest.mark.parametrize("n", [2, 7, 800])
    def test_two_way_matches_sequential(self, swap, n):
        states = (np.arange(n) % 3).astype(np.int64)
        fast = AgentBackend(swap, states, seed=5, vectorized=True).run(6000)
        slow = AgentBackend(swap, states, seed=5, vectorized=False).run(6000)
        assert np.array_equal(fast.states, slow.states)
        assert np.array_equal(fast.counts, slow.counts)

    def test_mixture_model_matches_sequential(self):
        model = igt_model(5, observation_noise=0.2)
        states = igt_states(700, k=5)
        fast = AgentBackend(model, states, seed=3,
                            vectorized=True).run(20_000)
        slow = AgentBackend(model, states, seed=3,
                            vectorized=False).run(20_000)
        assert np.array_equal(fast.states, slow.states)

    def test_observations_and_stop_match(self, epidemic):
        states = np.zeros(400, dtype=np.int64)
        states[0] = 2
        runs = []
        for vectorized in (True, False):
            backend = AgentBackend(epidemic, states, seed=9,
                                   vectorized=vectorized)
            runs.append(backend.run(50_000, stop_when=lambda c: c[2] >= 300,
                                    observe_every=1000,
                                    check_stop_every=500))
        fast, slow = runs
        assert fast.converged and slow.converged
        assert fast.steps == slow.steps
        assert len(fast.observations) == len(slow.observations)
        for (s1, c1), (s2, c2) in zip(fast.observations, slow.observations):
            assert s1 == s2 and np.array_equal(c1, c2)

    def test_inert_filter_epidemic_absorbed(self, epidemic):
        # All agents inert from the start: the whole run is no-ops.
        states = np.full(2000, 2, dtype=np.int64)
        result = AgentBackend(epidemic, states, seed=1,
                              vectorized=True).run(30_000)
        assert result.counts[2] == 2000
        assert np.array_equal(result.states, states)

    def test_epidemic_not_closed_still_exact(self, epidemic):
        # Epidemic agents *become* inert mid-run (active 0/1 -> inert 2),
        # so the static-mask shortcut must not engage; trajectories stay
        # identical to sequential execution.
        states = (np.arange(1200) % 3).astype(np.int64)
        fast = AgentBackend(epidemic, states, seed=21,
                            vectorized=True).run(40_000)
        slow = AgentBackend(epidemic, states, seed=21,
                            vectorized=False).run(40_000)
        assert np.array_equal(fast.states, slow.states)


class TestPathSelection:
    def test_auto_declines_small_population(self, epidemic):
        backend = AgentBackend(epidemic,
                               np.zeros(MIN_VECTORIZED_N - 1,
                                        dtype=np.int64), seed=0)
        assert not backend._use_vectorized(None, None, 1)

    def test_auto_declines_tiny_cadence(self, epidemic):
        backend = AgentBackend(epidemic,
                               np.zeros(5000, dtype=np.int64), seed=0)
        assert backend._use_vectorized(None, None, 1)
        assert not backend._use_vectorized(lambda c: False, None, 10)
        assert backend._use_vectorized(lambda c: False, None, 5000)
        assert not backend._use_vectorized(None, 10, 1)

    def test_explicit_flags_win(self, epidemic):
        states = np.zeros(50, dtype=np.int64)
        forced = AgentBackend(epidemic, states, seed=0, vectorized=True)
        assert forced._use_vectorized(lambda c: False, 1, 1)
        pinned = AgentBackend(epidemic, states, seed=0, vectorized=False)
        assert not pinned._use_vectorized(None, None, 1)

    def test_generic_models_ignore_the_knob(self):
        model = matrix_game_model(np.array([[0.0, 2.0], [1.0, 0.0]]),
                                  "logit", eta=2.0)
        backend = AgentBackend(model, (np.arange(12) % 2).astype(np.int64),
                               seed=1, vectorized=True)
        result = backend.run(500)
        assert result.counts.sum() == 12

    def test_states_live_identity_preserved(self, epidemic):
        states = (np.arange(3000) % 3).astype(np.int64)
        backend = AgentBackend(epidemic, states, seed=2, vectorized=True)
        live = backend.states_live
        backend.run(10_000)
        assert backend.states_live is live
        assert np.array_equal(backend.counts,
                              np.bincount(live, minlength=3))


class TestKernelValidation:
    def test_stochastic_needs_opt_in(self):
        model = matrix_game_model(np.array([[0.0, 2.0], [1.0, 0.0]]),
                                  "logit", eta=2.0)
        states = np.zeros(10, dtype=np.int64)
        counts = np.bincount(states, minlength=2)
        with pytest.raises(InvalidParameterError):
            ConflictFreeKernel(model, states, counts)
        kernel = ConflictFreeKernel(model, states, counts,
                                    allow_stochastic=True)
        assert kernel.one_way

    def test_pair_count_matrix_requires_tracking(self, epidemic):
        states = np.zeros(10, dtype=np.int64)
        kernel = ConflictFreeKernel(epidemic, states,
                                    np.bincount(states, minlength=3))
        with pytest.raises(InvalidParameterError):
            kernel.pair_count_matrix()

    def test_auto_chunk_bounds(self):
        assert auto_chunk(2) == 1024
        assert auto_chunk(10_000) == 8192
        assert auto_chunk(10 ** 9) == 32768


class TestCountProxyPath:
    def test_proxy_and_birthday_conserve_population(self, epidemic):
        counts = np.array([400, 500, 100])
        for vectorized in (True, False, None):
            backend = CountBackend(epidemic, counts, seed=4,
                                   vectorized=vectorized)
            result = backend.run(25_000)
            assert result.counts.sum() == 1000
            assert (result.counts >= 0).all()

    def test_proxy_forced_needs_supported_model(self):
        imitation = matrix_game_model(np.array([[0.0, 2.0], [1.0, 0.0]]),
                                      "imitation")
        with pytest.raises(InvalidParameterError):
            CountBackend(imitation, np.array([5, 5]), seed=0,
                         vectorized=True)
        # slots_per_step == 4 falls back to the birthday path silently.
        backend = CountBackend(imitation, np.array([5, 5]), seed=0)
        assert backend._kernel is None
        assert backend.run(500).counts.sum() == 10

    def test_proxy_observations_and_stop(self, epidemic):
        counts = np.array([999, 0, 1])
        backend = CountBackend(epidemic, counts, seed=8)
        assert backend._kernel is not None
        result = backend.run(500_000, stop_when=lambda c: c[2] == 1000,
                             observe_every=10_000, check_stop_every=100)
        assert result.converged
        assert result.steps % 100 == 0
        assert all(c.sum() == 1000 for _, c in result.observations)

    def test_pair_counts_sum_to_steps(self, epidemic):
        backend = CountBackend(epidemic, np.array([50, 30, 20]), seed=3,
                               track_pair_counts=True)
        backend.run(4321)
        assert backend.pair_counts.sum() == 4321
        birthday = CountBackend(epidemic, np.array([50, 30, 20]), seed=3,
                                track_pair_counts=True, vectorized=False)
        birthday.run(4321)
        assert birthday.pair_counts.sum() == 4321

    def test_pair_counts_rewound_on_early_stop(self, epidemic):
        # Early stop mid-batch discards the remainder; the pair counts
        # must match the executed steps exactly on both paths.
        for vectorized in (True, False):
            backend = CountBackend(epidemic, np.array([900, 0, 100]),
                                   seed=6, track_pair_counts=True,
                                   vectorized=vectorized)
            result = backend.run(200_000,
                                 stop_when=lambda c: c[2] >= 600,
                                 check_stop_every=1)
            assert result.converged
            assert backend.pair_counts.sum() == result.steps

    def test_pair_counts_require_tracking(self, epidemic):
        backend = CountBackend(epidemic, np.array([5, 4, 1]), seed=0)
        with pytest.raises(InvalidParameterError):
            backend.pair_counts


class GenericTable(TableModel):
    """A table model without tables: the agent engine's generic loop."""

    @property
    def component_tables(self):
        return None


GAME = np.array([[3.0, 0.0], [5.0, 1.0]])
TRACKED_MODELS = {
    "igt": lambda: igt_model(6),
    "noisy-igt": lambda: igt_model(6, observation_noise=0.1),
    "action": lambda: igt_action_model(GenerosityGrid(k=6, g_max=0.6),
                                       RDSetting(4.0, 1.0, 0.7, 0.5)),
    "logit": lambda: matrix_game_model(GAME, "logit", eta=0.7),
    "imitation": lambda: matrix_game_model(GAME, "imitation"),
}


class TestAgentPairCounts:
    """``AgentBackend(track_pair_counts=True)``: table models count on
    the kernel, generic models in their loop, and neither moves the
    trajectory."""

    def run_plan(self, backend):
        backend.run(3000, observe_every=700)
        backend.run(2000, stop_when=lambda counts: False,
                    check_stop_every=50)
        backend.run(4000)

    @pytest.mark.parametrize("n", [4, 300, 5000])
    @pytest.mark.parametrize("name", sorted(TRACKED_MODELS))
    def test_trajectory_unchanged(self, name, n):
        model = TRACKED_MODELS[name]()
        states = np.random.default_rng(1).integers(0, model.n_states, n)
        plain = AgentBackend(model, states, seed=4)
        tracked = AgentBackend(model, states, seed=4,
                               track_pair_counts=True)
        self.run_plan(plain)
        self.run_plan(tracked)
        np.testing.assert_array_equal(plain.states, tracked.states)
        assert (plain.scheduler.rng.bit_generator.state
                == tracked.scheduler.rng.bit_generator.state)
        assert tracked.pair_counts.sum() == tracked.steps_run == 9000

    @pytest.mark.parametrize("n", [4, 300, 5000])
    def test_kernel_counts_match_the_generic_loop(self, n):
        table = igt_model(6).table
        states = np.random.default_rng(2).integers(0, 8, n)
        kernel = AgentBackend(TableModel(table), states, seed=9,
                              track_pair_counts=True)
        loop = AgentBackend(GenericTable(table), states, seed=9,
                            track_pair_counts=True)
        self.run_plan(kernel)
        self.run_plan(loop)
        np.testing.assert_array_equal(kernel.states, loop.states)
        np.testing.assert_array_equal(kernel.pair_counts, loop.pair_counts)

    def test_refusals(self):
        states = np.zeros(10, dtype=np.int64)
        with pytest.raises(InvalidParameterError, match="were not tracked"):
            AgentBackend(igt_model(3), states).pair_counts
        with pytest.raises(InvalidParameterError, match="vectorized=False"):
            AgentBackend(igt_model(3), states, vectorized=False,
                         track_pair_counts=True)
