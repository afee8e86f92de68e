"""Unit tests for the agent and count simulation backends."""

import numpy as np
import pytest

from repro.engine import (
    AgentBackend,
    CountBackend,
    RandomScheduler,
    TableModel,
    build_engine,
    igt_model,
    make_law,
    matrix_game_model,
)
from repro.engine.count import _collision_cdf
from repro.utils import InvalidParameterError


@pytest.fixture
def epidemic():
    """One-way max-epidemic protocol on 3 states."""
    return TableModel([[(max(u, v), v) for v in range(3)] for u in range(3)])


class TestAgentBackend:
    def test_counts_track_states(self, epidemic, rng):
        states = np.array([0, 1, 2, 0, 0], dtype=np.int64)
        backend = AgentBackend(epidemic, states, seed=rng)
        backend.run(500)
        assert np.array_equal(backend.counts,
                              np.bincount(backend.states, minlength=3))
        assert backend.counts.sum() == 5

    def test_observation_cadence_includes_start(self, epidemic, rng):
        states = np.zeros(10, dtype=np.int64)
        states[0] = 2
        backend = AgentBackend(epidemic, states, seed=rng)
        result = backend.run(100, observe_every=25)
        assert [s for s, _ in result.observations] == [0, 25, 50, 75, 100]

    def test_stop_when_already_true(self, epidemic, rng):
        backend = AgentBackend(epidemic, np.zeros(6, dtype=np.int64),
                               seed=rng)
        result = backend.run(100, stop_when=lambda c: True,
                             check_stop_every=10)
        assert result.converged and result.steps == 0

    def test_stop_cadence(self, epidemic, rng):
        states = np.zeros(20, dtype=np.int64)
        states[0] = 2
        backend = AgentBackend(epidemic, states, seed=rng)
        result = backend.run(10_000, stop_when=lambda c: c[2] == 20,
                             check_stop_every=7)
        assert result.converged
        assert result.steps % 7 == 0

    def test_reproducible(self, epidemic):
        states = (np.arange(30) % 3).astype(np.int64)
        first = AgentBackend(epidemic, states, seed=11)
        second = AgentBackend(epidemic, states, seed=11)
        first.run(2000)
        second.run(2000)
        assert np.array_equal(first.states, second.states)

    def test_stop_predicate_may_read_backend_counts(self, epidemic, rng):
        # Predicates that consult backend state instead of their argument
        # must still see live counts.
        states = np.zeros(20, dtype=np.int64)
        states[0] = 2
        backend = AgentBackend(epidemic, states, seed=rng)
        result = backend.run(20_000,
                             stop_when=lambda _: backend.counts[2] == 20,
                             check_stop_every=10)
        assert result.converged

    def test_generic_path_runs_stochastic_model(self, rng):
        model = matrix_game_model(np.array([[0.0, 2.0], [1.0, 0.0]]),
                                  "logit", eta=2.0)
        backend = AgentBackend(model, (np.arange(12) % 2).astype(np.int64),
                               seed=rng)
        result = backend.run(400, observe_every=100)
        assert result.counts.sum() == 12
        assert len(result.observations) == 5

    def test_shared_scheduler_and_owned_states(self, epidemic):
        states = (np.arange(10) % 3).astype(np.int64)
        scheduler = RandomScheduler(10, seed=3)
        backend = AgentBackend(epidemic, states, scheduler=scheduler)
        backend.run(100)
        assert backend.scheduler is scheduler
        # The engine runs on a one-byte copy of its own: the caller's
        # array is never written.
        assert backend.states_live.dtype == np.uint8
        np.testing.assert_array_equal(states, np.arange(10) % 3)

    def test_validation(self, epidemic):
        with pytest.raises(InvalidParameterError):
            AgentBackend(epidemic, np.array([0]))
        with pytest.raises(InvalidParameterError):
            AgentBackend(epidemic, np.array([0, 9]))
        with pytest.raises(InvalidParameterError):
            AgentBackend(epidemic, np.zeros((2, 2), dtype=np.int64))
        with pytest.raises(InvalidParameterError):
            AgentBackend(epidemic, np.zeros(4, dtype=np.int64),
                         scheduler=RandomScheduler(7, seed=0))


class TestCountBackend:
    def test_population_conserved_through_collisions(self, epidemic, rng):
        # n = 6 forces a collision every couple of interactions.
        backend = CountBackend(epidemic, np.array([4, 1, 1]), seed=rng)
        result = backend.run(5000)
        assert result.counts.sum() == 6
        assert (result.counts >= 0).all()
        assert result.steps == 5000

    def test_absorbing_state_reached(self, epidemic, rng):
        backend = CountBackend(epidemic, np.array([19, 0, 1]), seed=rng)
        result = backend.run(20_000, stop_when=lambda c: c[2] == 20,
                             check_stop_every=50)
        assert result.converged
        assert result.counts[2] == 20

    def test_observation_cadence(self, epidemic, rng):
        backend = CountBackend(epidemic, np.array([50, 0, 10]), seed=rng)
        result = backend.run(1000, observe_every=250)
        assert [s for s, _ in result.observations] == [0, 250, 500, 750, 1000]
        assert all(c.sum() == 60 for _, c in result.observations)

    def test_reproducible(self, epidemic):
        start = np.array([100, 20, 5])
        first = CountBackend(epidemic, start, seed=21).run(3000)
        second = CountBackend(epidemic, start, seed=21).run(3000)
        assert np.array_equal(first.counts, second.counts)

    def test_four_slot_model_small_population(self, rng):
        # Imitation reads four agents per interaction; tiny n exercises
        # the exclusion-aware collision resolution constantly.
        model = matrix_game_model(np.array([[0.0, 2.0], [1.0, 0.0]]),
                                  "imitation")
        backend = CountBackend(model, np.array([3, 2]), seed=rng)
        result = backend.run(4000)
        assert result.counts.sum() == 5
        assert (result.counts >= 0).all()

    def test_igt_counts_only_move_gtft(self, rng):
        model = igt_model(4)
        start = np.array([10, 0, 0, 0, 6, 4])  # 10 GTFT, 6 AC, 4 AD
        backend = CountBackend(model, start, seed=rng)
        result = backend.run(8000)
        assert result.counts[4] == 6 and result.counts[5] == 4
        assert result.counts[:4].sum() == 10

    def test_igt_agent_states_only_move_gtft(self, rng):
        # The per-agent counterpart: AC (state k) and AD (state k+1)
        # agents are inert under the k-IGT table on the agent engine too
        # (guards table bugs the masked IGTSimulation.indices can't see).
        k = 4
        states = np.array([0] * 10 + [k] * 6 + [k + 1] * 4, dtype=np.int64)
        backend = AgentBackend(igt_model(k), states, seed=rng)
        backend.run(8000)
        assert (backend.states[10:16] == k).all()
        assert (backend.states[16:] == k + 1).all()
        assert (backend.states[:10] < k).all()

    def test_states_not_tracked(self, epidemic, rng):
        backend = CountBackend(epidemic, np.array([5, 5, 5]), seed=rng)
        backend.run(10)
        assert backend.states is None
        assert backend.states_live is None

    def test_validation(self, epidemic):
        with pytest.raises(InvalidParameterError):
            CountBackend(epidemic, np.array([1, 2]))  # wrong length
        with pytest.raises(InvalidParameterError):
            CountBackend(epidemic, np.array([2, -1, 1]))
        with pytest.raises(InvalidParameterError):
            CountBackend(epidemic, np.array([1, 0, 0]))  # n < 2
        imitation = matrix_game_model(np.eye(2), "imitation")
        with pytest.raises(InvalidParameterError):
            CountBackend(imitation, np.array([2, 1]))  # n < 4 with 4 slots


class TestCountBackendCheckpointBatching:
    """Observation / stop cadences no longer split birthday batches; the
    interior counts they see are materialized from per-slot prefix sums."""

    def test_dense_observation_cadence_inside_batches(self, epidemic, rng):
        # observe_every=3 at n=3000 lands many checkpoints inside every
        # birthday run (expected length ~sqrt(n)/2).
        start = np.array([2800, 150, 50])
        backend = CountBackend(epidemic, start, seed=rng)
        result = backend.run(900, observe_every=3)
        assert [s for s, _ in result.observations] == list(range(0, 901, 3))
        assert all(c.sum() == 3000 for _, c in result.observations)
        # The one-way epidemic only grows state 2: interior snapshots must
        # be monotone, which a mis-ordered prefix sum would violate.
        twos = [int(c[2]) for _, c in result.observations]
        assert all(a <= b for a, b in zip(twos, twos[1:]))
        assert np.array_equal(result.observations[-1][1], result.counts)

    def test_observation_steps_continue_across_runs(self, epidemic, rng):
        backend = CountBackend(epidemic, np.array([500, 0, 10]), seed=rng)
        backend.run(130)
        result = backend.run(100, observe_every=40)
        assert [s for s, _ in result.observations] == [130, 170, 210]

    def test_early_stop_rewinds_to_check_point(self, epidemic, rng):
        # Per-interaction checks: the stop step must be exact even though
        # the batch that contains it ran further ahead.
        start = np.array([995, 0, 5])
        backend = CountBackend(epidemic, start, seed=rng)
        result = backend.run(100_000, stop_when=lambda c: c[2] >= 50,
                             check_stop_every=1)
        assert result.converged
        # Counts are rewound to the very first step where the predicate
        # held; one interaction infects at most one agent.
        assert result.counts[2] == 50
        assert result.steps == backend.steps_run
        final = backend.run(0).counts
        assert np.array_equal(final, result.counts)

    def test_stop_step_is_cadence_multiple(self, epidemic, rng):
        backend = CountBackend(epidemic, np.array([995, 0, 5]), seed=rng)
        result = backend.run(100_000, stop_when=lambda c: c[2] >= 50,
                             check_stop_every=7)
        assert result.converged
        assert result.steps % 7 == 0

    def test_observations_truncate_at_stop(self, epidemic, rng):
        backend = CountBackend(epidemic, np.array([995, 0, 5]), seed=rng)
        result = backend.run(100_000, stop_when=lambda c: c[2] >= 30,
                             observe_every=5, check_stop_every=5)
        assert result.converged
        assert [s for s, _ in result.observations] == \
            list(range(0, result.steps + 1, 5))
        assert int(result.observations[-1][1][2]) >= 30
        assert all(int(c[2]) < 30 for _, c in result.observations[:-1])

    def test_observed_run_matches_unobserved_endpoint_law(self, epidemic):
        # Same seed: observations change how the rng stream is consumed
        # only through batch sizes, never through extra draws inside a
        # batch — a run without checkpoints must be reproducible.
        start = np.array([300, 30, 10])
        plain = CountBackend(epidemic, start, seed=5).run(2000)
        observed = CountBackend(epidemic, start, seed=5).run(
            2000, observe_every=2000)
        assert np.array_equal(plain.counts, observed.counts)

    def test_four_slot_model_with_checkpoints(self, rng):
        game = np.array([[1.0, 0.2], [0.8, 0.5]])
        imitation = matrix_game_model(game, rule="imitation")
        backend = CountBackend(imitation, np.array([30, 30]), seed=rng)
        result = backend.run(500, observe_every=7, check_stop_every=3,
                             stop_when=lambda c: c[0] == 0)
        assert result.counts.sum() == 60
        for step, counts in result.observations:
            assert counts.sum() == 60


class TestCollisionCdf:
    def test_monotone_and_bounded(self):
        for n, spp in [(10, 2), (1000, 2), (16, 4), (100_000, 2)]:
            cdf = _collision_cdf(n, spp)
            assert cdf[0] == 0.0
            assert (np.diff(cdf) >= 0).all()
            assert cdf[-1] <= 1.0

    def test_pairwise_first_step_never_collides(self):
        # With two agents per interaction, a collision needs a previous
        # interaction: cdf[1] must be exactly 0.
        assert _collision_cdf(50, 2)[1] == 0.0

    def test_four_slot_first_step_can_collide(self):
        # The two observed agents may hit the pair already in step 0.
        assert _collision_cdf(50, 4)[1] > 0.0

    def test_tiny_population_forces_collision(self):
        cdf = _collision_cdf(2, 2)
        assert cdf[-1] == pytest.approx(1.0)

    def test_cache_returns_same_object(self):
        assert _collision_cdf(123, 2) is _collision_cdf(123, 2)


class TestCountEngineFromFactory:
    def test_epidemic_spreads(self, rng):
        both_take_max = TableModel([[(max(u, v), max(u, v)) for v in range(2)]
                                    for u in range(2)])
        engine = build_engine(both_take_max, make_law(1000, seed=rng),
                              "count", counts=np.array([999, 1]))
        result = engine.run(200_000, stop_when=lambda c: c[1] == 1000,
                            check_stop_every=1000)
        assert result.converged
        assert result.counts[1] == 1000

    def test_count_engine_from_states_is_their_histogram(self, epidemic):
        """Handed per-agent states, the count engine starts from their
        histogram and draws the same trajectory as from the counts."""
        states = np.repeat(np.arange(3), [600, 300, 100])
        from_states = build_engine(epidemic, make_law(1000, seed=5),
                                   "count", states=states)
        from_counts = build_engine(epidemic, make_law(1000, seed=5),
                                   "count", counts=np.array([600, 300, 100]))
        assert np.array_equal(from_states.counts, [600, 300, 100])
        left = from_states.run(5000, observe_every=1000)
        right = from_counts.run(5000, observe_every=1000)
        assert np.array_equal(left.counts, right.counts)
        for (s1, c1), (s2, c2) in zip(left.observations, right.observations):
            assert s1 == s2 and np.array_equal(c1, c2)
