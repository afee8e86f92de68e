"""The batched stochastic path for generic models (``vectorized=True``).

The agent backend's generic models (:class:`LogitResponseModel`,
:class:`ImitationModel`) historically ran a per-interaction Python loop;
``vectorized=True`` opts them into the conflict-resolution kernel, which
batch-draws responses per round.  The trajectory *law* must be untouched
— each interaction still receives an independent model draw and
conflicting interactions execute in sampling order — even though
generator consumption differs from the scalar loop (so bit-parity is
explicitly not claimed).  These tests pin the law equivalence, the
observed-agent handling of the 4-slot kernel, and the loud rejection of
models the kernel cannot vectorize.
"""

import numpy as np
import pytest

from repro.engine import (
    AgentBackend,
    ImitationModel,
    LogitResponseModel,
    PairMixtureTableModel,
)
from repro.utils import InvalidParameterError

PAYOFFS = np.array([[1.0, 3.0], [0.0, 2.0]])


class TestLawEquivalence:
    @pytest.mark.parametrize("model_factory", [
        lambda: LogitResponseModel(PAYOFFS, eta=1.3),
        lambda: ImitationModel(PAYOFFS),
    ], ids=["logit", "imitation"])
    def test_final_count_distribution_matches_sequential(
            self, model_factory):
        """TV distance between sequential and kernel final-count laws."""
        n, steps, runs = 12, 40, 4000
        initial = np.array([0] * 6 + [1] * 6, dtype=np.int64)
        rng = np.random.default_rng(11)
        sequential_hist = np.zeros(n + 1)
        vectorized_hist = np.zeros(n + 1)
        for _ in range(runs):
            backend = AgentBackend(model_factory(), initial.copy(),
                                   seed=rng)
            sequential_hist[backend.run(steps).counts[0]] += 1
            backend = AgentBackend(model_factory(), initial.copy(),
                                   seed=rng, vectorized=True)
            vectorized_hist[backend.run(steps).counts[0]] += 1
        tv = 0.5 * np.abs(sequential_hist - vectorized_hist).sum() / runs
        assert tv < 0.06, f"TV between paths {tv:.4f}"

    def test_imitation_round_path_matches_sequential(self):
        """Larger chunks exercise the peeled rounds (not just the scalar
        head); means of the absorbing-ish imitation dynamics agree."""
        n, steps, runs = 60, 400, 1500
        initial = (np.arange(n) % 2).astype(np.int64)
        model = ImitationModel(PAYOFFS)
        rng = np.random.default_rng(5)
        sequential_mean = 0.0
        vectorized_mean = 0.0
        for _ in range(runs):
            backend = AgentBackend(model, initial.copy(), seed=rng)
            sequential_mean += backend.run(steps).counts[1]
            backend = AgentBackend(model, initial.copy(), seed=rng,
                                   vectorized=True)
            vectorized_mean += backend.run(steps).counts[1]
        sequential_mean /= runs
        vectorized_mean /= runs
        assert abs(sequential_mean - vectorized_mean) < 1.0, \
            (sequential_mean, vectorized_mean)

    def test_population_is_conserved_and_states_consistent(self):
        model = ImitationModel(PAYOFFS)
        initial = (np.arange(500) % 2).astype(np.int64)
        backend = AgentBackend(model, initial, seed=3, vectorized=True)
        result = backend.run(20_000)
        assert result.counts.sum() == 500
        assert np.array_equal(
            np.bincount(backend.states, minlength=2), result.counts)

    def test_observations_and_stop_predicates_work(self):
        model = LogitResponseModel(PAYOFFS, eta=2.0)
        initial = np.zeros(300, dtype=np.int64)
        backend = AgentBackend(model, initial, seed=9, vectorized=True)
        result = backend.run(5000, observe_every=1000,
                             stop_when=lambda c: c[1] >= 250,
                             check_stop_every=100)
        for step, counts in result.observations:
            assert counts.sum() == 300
        if result.converged:
            assert result.counts[1] >= 250
            assert result.steps % 100 == 0


class TestRejections:
    def test_two_way_stochastic_model_rejected_loudly(self):
        # A PairMixtureTableModel whose tables move the responder is
        # stochastic and two-way: not vectorizable.
        swap = np.empty((2, 2, 2), dtype=np.int64)
        swap[:, :, 0] = np.arange(2)[None, :]
        swap[:, :, 1] = np.arange(2)[:, None]
        identity = np.empty((2, 2, 2), dtype=np.int64)
        identity[:, :, 0] = np.arange(2)[:, None]
        identity[:, :, 1] = np.arange(2)[None, :]
        model = PairMixtureTableModel(swap, identity,
                                      np.full((2, 2), 0.5))
        backend = AgentBackend(model, np.array([0, 1] * 50), seed=0,
                               vectorized=True)
        with pytest.raises(InvalidParameterError, match="one-way"):
            backend.run(100)

    def test_default_path_keeps_sequential_loop(self):
        """vectorized=None (the default) stays on the per-interaction
        loop for generic models: fixed-seed trajectories are unchanged
        from the pre-kernel behavior."""
        model = LogitResponseModel(PAYOFFS, eta=1.0)
        initial = (np.arange(40) % 2).astype(np.int64)
        one = AgentBackend(model, initial, seed=7)
        two = AgentBackend(model, initial, seed=7, vectorized=False)
        one.run(500)
        two.run(500)
        assert np.array_equal(one.states, two.states)
