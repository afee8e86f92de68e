"""Tests for the (k, a, b, m)-Ehrenfest process (paper Definition 2.3)."""

import numpy as np
import pytest
from scipy import stats as scipy_stats

from repro.engine import CountBackend, MixtureTableModel
from repro.markov.chain import FiniteMarkovChain
from repro.markov.distributions import total_variation
from repro.markov.ehrenfest import EhrenfestProcess, classic_two_urn_process
from repro.utils import InvalidParameterError


def engine_model(process):
    """The process as a table model the engine runs exactly.

    One Ehrenfest step is one interaction of three initiator tables (up,
    down, stay) drawn with probabilities ``(a, b, 1 - a - b)``; the
    responder is ignored.
    """
    urns = np.arange(process.k)

    def initiator_table(moved):
        table = np.empty((process.k, process.k, 2), dtype=np.int64)
        table[:, :, 0] = moved[:, None]
        table[:, :, 1] = urns[None, :]
        return table

    return MixtureTableModel(
        [initiator_table(np.minimum(urns + 1, process.k - 1)),
         initiator_table(np.maximum(urns - 1, 0)),
         initiator_table(urns)],
        [process.a, process.b, 1.0 - process.a - process.b])


class TestConstruction:
    def test_rejects_k_one(self):
        with pytest.raises(InvalidParameterError):
            EhrenfestProcess(k=1, a=0.3, b=0.3, m=5)

    def test_rejects_zero_a(self):
        with pytest.raises(InvalidParameterError):
            EhrenfestProcess(k=3, a=0.0, b=0.3, m=5)

    def test_rejects_a_plus_b_above_one(self):
        with pytest.raises(InvalidParameterError):
            EhrenfestProcess(k=3, a=0.7, b=0.4, m=5)

    def test_lambda(self):
        assert EhrenfestProcess(k=3, a=0.4, b=0.2, m=5).lam == pytest.approx(2.0)


class TestStationaryWeights:
    def test_sum_to_one(self):
        p = EhrenfestProcess(k=5, a=0.4, b=0.1, m=3).stationary_weights()
        assert p.sum() == pytest.approx(1.0)

    def test_geometric_ratios(self):
        process = EhrenfestProcess(k=4, a=0.4, b=0.2, m=3)
        p = process.stationary_weights()
        ratios = p[1:] / p[:-1]
        assert np.allclose(ratios, process.lam)

    def test_uniform_when_a_equals_b(self):
        p = EhrenfestProcess(k=4, a=0.25, b=0.25, m=3).stationary_weights()
        assert np.allclose(p, 0.25)

    def test_large_lambda_numerically_stable(self):
        p = EhrenfestProcess(k=50, a=0.9, b=0.001, m=2).stationary_weights()
        assert np.isfinite(p).all()
        assert p.sum() == pytest.approx(1.0)

    def test_mean_counts(self):
        process = EhrenfestProcess(k=3, a=0.3, b=0.3, m=9)
        assert np.allclose(process.mean_stationary_counts(), 3.0)


class TestTransitionStructure:
    def test_transitions_move_one_ball(self):
        process = EhrenfestProcess(k=3, a=0.3, b=0.2, m=4)
        for t in process.transitions_from((2, 1, 1)):
            diff = np.array(t.target) - np.array(t.source)
            assert sorted(diff) == [-1, 0, 1]

    def test_transition_probabilities(self):
        process = EhrenfestProcess(k=2, a=0.3, b=0.2, m=4)
        moves = {t.target: t.probability
                 for t in process.transitions_from((3, 1))}
        assert moves[(2, 2)] == pytest.approx(0.3 * 3 / 4)
        assert moves[(4, 0)] == pytest.approx(0.2 * 1 / 4)

    def test_no_moves_from_empty_cells(self):
        process = EhrenfestProcess(k=3, a=0.3, b=0.2, m=2)
        targets = [t.target for t in process.transitions_from((0, 0, 2))]
        assert targets == [(0, 1, 1)]

    def test_invalid_state_raises(self):
        process = EhrenfestProcess(k=3, a=0.3, b=0.2, m=2)
        with pytest.raises(InvalidParameterError):
            list(process.transitions_from((1, 1, 1)))

    def test_matrix_rows_sum_to_one(self):
        process = EhrenfestProcess(k=3, a=0.3, b=0.2, m=5)
        P = process.transition_matrix()
        assert np.allclose(np.asarray(P.sum(axis=1)).ravel(), 1.0)

    def test_dense_matches_sparse(self):
        process = EhrenfestProcess(k=2, a=0.4, b=0.3, m=4)
        assert np.allclose(process.transition_matrix(sparse=False),
                           process.transition_matrix().toarray())

    def test_exact_chain_type(self):
        chain = EhrenfestProcess(k=2, a=0.4, b=0.3, m=3).exact_chain()
        assert isinstance(chain, FiniteMarkovChain)

    def test_n_states(self):
        assert EhrenfestProcess(k=3, a=0.3, b=0.2, m=4).n_states() == 15


class TestTheorem24:
    """Exact verification of Theorem 2.4 on small instances."""

    @pytest.mark.parametrize("k,a,b,m", [
        (2, 0.5, 0.5, 8), (2, 0.6, 0.2, 8), (3, 0.3, 0.2, 6),
        (4, 0.25, 0.25, 5), (5, 0.45, 0.05, 4),
    ])
    def test_multinomial_is_stationary(self, k, a, b, m):
        process = EhrenfestProcess(k=k, a=a, b=b, m=m)
        chain = process.exact_chain()
        pi = process.stationary_distribution()
        assert chain.is_stationary(pi, atol=1e-10)

    @pytest.mark.parametrize("k,a,b,m", [
        (2, 0.6, 0.2, 6), (3, 0.3, 0.2, 5), (4, 0.4, 0.1, 4),
    ])
    def test_detailed_balance(self, k, a, b, m):
        process = EhrenfestProcess(k=k, a=a, b=b, m=m)
        chain = process.exact_chain()
        pi = process.stationary_distribution()
        assert chain.satisfies_detailed_balance(pi, atol=1e-12)

    def test_formula_matches_linear_solve(self):
        process = EhrenfestProcess(k=3, a=0.35, b=0.15, m=7)
        chain = process.exact_chain()
        assert total_variation(process.stationary_distribution(),
                               chain.stationary_distribution()) < 1e-10

    def test_k2_reduces_to_binomial(self):
        process = EhrenfestProcess(k=2, a=0.3, b=0.6, m=10)
        space = process.space()
        pi = process.stationary_distribution(space)
        p2 = process.stationary_weights()[1]
        for i, x in enumerate(space):
            expected = scipy_stats.binom(10, p2).pmf(x[1])
            assert pi[i] == pytest.approx(expected)


class TestSimulation:
    def test_counts_conserved(self):
        process = EhrenfestProcess(k=3, a=0.3, b=0.2, m=12)
        engine = CountBackend(engine_model(process), np.array([12, 0, 0]),
                              seed=1)
        for final in (engine.run(500).counts,
                      process.sample_state_at((12, 0, 0), 500, seed=1)[0]):
            assert final.sum() == 12
            assert final.min() >= 0

    def test_zero_steps_identity(self):
        process = EhrenfestProcess(k=3, a=0.3, b=0.2, m=5)
        engine = CountBackend(engine_model(process), np.array([2, 2, 1]),
                              seed=1)
        assert tuple(engine.run(0).counts) == (2, 2, 1)
        assert tuple(process.sample_state_at((2, 2, 1), 0, seed=1)[0]) \
            == (2, 2, 1)

    def test_reproducible(self):
        process = EhrenfestProcess(k=3, a=0.3, b=0.2, m=10)
        runs = [CountBackend(engine_model(process), np.array([10, 0, 0]),
                             seed=7).run(300).counts for _ in range(2)]
        assert np.array_equal(*runs)
        draws = [process.sample_state_at((10, 0, 0), 300, seed=7, size=4)
                 for _ in range(2)]
        assert np.array_equal(*draws)

    def test_trajectory_recording(self):
        process = EhrenfestProcess(k=2, a=0.4, b=0.3, m=6)
        engine = CountBackend(engine_model(process), np.array([6, 0]),
                              seed=2)
        observations = engine.run(100, observe_every=10).observations
        assert [step for step, _ in observations] == list(range(0, 101, 10))
        traj = np.array([counts for _, counts in observations])
        assert traj.shape == (11, 2)
        assert (traj.sum(axis=1) == 6).all()
        assert tuple(traj[0]) == (6, 0)

    def test_invalid_start_raises(self):
        process = EhrenfestProcess(k=3, a=0.3, b=0.2, m=5)
        with pytest.raises(InvalidParameterError):
            process.sample_state_at((3, 3, 3), 10, seed=0)

    def test_initial_coordinates_consistent(self):
        process = EhrenfestProcess(k=3, a=0.3, b=0.2, m=6)
        coords = process.initial_coordinates((2, 1, 3))
        counts = process.counts_from_coordinates(coords, 3)
        assert tuple(counts) == (2, 1, 3)

    def test_sample_stationary_moments(self, rng):
        process = EhrenfestProcess(k=3, a=0.4, b=0.2, m=30)
        samples = process.sample_stationary(seed=rng, size=4000)
        expected = process.mean_stationary_counts()
        assert np.allclose(samples.mean(axis=0), expected, atol=0.5)

    def test_sample_state_at_matches_simulate_distribution(self, rng):
        """The vectorized sampler and the engine's sequential count chain
        agree in law."""
        process = EhrenfestProcess(k=2, a=0.4, b=0.3, m=8)
        t = 60
        n = 1500
        model = engine_model(process)
        direct = []
        for _ in range(n):
            engine = CountBackend(model, np.array([8, 0]), seed=rng)
            engine.run(t)
            direct.append(engine.counts[0])
        direct = np.array(direct)
        fast = process.sample_state_at((8, 0), t, seed=rng, size=n)[:, 0]
        hist_direct = np.bincount(direct, minlength=9) / n
        hist_fast = np.bincount(fast, minlength=9) / n
        assert total_variation(hist_direct, hist_fast) < 0.08

    def test_long_run_reaches_stationary(self, rng):
        process = EhrenfestProcess(k=3, a=0.35, b=0.15, m=20)
        t = int(2 * process.mixing_time_upper_bound())
        samples = process.sample_state_at((20, 0, 0), t, seed=rng, size=800)
        expected = process.mean_stationary_counts()
        assert np.allclose(samples.mean(axis=0), expected, atol=1.0)


class TestBounds:
    def test_phi_biased(self):
        process = EhrenfestProcess(k=4, a=0.5, b=0.1, m=10)
        assert process.phi() == pytest.approx(min(4 / 0.4, 16) * 10)

    def test_phi_unbiased(self):
        process = EhrenfestProcess(k=4, a=0.3, b=0.3, m=10)
        assert process.phi() == pytest.approx(16 * 10)

    def test_upper_bound_formula(self):
        process = EhrenfestProcess(k=3, a=0.4, b=0.2, m=8)
        expected = 2 * process.phi() * np.log(4 * 8)
        assert process.mixing_time_upper_bound() == pytest.approx(expected)

    def test_lower_bound(self):
        assert EhrenfestProcess(k=3, a=0.4, b=0.2, m=8) \
            .mixing_time_lower_bound() == 12.0

    def test_diameter(self):
        assert EhrenfestProcess(k=4, a=0.3, b=0.2, m=5).diameter() == 15

    def test_upper_exceeds_lower(self):
        for k, m in [(2, 5), (4, 10), (8, 20)]:
            process = EhrenfestProcess(k=k, a=0.4, b=0.2, m=m)
            assert process.mixing_time_upper_bound() \
                > process.mixing_time_lower_bound()


class TestClassicTwoUrn:
    def test_parameters(self):
        process = classic_two_urn_process(10)
        assert (process.k, process.a, process.b, process.m) == (2, 0.5, 0.5, 10)

    def test_stationary_is_symmetric_binomial(self):
        process = classic_two_urn_process(6)
        pi = process.stationary_distribution()
        space = process.space()
        assert pi[space.index((3, 3))] == pytest.approx(
            scipy_stats.binom(6, 0.5).pmf(3))
