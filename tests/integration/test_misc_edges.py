"""Miscellaneous edge-path coverage across the library."""

import numpy as np
import pytest

from repro.core.igt import GenerosityGrid
from repro.core.population_igt import IGTSimulation, PopulationShares
from repro.games.expected_payoff import expected_payoff
from repro.games.strategies import tit_for_tat, win_stay_lose_shift
from repro.markov.cutoff import cutoff_profile
from repro.markov.ehrenfest import EhrenfestProcess
from repro.utils import ConvergenceError, InvalidParameterError


#: First-player rewards ``[R, S, T, P]`` over ``(CC, CD, DC, DD)`` of the
#: textbook prisoner's dilemma, which is not a donation game.
GENERAL_PD = np.array([3.0, 0.0, 5.0, 1.0])


class TestGeneralPdPayoffs:
    def test_tft_pair_in_general_pd(self):
        """The resolvent machinery works for any PD reward structure."""
        delta = 0.8
        value = expected_payoff(tit_for_tat(), tit_for_tat(), GENERAL_PD,
                                delta)
        assert value == pytest.approx(3 / 0.2)

    def test_wsls_recovers_in_general_pd(self):
        value = expected_payoff(win_stay_lose_shift(), win_stay_lose_shift(),
                                GENERAL_PD, 0.8)
        assert value == pytest.approx(3 / 0.2)


class TestCutoffEdges:
    def test_custom_thresholds(self):
        from repro.markov.ehrenfest import classic_two_urn_process

        profile = cutoff_profile(classic_two_urn_process(16),
                                 thresholds=(0.5, 0.25))
        assert set(profile.crossing_times) == {0.5, 0.25}

    def test_budget_too_small_raises(self):
        from repro.markov.ehrenfest import classic_two_urn_process

        with pytest.raises(ConvergenceError):
            cutoff_profile(classic_two_urn_process(30), t_max=3)

    def test_explicit_from_states(self):
        process = EhrenfestProcess(k=2, a=0.4, b=0.3, m=6)
        space = process.space()
        low, _ = space.extreme_states()
        profile = cutoff_profile(process, from_states=[space.index(low)])
        assert profile.mixing_time >= 0


class TestIgtModeRecording:
    def test_action_mode_records_trajectory(self, small_setting, rng):
        shares = PopulationShares(alpha=0.3, beta=0.2, gamma=0.5)
        grid = GenerosityGrid(k=3, g_max=0.5)
        sim = IGTSimulation(n=20, shares=shares, grid=grid, seed=rng,
                            mode="action", setting=small_setting)
        trajectory = sim.run(200, observe_every=50)
        assert trajectory.shape == (5, 3)
        assert (trajectory.sum(axis=1) == sim.n_gtft).all()

    def test_noise_path_records_trajectory(self, rng):
        shares = PopulationShares(alpha=0.3, beta=0.2, gamma=0.5)
        grid = GenerosityGrid(k=3, g_max=0.5)
        sim = IGTSimulation(n=30, shares=shares, grid=grid, seed=rng,
                            observation_noise=0.1)
        trajectory = sim.run(300, observe_every=100)
        assert trajectory.shape == (4, 3)

    def test_zero_steps_noop(self, rng):
        shares = PopulationShares(alpha=0.3, beta=0.2, gamma=0.5)
        grid = GenerosityGrid(k=3, g_max=0.5)
        sim = IGTSimulation(n=30, shares=shares, grid=grid, seed=rng)
        before = sim.counts
        assert sim.run(0) is None
        assert np.array_equal(before, sim.counts)

    def test_payoff_tracking_in_action_mode(self, small_setting, rng):
        """Action mode counts the games GTFT initiators play."""
        shares = PopulationShares(alpha=0.3, beta=0.2, gamma=0.5)
        grid = GenerosityGrid(k=3, g_max=0.5)
        sim = IGTSimulation(n=20, shares=shares, grid=grid, seed=rng,
                            mode="action", setting=small_setting,
                            track_payoffs=True)
        sim.run(300)
        pairs = sim.pair_counts()
        assert pairs.sum() == 300
        assert any(sim.mean_payoff_by_type().values())


class TestEhrenfestMiscellany:
    def test_repr_strings(self):
        process = EhrenfestProcess(k=3, a=0.3, b=0.2, m=5)
        assert "EhrenfestProcess" in repr(process)

    def test_sample_state_at_time_zero(self, rng):
        process = EhrenfestProcess(k=3, a=0.3, b=0.2, m=5)
        samples = process.sample_state_at((5, 0, 0), 0, seed=rng, size=3)
        assert (samples == np.array([5, 0, 0])).all()

    def test_transition_matrix_space_mismatch(self):
        from repro.markov.state_space import CompositionSpace

        process = EhrenfestProcess(k=3, a=0.3, b=0.2, m=5)
        with pytest.raises(InvalidParameterError):
            process.transition_matrix(CompositionSpace(4, 3))

    def test_stationary_sampling_shapes(self, rng):
        process = EhrenfestProcess(k=3, a=0.3, b=0.2, m=5)
        single = process.sample_stationary(seed=rng)
        batch = process.sample_stationary(seed=rng, size=7)
        assert single.shape == (3,)
        assert batch.shape == (7, 3)
        assert (batch.sum(axis=1) == 5).all()


class TestTheoryConsistency:
    def test_igt_bound_monotone_in_n(self):
        from repro.core.theory import igt_mixing_upper_bound

        shares = PopulationShares(alpha=0.3, beta=0.2, gamma=0.5)
        bounds = [igt_mixing_upper_bound(4, shares, n)
                  for n in (100, 200, 400)]
        assert bounds[0] < bounds[1] < bounds[2]

    def test_phi_continuity_at_equal_rates(self):
        """Phi is continuous as a -> b (k/|a-b| branch exceeds k^2)."""
        from repro.markov.ehrenfest import EhrenfestProcess

        near = EhrenfestProcess(4, 0.3 + 1e-12, 0.3, 10).phi()
        at = EhrenfestProcess(4, 0.3, 0.3, 10).phi()
        assert near == pytest.approx(at)

    def test_mixing_bounds_sandwich_order_all_regimes(self):
        from repro.core.theory import (
            igt_mixing_lower_bound,
            igt_mixing_upper_bound,
        )

        for beta in (0.05, 0.3, 0.5, 0.7):
            shares = PopulationShares(alpha=(1 - beta) / 2, beta=beta,
                                      gamma=(1 - beta) / 2)
            for k in (2, 6, 12):
                assert igt_mixing_lower_bound(k, shares, 500) \
                    < igt_mixing_upper_bound(k, shares, 500)
