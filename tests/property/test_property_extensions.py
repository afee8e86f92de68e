"""Property-based tests for the extension modules."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.mean_field import drift_generator, mean_field_stationary
from repro.games.donation import DonationGame
from repro.games.zd import max_feasible_phi, zd_strategy
from repro.markov.ehrenfest import EhrenfestProcess
from repro.utils.errors import InvalidParameterError

rates = st.tuples(
    st.floats(min_value=0.05, max_value=0.9),
    st.floats(min_value=0.05, max_value=0.9),
).filter(lambda ab: ab[0] + ab[1] <= 1.0)


class TestMeanFieldProperties:
    @given(k=st.integers(min_value=2, max_value=8), ab=rates)
    @settings(max_examples=30, deadline=None)
    def test_stationary_matches_ehrenfest_weights(self, k, ab):
        a, b = ab
        process = EhrenfestProcess(k=k, a=a, b=b, m=3)
        assert np.allclose(mean_field_stationary(k, a, b),
                           process.stationary_weights(), atol=1e-8)

    @given(k=st.integers(min_value=2, max_value=8), ab=rates)
    @settings(max_examples=30, deadline=None)
    def test_generator_conserves_mass(self, k, ab):
        a, b = ab
        A = drift_generator(k, a, b)
        assert np.allclose(A.sum(axis=0), 0.0, atol=1e-12)


class TestZdProperties:
    @given(slope=st.floats(min_value=1.0, max_value=10.0),
           fraction=st.floats(min_value=0.05, max_value=1.0))
    @settings(max_examples=30, deadline=None)
    def test_extortion_probabilities_always_valid(self, slope, fraction):
        game = DonationGame(4.0, 1.0)
        strategy = zd_strategy(game, baseline=0.0, slope=slope,
                               phi_fraction=fraction)
        assert all(0.0 <= p <= 1.0 for p in strategy.coop_probs)

    @given(baseline=st.floats(min_value=-2.0, max_value=5.0),
           slope=st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=40, deadline=None)
    @example(baseline=5e-324, slope=2.0)  # subnormal p~ entry: 1/p~ overflows
    def test_feasibility_boundary_consistent(self, baseline, slope):
        """If a positive phi exists, constructing at it yields valid
        probabilities; if not, construction raises."""
        game = DonationGame(4.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            phi_max = max_feasible_phi(game, baseline, slope)
        if phi_max > 0:
            strategy = zd_strategy(game, baseline, slope, phi_fraction=1.0)
            assert all(-1e-9 <= p <= 1 + 1e-9
                       for p in strategy.coop_probs)
        else:
            with pytest.raises(InvalidParameterError):
                zd_strategy(game, baseline, slope)
