"""Property-based tests (hypothesis) for the Markov substrate."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.markov.distributions import (
    multinomial_pmf_over_space,
    total_variation,
)
from repro.markov.ehrenfest import EhrenfestProcess
from repro.markov.random_walks import (
    expected_absorption_time,
    symmetric_interval_win_probability,
)
from repro.markov.state_space import CompositionSpace, num_compositions


def gamblers_ruin_win_probability(start: int, target: int, a: float,
                                  b: float) -> float:
    """``Pr[hit target before 0]`` from ``start`` for the walk stepping up
    w.p. ``a`` and down w.p. ``b``: the classical
    ``(1 − (b/a)^start) / (1 − (b/a)^target)``, ``start/target`` when
    ``a = b``."""
    if math.isclose(a, b):
        return start / target
    ratio = b / a
    return (1.0 - ratio**start) / (1.0 - ratio**target)


# Shared strategies --------------------------------------------------------

rates = st.tuples(
    st.floats(min_value=0.05, max_value=0.9),
    st.floats(min_value=0.05, max_value=0.9),
).filter(lambda ab: ab[0] + ab[1] <= 1.0)

small_instances = st.tuples(
    st.integers(min_value=2, max_value=4),     # k
    rates,                                     # (a, b)
    st.integers(min_value=1, max_value=6),     # m
)


class TestCompositionProperties:
    @given(m=st.integers(min_value=0, max_value=8),
           k=st.integers(min_value=1, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_enumeration_is_complete_bijection(self, m, k):
        space = CompositionSpace(m, k)
        assert len(space) == num_compositions(m, k)
        seen = set()
        for i, state in enumerate(space):
            assert sum(state) == m
            assert min(state) >= 0
            assert space.index(state) == i
            seen.add(state)
        assert len(seen) == len(space)


class TestEhrenfestProperties:
    @given(instance=small_instances)
    @settings(max_examples=25, deadline=None)
    def test_kernel_row_stochastic(self, instance):
        k, (a, b), m = instance
        process = EhrenfestProcess(k=k, a=a, b=b, m=m)
        P = process.transition_matrix(sparse=False)
        assert np.all(P >= -1e-12)
        assert np.allclose(P.sum(axis=1), 1.0)

    @given(instance=small_instances)
    @settings(max_examples=25, deadline=None)
    def test_detailed_balance_universal(self, instance):
        """Theorem 2.4's Ansatz satisfies detailed balance for ALL (k,a,b,m)."""
        k, (a, b), m = instance
        process = EhrenfestProcess(k=k, a=a, b=b, m=m)
        chain = process.exact_chain()
        pi = process.stationary_distribution()
        assert chain.satisfies_detailed_balance(pi, atol=1e-9)

    @given(instance=small_instances)
    @settings(max_examples=25, deadline=None)
    def test_multinomial_pmf_normalized(self, instance):
        k, (a, b), m = instance
        process = EhrenfestProcess(k=k, a=a, b=b, m=m)
        pi = process.stationary_distribution()
        assert pi.sum() == pytest.approx(1.0, abs=1e-9)

    @given(instance=small_instances,
           steps=st.integers(min_value=0, max_value=200),
           seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_simulation_conserves_mass(self, instance, steps, seed):
        k, (a, b), m = instance
        process = EhrenfestProcess(k=k, a=a, b=b, m=m)
        start = (m,) + (0,) * (k - 1)
        final = process.sample_state_at(start, steps, seed=seed)[0]
        assert final.sum() == m
        assert final.min() >= 0

    @given(instance=small_instances)
    @settings(max_examples=20, deadline=None)
    def test_bounds_ordered(self, instance):
        k, (a, b), m = instance
        process = EhrenfestProcess(k=k, a=a, b=b, m=m)
        assert process.mixing_time_lower_bound() \
            <= process.mixing_time_upper_bound()


class TestDistributionProperties:
    @given(k=st.integers(min_value=2, max_value=4),
           m=st.integers(min_value=1, max_value=6),
           raw=st.lists(st.floats(min_value=0.01, max_value=1.0),
                        min_size=2, max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_pmf_over_space_normalized(self, k, m, raw):
        weights = np.array(raw[:k]) if len(raw) >= k else None
        if weights is None:
            return
        weights = weights / weights.sum()
        space = CompositionSpace(m, k)
        pmf = multinomial_pmf_over_space(space, weights)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-9)
        assert (pmf >= 0).all()

    @given(raw_p=st.lists(st.floats(min_value=0.0, max_value=1.0),
                          min_size=3, max_size=3),
           raw_q=st.lists(st.floats(min_value=0.0, max_value=1.0),
                          min_size=3, max_size=3))
    @settings(max_examples=50, deadline=None)
    def test_tv_metric_axioms(self, raw_p, raw_q):
        p = np.array(raw_p)
        q = np.array(raw_q)
        if p.sum() == 0 or q.sum() == 0:
            return
        p = p / p.sum()
        q = q / q.sum()
        tv = total_variation(p, q)
        assert 0.0 <= tv <= 1.0 + 1e-12
        assert tv == pytest.approx(total_variation(q, p))
        assert total_variation(p, p) == 0.0


class TestRandomWalkProperties:
    @given(k=st.integers(min_value=1, max_value=10), ab=rates)
    @settings(max_examples=40, deadline=None)
    def test_win_probability_in_unit_interval(self, k, ab):
        a, b = ab
        p = symmetric_interval_win_probability(k, a, b)
        assert 0.0 <= p <= 1.0

    @given(k=st.integers(min_value=1, max_value=10), ab=rates)
    @settings(max_examples=40, deadline=None)
    def test_absorption_time_positive(self, k, ab):
        a, b = ab
        assert expected_absorption_time(k, a, b) > 0

    @given(k=st.integers(min_value=1, max_value=8), ab=rates)
    @settings(max_examples=30, deadline=None)
    def test_upward_bias_raises_win_probability(self, k, ab):
        a, b = ab
        p = symmetric_interval_win_probability(k, a, b)
        if a > b:
            assert p >= 0.5
        elif a < b:
            assert p <= 0.5

    @given(k=st.integers(min_value=1, max_value=10), ab=rates)
    @settings(max_examples=40, deadline=None)
    def test_win_probability_is_gamblers_ruin_from_the_middle(self, k, ab):
        """Absorption at +k from 0 on {-k..k} is gambler's ruin from k on
        {0..2k}: Proposition A.7's closed form against the textbook one."""
        a, b = ab
        assert symmetric_interval_win_probability(k, a, b) == pytest.approx(
            gamblers_ruin_win_probability(k, 2 * k, a, b), rel=1e-6)

    @given(k=st.integers(min_value=2, max_value=6), ab=rates)
    @settings(max_examples=25, deadline=None)
    def test_reflected_walk_stationary_solves_chain(self, k, ab):
        """One ball of the Ehrenfest process is the reflected walk."""
        a, b = ab
        walk = EhrenfestProcess(k=k, a=a, b=b, m=1)
        urns = [state.index(1) for state in walk.space().states]
        assert walk.exact_chain().is_stationary(
            walk.stationary_weights()[urns], atol=1e-9)
