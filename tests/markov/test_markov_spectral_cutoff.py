"""Tests for cutoff profiling."""

import pytest

from repro.markov.cutoff import cutoff_profile
from repro.markov.ehrenfest import EhrenfestProcess, classic_two_urn_process


class TestCutoffProfile:
    def test_profile_crossings_ordered(self):
        profile = cutoff_profile(classic_two_urn_process(20))
        times = profile.crossing_times
        assert times[0.75] <= times[0.5] <= times[0.25] <= times[0.05]

    def test_mixing_time_accessor(self):
        profile = cutoff_profile(classic_two_urn_process(20))
        assert profile.mixing_time == profile.crossing_times[0.25]

    def test_window_width_nonnegative(self):
        profile = cutoff_profile(classic_two_urn_process(16))
        assert profile.window_width >= 0

    def test_normalized_mixing_time_near_half(self):
        profile = cutoff_profile(classic_two_urn_process(60))
        assert profile.normalized_mixing_time(60) == pytest.approx(0.5, abs=0.2)

    def test_relative_window_shrinks(self):
        small = cutoff_profile(classic_two_urn_process(16))
        large = cutoff_profile(classic_two_urn_process(64))
        assert (large.window_width / large.mixing_time
                < small.window_width / small.mixing_time)

    def test_works_for_k3(self):
        process = EhrenfestProcess(k=3, a=0.3, b=0.2, m=6)
        profile = cutoff_profile(process)
        assert profile.mixing_time > 0
