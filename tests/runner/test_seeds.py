"""Deterministic per-task seed streams."""

import numpy as np
import pytest

from repro.runner import task_seed
from repro.utils import InvalidParameterError


class TestTaskSeed:
    def test_deterministic(self):
        assert task_seed(123, 7) == task_seed(123, 7)

    def test_distinct_across_indices(self):
        seeds = [task_seed(123, index) for index in range(64)]
        assert len(set(seeds)) == 64

    def test_distinct_across_base_seeds(self):
        # Adjacent integer base seeds must not produce colliding streams.
        left = {task_seed(0, index) for index in range(32)}
        right = {task_seed(1, index) for index in range(32)}
        assert not left & right

    def test_matches_seed_sequence_spawning(self):
        # The contract: task i's seed is child i of SeedSequence(base).
        children = np.random.SeedSequence(99).spawn(5)
        expected = [int(c.generate_state(1, np.uint64)[0]) for c in children]
        assert [task_seed(99, index) for index in range(5)] == expected

    def test_plain_int(self):
        seed = task_seed(5, 0)
        assert type(seed) is int
        np.random.default_rng(seed)  # usable as a generator seed

    def test_rejects_non_integer_base(self):
        with pytest.raises(InvalidParameterError, match="integer"):
            task_seed(np.random.default_rng(0), 0)

    def test_rejects_negative_index(self):
        with pytest.raises(InvalidParameterError, match=">= 0"):
            task_seed(1, -1)
