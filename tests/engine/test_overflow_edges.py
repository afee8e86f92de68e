"""Integer-overflow edges: huge populations and huge step cursors.

The crash-safety work made the interaction-count cursor a first-class,
serialized quantity, so this suite audits the arithmetic around it:

* the birthday-batching paths at ``n = 10^9`` (counts and collision
  CDFs must stay exact — ``int64`` counts, float survival products
  built from *Python-int* ``n`` so no ``int64`` cube overflows),
* step cursors far beyond ``2^31`` (all cursor arithmetic is
  Python-int: observation labels, ``steps_run`` accumulation, and the
  snapshot round-trip must preserve ``2^62``-scale values exactly),
* the snapshot codec's arbitrary-precision integer passthrough (the
  PCG64 bit-generator state already needs 128-bit ints; cursors ride
  the same rule).
"""

import numpy as np
import pytest

from repro.engine import CountBackend, WeightedCountBackend, igt_model
from repro.engine.count import (
    _MARGINALS_MAX_TOTAL,
    _collision_cdf,
    sample_without_replacement,
)
from repro.engine.snapshot import SnapshotState

HUGE_N = 10**9
HUGE_CURSOR = 2**62


def huge_counts(n_states: int = 5) -> np.ndarray:
    counts = np.zeros(n_states, dtype=np.int64)
    counts[0] = HUGE_N - 2 * (HUGE_N // 5)
    counts[1] = HUGE_N // 5
    counts[2] = HUGE_N // 5
    return counts


class TestHugePopulation:
    def test_collision_cdf_is_exact_at_1e9(self):
        cdf = _collision_cdf(HUGE_N, 2)
        assert np.all(np.isfinite(cdf))
        assert np.all(np.diff(cdf) >= 0)
        assert 0.0 <= cdf[0] and cdf[-1] <= 1.0
        # The table stays O(sqrt(n)) — memory does not scale with n.
        assert len(cdf) < 200_000

    def test_birthday_batches_conserve_1e9_agents(self):
        engine = CountBackend(igt_model(3), huge_counts(), seed=9)
        result = engine.run(50_000)
        assert result.steps == 50_000
        assert engine.steps_run == 50_000
        assert int(result.counts.sum()) == HUGE_N
        assert np.all(result.counts >= 0)

    def test_observed_run_at_1e9_labels_steps_exactly(self):
        engine = CountBackend(igt_model(3), huge_counts(), seed=9)
        result = engine.run(30_000, observe_every=10_000)
        labels = [step for step, _ in result.observations]
        assert labels == [0, 10_000, 20_000, 30_000]
        for _, counts in result.observations:
            assert int(counts.sum()) == HUGE_N

    def test_snapshot_roundtrip_at_1e9(self):
        engine = CountBackend(igt_model(3), huge_counts(), seed=9)
        engine.run(20_000)
        data = engine.snapshot().to_bytes()
        fresh = CountBackend(igt_model(3), huge_counts(), seed=1)
        fresh.restore(SnapshotState.from_bytes(data))
        twin = fresh.run(20_000)
        reference = engine.run(20_000)
        assert np.array_equal(twin.counts, reference.counts)
        assert int(twin.counts.sum()) == HUGE_N


def unique_fallback(rng, counts, n_slots):
    """The distinct-index fallback as first written, deduplicating with
    ``np.unique`` — the reference the sort-based version must equal."""
    total = int(counts.sum())
    bounds = np.cumsum(counts)
    chosen = np.empty(0, dtype=np.int64)
    need = int(n_slots)
    while need:
        draw = rng.integers(0, total, size=need, dtype=np.int64)
        chosen = np.unique(np.concatenate((chosen, draw)))
        need = int(n_slots) - chosen.size
    return np.bincount(bounds.searchsorted(chosen, side="right"),
                       minlength=len(counts))


class TestDistinctIndexFallback:
    @pytest.mark.parametrize("seed", [0, 1, 7, 2024])
    @pytest.mark.parametrize("n_slots", [1, 2, 17, 1000, 37_000])
    @pytest.mark.parametrize("total", [HUGE_N, 4 * HUGE_N])
    def test_matches_unique_formulation(self, seed, n_slots, total):
        # At 37 000 slots of 10^9 agents about half the windows hit a
        # duplicate, so the redraw loop runs too.
        counts = huge_counts()
        counts[0] += total - HUGE_N
        assert int(counts.sum()) >= _MARGINALS_MAX_TOTAL
        rng = np.random.default_rng(seed)
        reference_rng = np.random.default_rng(seed)
        for _ in range(3):  # consecutive draws share one generator
            drawn = sample_without_replacement(rng, counts, n_slots)
            expected = unique_fallback(reference_rng, counts, n_slots)
            np.testing.assert_array_equal(drawn, expected)
            assert int(drawn.sum()) == n_slots
        assert rng.bit_generator.state == reference_rng.bit_generator.state


class TestHugeCursor:
    """Cursor arithmetic must be exact far beyond 2^31 and 2^53."""

    @pytest.mark.parametrize("backend", ["count", "weighted"])
    def test_cursor_past_2_62_stays_exact(self, backend):
        if backend == "count":
            engine = CountBackend(igt_model(3), [40, 30, 30, 0, 0], seed=3)
        else:
            engine = WeightedCountBackend(
                igt_model(3),
                [[20, 15, 15, 0, 0], [20, 15, 15, 0, 0]],
                [1.0, 3.0],
                seed=3,
            )
        engine.run(64)
        captured = engine.snapshot()
        # Teleport the cursor to 2^62 + 1: every later label must be an
        # exact Python-int offset from it (a float round-trip anywhere
        # would snap these to multiples of 512).
        captured.payload["steps_run"] = HUGE_CURSOR + 1
        engine.restore(SnapshotState.from_bytes(captured.to_bytes()))
        assert engine.steps_run == HUGE_CURSOR + 1
        result = engine.run(384, observe_every=128)
        assert engine.steps_run == HUGE_CURSOR + 385
        assert result.steps == HUGE_CURSOR + 385
        labels = [step for step, _ in result.observations]
        assert labels == [
            HUGE_CURSOR + 1,
            HUGE_CURSOR + 129,
            HUGE_CURSOR + 257,
            HUGE_CURSOR + 385,
        ]

    def test_snapshot_codec_preserves_huge_ints(self):
        state = SnapshotState(
            kind="count",
            payload={"steps_run": HUGE_CURSOR + 7, "big": 2**127 + 1},
        )
        back = SnapshotState.from_bytes(state.to_bytes())
        assert back.payload["steps_run"] == HUGE_CURSOR + 7
        assert back.payload["big"] == 2**127 + 1
        assert isinstance(back.payload["big"], int)
