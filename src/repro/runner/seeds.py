"""Deterministic per-task seed streams for parallel runs.

Replicates fanned out across worker processes must not share randomness,
and the seed a task receives must depend only on ``(base_seed, index)`` —
never on which worker picks the task up or how many workers exist.  Both
properties come from :class:`numpy.random.SeedSequence` spawning: child
``index`` of a sequence is defined by the pair ``(entropy, spawn_key)``,
so the stream assignment is reproducible by construction and the streams
are statistically independent (the same mechanism
:func:`repro.utils.rng.spawn_generators` uses for in-process replicas).
"""

from __future__ import annotations

import numpy as np

from repro.utils.errors import InvalidParameterError


def task_seed(base_seed: int, index: int) -> int:
    """The integer seed of task ``index`` in the stream rooted at ``base_seed``.

    Equals the first state word of ``SeedSequence(base_seed).spawn(...)``'s
    ``index``-th child, so adjacent task indices (and adjacent base seeds)
    yield non-overlapping generator streams.  The value is a plain ``int``
    so it can cross process boundaries and be embedded in cache keys.
    """
    if not isinstance(base_seed, (int, np.integer)):
        raise InvalidParameterError(
            f"base_seed must be an integer, got {type(base_seed).__name__}"
        )
    if index < 0:
        raise InvalidParameterError(f"task index must be >= 0, got {index}")
    sequence = np.random.SeedSequence(int(base_seed), spawn_key=(int(index),))
    return int(sequence.generate_state(1, np.uint64)[0])
