"""Shared benchmark workload definitions.

Both the pytest-benchmark cases (``bench_micro_substrate.py``) and the
standalone throughput script (``bench_engine.py``) measure the same two
workloads; defining them once keeps the numbers comparable across the two
harnesses.  Importable from either context: pytest puts this directory
on ``sys.path`` when it imports ``bench_micro_substrate.py`` (run it by
path: ``python -m pytest benchmarks/bench_micro_substrate.py``, since the
default ``testpaths`` and ``test_*.py`` pattern skip it), and running
``python benchmarks/bench_engine.py`` makes it ``sys.path[0]``.
"""

import numpy as np

from repro.core.igt import GenerosityGrid
from repro.population.protocol import TransitionFunctionProtocol

#: The paper's headline workload: k-IGT on a k = 8 generosity grid.
GRID = GenerosityGrid(k=8, g_max=0.6)

#: Generic 3-state one-way protocol (epidemic of the maximum).
EPIDEMIC = TransitionFunctionProtocol(
    n_states=3, fn=lambda u, v: (max(u, v), v))


def igt_states(n: int) -> np.ndarray:
    """k-IGT agent states over ``{g_1..g_8, AC, AD}``.

    Half the population is GTFT at the bottom grid index, 30% AC, the
    rest AD — the same composition in every engine benchmark.
    """
    k = GRID.k
    states = np.empty(n, dtype=np.int64)
    states[:n // 2] = 0
    states[n // 2:n // 2 + (3 * n) // 10] = k
    states[n // 2 + (3 * n) // 10:] = k + 1
    return states


def igt_counts(n: int) -> np.ndarray:
    """The count-vector view of :func:`igt_states`."""
    return np.bincount(igt_states(n), minlength=GRID.k + 2)


def epidemic_states(n: int) -> np.ndarray:
    """Epidemic population: a handful of maximal-state seeds."""
    states = np.zeros(n, dtype=np.int64)
    states[:max(n // 2000, 1)] = 2
    return states
