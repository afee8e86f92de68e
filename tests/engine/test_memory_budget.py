"""Memory budget of the agent engine at large ``n``.

Per-agent arrays are as narrow as the state space allows — one byte of
state and two ``int32`` peel-stamp maps for k-IGT — and neither ``run``
nor a snapshot makes a length-``n`` ``int64`` copy.  So an observed,
checkpointed k-IGT run at ``n = 10^6`` peaks under 16 bytes per agent
of traced allocations.
"""

import tracemalloc

from repro.core.igt import GenerosityGrid
from repro.core.population_igt import IGTSimulation, PopulationShares

N = 10**6

#: Traced bytes per agent the run below may peak at.
BUDGET = 16


def test_observed_checkpointed_agent_run_stays_in_budget():
    tracemalloc.start()
    try:
        sim = IGTSimulation(n=N, shares=PopulationShares(0.3, 0.2, 0.5),
                            grid=GenerosityGrid(k=8, g_max=0.6), seed=1,
                            backend="agent")
        for _ in range(3):
            sim.run_until(200_000, None, observe_every=50_000)
            sim.snapshot().to_bytes()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / N < BUDGET, f"peak {peak / N:.1f} bytes per agent"
