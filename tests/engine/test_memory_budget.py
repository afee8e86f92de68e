"""Memory budget of the agent engine at large ``n``.

Per-agent arrays are as narrow as the state space allows — one byte of
state and one ``int32`` peel-stamp map — and neither ``run`` nor a
snapshot makes a length-``n`` ``int64`` copy.  So an observed,
checkpointed k-IGT run at ``n = 10^6`` peaks under 10 bytes per agent
of traced allocations.  An action-mode run stays under the same budget:
its stochastic rule is not read-free, and the peel's criterion with
reads keeps its read stamps in that same map.
"""

import tracemalloc

from repro.core.equilibrium import RDSetting
from repro.core.igt import GenerosityGrid
from repro.core.population_igt import IGTSimulation, PopulationShares

N = 10**6

#: Traced bytes per agent the runs below may peak at.
BUDGET = 10


def peak_bytes_per_agent(steps: int, **options) -> float:
    """Traced peak per agent of building an agent-backend k-IGT facade
    over ``N`` agents and running it three times for ``steps``
    interactions, observed four times per run and checkpointed after
    each."""
    tracemalloc.start()
    try:
        sim = IGTSimulation(n=N, shares=PopulationShares(0.3, 0.2, 0.5),
                            grid=GenerosityGrid(k=8, g_max=0.6), seed=1,
                            backend="agent", **options)
        for _ in range(3):
            sim.run_until(steps, None, observe_every=steps // 4)
            sim.snapshot().to_bytes()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / N


def test_observed_checkpointed_agent_run_stays_in_budget():
    peak = peak_bytes_per_agent(200_000)
    assert peak < BUDGET, f"peak {peak:.1f} bytes per agent"


def test_action_mode_run_in_pair_order_stays_in_budget():
    setting = RDSetting(b=4.0, c=1.0, delta=0.9, s1=0.5)
    peak = peak_bytes_per_agent(20_000, mode="action", setting=setting)
    assert peak < BUDGET, f"peak {peak:.1f} bytes per agent"
