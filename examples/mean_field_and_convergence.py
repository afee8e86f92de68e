"""Mean-field flow of the k-IGT dynamics against agent-level simulation.

Shows the three levels of description agreeing on one instance:

1. the *agent-level* simulation (the paper's actual protocol),
2. the *exact mean recursion* E[z_{t+1}] = (I + A/m) E[z_t] (possible
   because the count-chain rates are linear — eq. 5),
3. the *continuous mean-field flow* dx/dtau = A x with the Theorem 2.4
   weights as its fixed point.

Run with:  python examples/mean_field_and_convergence.py
"""

import numpy as np

from repro.analysis.tables import format_table
from repro.core.igt import GenerosityGrid
from repro.core.mean_field import igt_mean_field, mean_field_stationary
from repro.core.population_igt import IGTSimulation, PopulationShares
from repro.utils import spawn_generators


def main():
    shares = PopulationShares(alpha=0.3, beta=0.2, gamma=0.5)
    grid = GenerosityGrid(k=3, g_max=0.6)
    n = 120
    replicas = 60
    checkpoints = [100, 400, 1200, 4000]

    A, m = igt_mean_field(shares, grid, n, exact=True)
    m = int(m)
    step = np.eye(grid.k) + A / m
    z0 = np.array([float(m), 0.0, 0.0])

    print(f"k-IGT, n={n}, (alpha,beta,gamma)=(0.3,0.2,0.5), k=3: "
          f"m={m} GTFT agents, everyone starting at g_1 = 0")
    print()

    sums = {t: np.zeros(grid.k) for t in checkpoints}
    for child in spawn_generators(0, replicas):
        sim = IGTSimulation(n=n, shares=shares, grid=grid, seed=child,
                            initial_indices=0)
        previous = 0
        for t in checkpoints:
            sim.run(t - previous)
            sums[t] += sim.counts
            previous = t

    rows = []
    for t in checkpoints:
        mean_field = np.linalg.matrix_power(step, t) @ z0
        agent_mean = sums[t] / replicas
        rows.append([t, np.round(mean_field, 2).tolist(),
                     np.round(agent_mean, 2).tolist()])
    stationary = m * mean_field_stationary(grid.k, A[1, 0], A[0, 1])
    rows.append(["stationary", np.round(stationary, 2).tolist(),
                 "(fixed point = Theorem 2.4 weights)"])
    print(format_table(
        ["t (interactions)", "mean-field E[z_t]",
         f"agent-level mean ({replicas} replicas)"], rows,
        title="Level 1 vs level 2 vs level 3: the linear mean flow"))


if __name__ == "__main__":
    main()
