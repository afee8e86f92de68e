"""E15 (extension) — mean-field analysis of the k-IGT dynamics.

The count-chain transition probabilities (eq. 5) are linear in the counts,
so the *expected* trajectory follows ``E[z_{t+1}] = (I + A/m)E[z_t]``
exactly, and the continuous flow ``dx/dτ = Ax`` has the Theorem 2.4
weights as its unique fixed point.  This experiment validates all three
levels against each other: agent-level replica means vs the exact discrete
recursion vs the matrix-exponential flow, plus the fixed-point identity.
"""

from __future__ import annotations

import numpy as np

from repro.core.igt import GenerosityGrid
from repro.core.mean_field import (
    igt_mean_field,
    mean_field_stationary,
    mean_trajectory_discrete,
    mean_trajectory_ode,
)
from repro.core.population_igt import IGTSimulation, PopulationShares
from repro.experiments.base import ExperimentReport, register
from repro.markov.ehrenfest import EhrenfestProcess
from repro.params import Param, ParamSpace
from repro.utils import as_generator, spawn_generators

PARAMS = ParamSpace(
    Param("n", "int", 100, minimum=10,
          help="population size of the agent-level replicas"),
    Param("replicates", "int", 100, minimum=10,
          help="independent agent-level replicas"),
    Param("t_max", "int", 2000, minimum=100,
          help="last checkpoint in interactions "
               "(checkpoints at t_max/10, 2 t_max/5, t_max)"),
    profiles={"full": {"replicates": 400, "t_max": 6000}},
)


@register("E15", "Extension — mean-field flow of the k-IGT dynamics",
          params=PARAMS)
def run(params=None, seed=12345) -> ExperimentReport:
    """Agent-level means vs the exact linear mean-field recursion."""
    params = PARAMS.resolve() if params is None else params
    rng = as_generator(seed)
    shares = PopulationShares(alpha=0.3, beta=0.2, gamma=0.5)
    k = 3
    grid = GenerosityGrid(k=k, g_max=0.6)
    n = params["n"]
    replicas = params["replicates"]
    t_max = params["t_max"]
    checkpoints = [t_max // 10, 2 * t_max // 5, t_max]

    A, m = igt_mean_field(shares, grid, n, exact=True)
    m = int(m)
    z0 = np.array([float(m), 0.0, 0.0])
    step = np.eye(k) + A / m

    # Agent-level replica means at each checkpoint.
    sums = {t: np.zeros(k) for t in checkpoints}
    for child in spawn_generators(rng, replicas):
        sim = IGTSimulation(n=n, shares=shares, grid=grid, seed=child,
                            initial_indices=0)
        previous = 0
        for t in checkpoints:
            sim.run(t - previous)
            sums[t] += sim.counts
            previous = t

    rows = []
    worst_gap = 0.0
    tolerance = 4 * np.sqrt(m) / np.sqrt(replicas)
    ode_gap = 0.0
    for t in checkpoints:
        observed = sums[t] / replicas
        expected = np.linalg.matrix_power(step, t) @ z0
        ode = mean_trajectory_ode(k, A[1, 0], A[0, 1], z0 / m,
                                  [t / m])[-1] * m
        gap = float(np.abs(observed - expected).max())
        ode_gap = max(ode_gap, float(np.abs(expected - ode).max()))
        worst_gap = max(worst_gap, gap)
        rows.append([t, np.round(expected, 2).tolist(),
                     np.round(observed, 2).tolist(), f"{gap:.3f}",
                     f"{tolerance:.3f}"])

    # Fixed-point identity: mean-field stationary == Theorem 2.4 weights.
    a_rate, b_rate = A[1, 0], A[0, 1]
    weights = EhrenfestProcess(k, a_rate, b_rate, m).stationary_weights()
    fixed_point_gap = float(np.abs(
        mean_field_stationary(k, a_rate, b_rate) - weights).max())
    rows.append(["stationary", np.round(m * weights, 2).tolist(),
                 np.round(m * mean_field_stationary(k, a_rate, b_rate),
                          2).tolist(),
                 f"{fixed_point_gap:.2e}", "-"])

    # Mass conservation along the discrete recursion.
    trajectory = mean_trajectory_discrete(k, a_rate, b_rate, z0,
                                          steps=checkpoints[-1],
                                          observe_every=checkpoints[0])
    mass_drift = float(np.abs(trajectory.sum(axis=1) - m).max())

    checks = {
        "agent-level means track (I + A/m)^t z0 within CLT tolerance":
            worst_gap < tolerance,
        "matrix-exponential flow matches the discrete recursion (<0.5)":
            ode_gap < 0.5,
        "mean-field fixed point equals Theorem 2.4 weights (<1e-8)":
            fixed_point_gap < 1e-8,
        "mean flow conserves total mass": mass_drift < 1e-9,
    }
    return ExperimentReport(
        experiment_id="E15",
        title="Extension — mean-field flow of the k-IGT dynamics",
        claim=("Expected k-IGT counts follow the exact linear recursion "
               "E[z_{t+1}] = (I + A/m)E[z_t]; the continuous flow's fixed "
               "point is the Theorem 2.4 multinomial weight vector."),
        headers=["t (interactions)", "mean-field E[z_t]",
                 "agent-level mean", "max |gap|", "CLT tolerance"],
        rows=rows,
        checks=checks,
        notes=[f"{replicas} agent-level replicas, n={n}, exact finite-n "
               "rates; fluctuations around the mean are O(sqrt(m))"],
    )
