"""E4 — Theorem 2.5: mixing-time scaling of the Ehrenfest process.

The theorem's upper bound is ``O(min{k/|a−b|, k²}·m log m)`` with a case
distinction between the bias-dominated and diffusive regimes.  Exact
``t_mix`` computations regenerate all three shapes:

* **k² branch** — weak bias (``k <= 1/|a−b|``): t_mix grows ~quadratically
  in ``k``;
* **k/|a−b| branch** — strong bias (``k > 1/|a−b|``): growth drops toward
  linear, and the strong-bias curve *crosses below* the weak-bias curve as
  ``k`` grows (the theorem's crossover);
* **m log m dependence** — for the classic two-urn case,
  ``t_mix/(m log m)`` stays near a constant as ``m`` grows;

and every measurement is sandwiched between the diameter lower bound
``km/2`` and the coupling upper bound ``2Φ·log(4m)``.

A final series leaves the exactly solvable sizes behind: the count engine
(:mod:`repro.engine`) simulates the k-IGT count chain at ``n = 2·10^5``
(``10^6`` in full mode) from the worst-case corner state and verifies that
the time to relax to (95% of) the stationary mean generosity falls inside
the theorem's ``[Ω(km), 2Φ·log(4m)]`` window — the scaling claim at the
population sizes the paper is actually about.
"""

from __future__ import annotations

import math

import numpy as np

from repro.analysis.stats import fit_power_law
from repro.core.igt import GenerosityGrid
from repro.core.population_igt import IGTSimulation, PopulationShares
from repro.engine import resolve_backend, run_resumable
from repro.experiments.base import ExperimentReport, register
from repro.markov.ehrenfest import EhrenfestProcess
from repro.markov.mixing import exact_mixing_time
from repro.params import Param, ParamSpace

PARAMS = ParamSpace(
    Param("n", "int", 200_000, minimum=100,
          help="population size of the engine-simulated relaxation series"),
    Param("eps", "float", 0.05, minimum=1e-6, maximum=0.5,
          help="relaxation tolerance: stop at (1-eps) of the stationary "
               "mean generosity"),
    Param("m", "int", 8, minimum=2, maximum=64,
          help="balls per urn in the exact k-sweep series (the exact "
               "chain enumerates all C(m+k-1, k-1) states)"),
    Param("k_max", "int", 5, minimum=3, maximum=8,
          help="largest k of the exact k-sweep (k runs 2..k_max)"),
    Param("m_urn", "int", 40, minimum=8, maximum=2000,
          help="largest m of the classic two-urn m-log-m series "
               "(runs m_urn/4, m_urn/2, m_urn)"),
    Param("topology", "str", "complete",
          help="interaction-graph spec for the simulated relaxation "
               "series: complete (the paper's scheduler), ring[:w], "
               "grid[:rows], smallworld[:p], or powerlaw[:alpha] — "
               "non-complete graphs run the quenched process on the "
               "agent backend and check the drift lower bound only"),
    profiles={"full": {"n": 1_000_000, "k_max": 6, "m": 12, "m_urn": 160},
              # The ROADMAP's population-scale point: the count engine's
              # birthday batching makes n = 10^7 practical; everything
              # else stays at the fast settings so the run is dominated
              # by the simulation, not the exact chains.
              "huge": {"n": 10_000_000}},
)


def _exact_tmix(process: EhrenfestProcess, t_max: int = 500_000) -> int:
    """Exact t_mix(1/4) from the two corner states (worst case here)."""
    space = process.space()
    chain = process.exact_chain(space)
    pi = process.stationary_distribution(space)
    low, high = space.extreme_states()
    return exact_mixing_time(chain, pi=pi, t_max=t_max,
                             from_states=[space.index(low),
                                          space.index(high)])


def _simulated_relaxation(n: int, eps: float, seed, backend: str,
                          topology: str = "complete"):
    """Corner-start relaxation of the k-IGT count chain at population scale.

    Returns ``(n, m, crossing, lower, upper, converged)``: interactions
    until the mean generosity index first reaches ``(1-eps)`` of the
    complete-graph stationary value, with the drift-based lower bound
    ``m·target/(2a)`` and the Theorem 2.5 coupling upper bound
    ``2Φ·log(4m)``.  ``backend="auto"`` resolves against the measured
    engine crossover before the simulation is built, so the reported
    engine name is always concrete.

    With a non-complete ``topology`` the run is the *quenched* graph
    process on the agent backend.  The drift lower bound still holds
    there — a GTFT agent initiates with probability at most ``m/n`` per
    interaction on any graph, and ``0.5·m·target/a = 0.5·n·target/(1−β̂)
    <= n·target`` is below the resulting ``>= n·target`` floor — but the
    theorem's coupling upper bound is a complete-graph statement, so the
    graph variant checks the lower bound and convergence-within-budget
    only (the target stays reachable: sparse regular graphs expose most
    GTFT agents to *fewer* AD neighbors, biasing their quenched
    stationary values upward; see the E6 topology variant).
    """
    shares = PopulationShares(alpha=0.3, beta=0.2, gamma=0.5)
    grid = GenerosityGrid(k=6, g_max=0.6)
    if topology != "complete":
        # Only the per-agent engine simulates the quenched graph law.
        backend = "agent"
        sim = IGTSimulation(n=n, shares=shares, grid=grid, seed=seed,
                            initial_indices=0, backend=backend,
                            topology=topology)
        # The bounds come from the complete-graph Ehrenfest embedding; a
        # count-level reference simulation provides it without paying
        # for per-agent state twice.
        process = IGTSimulation(
            n=n, shares=shares, grid=grid, seed=0, initial_indices=0,
            backend="count").equivalent_ehrenfest(exact=True)
    else:
        backend = resolve_backend(backend, n=n)
        sim = IGTSimulation(n=n, shares=shares, grid=grid, seed=seed,
                            initial_indices=0, backend=backend)
        process = sim.equivalent_ehrenfest(exact=True)
    weights = process.stationary_weights()
    target = (1.0 - eps) * float(np.arange(grid.k) @ weights)
    upper = process.mixing_time_upper_bound()
    # Per interaction the total index rises by at most one ball with
    # probability a, so reaching m*target needs >= m*target/a steps in
    # expectation; half of it is a concentration-safe check bound.
    lower = 0.5 * sim.n_gtft * target / process.a
    chunk = max(20_000, n // 8)
    index_vector = np.arange(grid.k)
    target_total = target * sim.n_gtft
    # Segmented resumable execution (repro.engine.snapshot): the engine
    # batches across the check cadence inside each segment, so the
    # relaxation still runs at full vectorized throughput, and the
    # fixed segment boundaries make a crashed run resumable from its
    # latest checkpoint byte-for-byte (the chunk of slack past the
    # bound makes a non-crossing run overshoot `upper` and fail the
    # window check, as it should).  It is the task's one resumable run,
    # so it checkpoints through the task's own channel, which is keyed
    # by every parameter that shapes it.
    converged = run_resumable(
        sim, int(upper) + chunk,
        lambda z: float(index_vector @ z) >= target_total,
        check_stop_every=chunk)
    crossing = sim.steps_run
    return n, grid.k, process, crossing, lower, upper, converged


@register("E4", "Theorem 2.5 — Ehrenfest mixing-time scaling", params=PARAMS)
def run(params=None, seed=None, backend: str = "auto") -> ExperimentReport:
    """Regenerate the mixing-time scaling series of Theorem 2.5."""
    params = PARAMS.resolve() if params is None else params
    topology_spec = params.get("topology", "complete")
    backend = resolve_backend(
        backend, n=params["n"],
        graph_restricted=topology_spec != "complete")
    rows = []
    m_k = params["m"]
    ks = list(range(2, params["k_max"] + 1))

    def k_sweep(label, a, b):
        times = []
        for k in ks:
            process = EhrenfestProcess(k=k, a=a, b=b, m=m_k)
            tmix = _exact_tmix(process)
            times.append(tmix)
            rows.append([label, k, a, b, m_k, tmix,
                         f"{process.mixing_time_lower_bound():.0f}",
                         f"{process.mixing_time_upper_bound():.0f}"])
        return times

    weak_times = k_sweep("weak bias (k^2 branch)", 0.3, 0.25)
    strong_times = k_sweep("strong bias (k/|a-b| branch)", 0.55, 0.05)
    weak_exponent, _ = fit_power_law(ks, weak_times)
    strong_exponent, _ = fit_power_law(ks, strong_times)

    # Series C: classic two-urn m log m dependence.
    ms = [params["m_urn"] // 4, params["m_urn"] // 2, params["m_urn"]]
    normalized = []
    for m in ms:
        process = EhrenfestProcess(k=2, a=0.5, b=0.5, m=m)
        tmix = _exact_tmix(process)
        normalized.append(tmix / (m * math.log(m)))
        rows.append(["classic urn (m log m)", 2, 0.5, 0.5, m, tmix,
                     f"{process.mixing_time_lower_bound():.0f}",
                     f"{process.mixing_time_upper_bound():.0f}"])

    bounds_ok = all(float(row[6]) <= row[5] <= float(row[7]) for row in rows)

    # Series D: engine-simulated relaxation at population scale.
    sim_n, sim_k, sim_process, crossing, sim_lower, sim_upper, converged = \
        _simulated_relaxation(params["n"], params["eps"], seed, backend,
                              topology=topology_spec)
    sim_m = sim_process.m
    series_label = (f"simulated k-IGT ({backend} engine)"
                    if topology_spec == "complete"
                    else f"simulated k-IGT ({backend} engine, "
                         f"{topology_spec} graph)")
    rows.append([series_label, sim_k,
                 round(sim_process.a, 4), round(sim_process.b, 4), sim_m,
                 crossing, f"{sim_lower:.0f}", f"{sim_upper:.0f}"])

    if topology_spec == "complete":
        relaxation_check = (
            f"simulated n={sim_n} relaxation inside "
            f"[drift bound, 2*Phi*log(4m)]",
            sim_lower <= crossing <= sim_upper)
    else:
        # The coupling upper bound is a complete-graph statement; the
        # quenched graph process keeps only the drift floor (plus
        # convergence within the complete-graph budget — sparse regular
        # graphs relax faster, not slower, for these shares).
        relaxation_check = (
            f"simulated n={sim_n} quenched relaxation on "
            f"'{topology_spec}' crossed within budget and after the "
            f"drift bound",
            converged and sim_lower <= crossing)

    checks = {
        "weak bias grows ~k^2 (fit exponent in [1.6, 2.5])":
            1.6 <= weak_exponent <= 2.5,
        "strong bias grows sub-quadratically (exponent in [0.8, 1.7])":
            0.8 <= strong_exponent <= 1.7,
        "strong-bias exponent below weak-bias exponent":
            strong_exponent < weak_exponent,
        "crossover: strong bias eventually faster (largest k)":
            strong_times[-1] < weak_times[-1],
        "t_mix always within [km/2, 2*Phi*log(4m)] paper bounds": bounds_ok,
        "classic urn t_mix/(m log m) stable (spread < factor 2)":
            max(normalized) / min(normalized) < 2.0,
        relaxation_check[0]: relaxation_check[1],
    }
    return ExperimentReport(
        experiment_id="E4",
        title="Theorem 2.5 — Ehrenfest mixing-time scaling",
        claim=("t_mix = O(min{k/|a-b|, k^2} m log m) and Omega(km): "
               "quadratic k-growth under weak bias, ~linear under strong "
               "bias with the curves crossing, and m log m dependence."),
        headers=["series", "k", "a", "b", "m", "exact t_mix",
                 "lower bound km/2", "upper bound 2*Phi*log(4m)"],
        rows=rows,
        checks=checks,
        notes=[f"weak-bias exponent {weak_exponent:.3f}, strong-bias "
               f"exponent {strong_exponent:.3f}",
               "exact t_mix computed from the two corner states",
               f"series D simulates the count chain at n={sim_n} "
               f"(m={sim_m} GTFT agents) on the '{backend}' engine: time "
               f"to {1.0 - params['eps']:.0%} of the stationary mean "
               "generosity from the corner start, in interactions"
               + ("" if topology_spec == "complete" else
                  f"; topology='{topology_spec}' runs the quenched graph "
                  f"process (target and bounds stay those of the "
                  f"complete-graph chain)")],
    )
