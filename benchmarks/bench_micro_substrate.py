"""Micro-benchmarks of the substrate primitives.

Classic repeated-timing benchmarks of the hot paths a user's own
experiments will lean on: the Ehrenfest state sampler, the agent-level
IGT engine run, the exact stationary solver, payoff-table construction,
and the repeated-game Monte Carlo engine.  Run by path, since pytest's
default discovery skips ``bench_*.py``::

    python -m pytest benchmarks/bench_micro_substrate.py --benchmark-disable -q
"""

import numpy as np
from bench_workloads import (
    EPIDEMIC,
    GRID,
    epidemic_states,
    igt_counts,
    igt_states,
)

from repro.core.equilibrium import RDSetting, payoff_table
from repro.core.general_games import hawk_dove_game
from repro.core.igt import GenerosityGrid
from repro.core.population_igt import IGTSimulation, PopulationShares
from repro.engine import (
    AgentBackend,
    CountBackend,
    igt_model,
    matrix_game_model,
)
from repro.games.donation import DonationGame
from repro.games.repeated import RepeatedGameEngine
from repro.games.strategies import generous_tit_for_tat
from repro.markov.ehrenfest import EhrenfestProcess

SHARES = PopulationShares(alpha=0.3, beta=0.2, gamma=0.5)
SETTING = RDSetting(b=4.0, c=1.0, delta=0.7, s1=0.5)


def test_ehrenfest_vectorized_state_sampler(benchmark):
    process = EhrenfestProcess(k=4, a=0.4, b=0.1, m=300)
    start = (300, 0, 0, 0)

    def run():
        return process.sample_state_at(start, 50_000, seed=2, size=8)

    samples = benchmark(run)
    assert samples.shape == (8, 4)


def test_igt_agent_simulation_100k_steps(benchmark):
    def run():
        sim = IGTSimulation(n=1000, shares=SHARES, grid=GRID, seed=3)
        sim.run(100_000)
        return sim.counts

    counts = benchmark(run)
    assert counts.sum() == 500


def test_exact_stationary_solve_k3_m12(benchmark):
    process = EhrenfestProcess(k=3, a=0.3, b=0.2, m=12)
    chain = process.exact_chain()

    def run():
        return chain.stationary_distribution(method="solve")

    pi = benchmark(run)
    assert pi.sum() == 1.0 or abs(pi.sum() - 1.0) < 1e-9


def test_payoff_table_k16(benchmark):
    grid = GenerosityGrid(k=16, g_max=0.6)

    def run():
        return payoff_table(grid, SETTING)

    table = benchmark(run)
    assert table.shape == (18, 18)


def test_repeated_game_engine_1k_games(benchmark):
    engine = RepeatedGameEngine(DonationGame(4.0, 1.0), delta=0.8)
    first = generous_tit_for_tat(0.3, 0.5)
    second = generous_tit_for_tat(0.6, 0.5)

    def run():
        return engine.play_many(first, second, 1000, seed=4)

    payoffs = benchmark(run)
    assert payoffs.shape == (1000, 2)


def test_engine_agent_backend_epidemic_n1e5(benchmark):
    """Agent engine, generic 3-state protocol, 200k interactions at n=1e5."""
    states = epidemic_states(100_000)

    def run():
        backend = AgentBackend(EPIDEMIC, states, seed=1)
        return backend.run(200_000).counts

    counts = benchmark(run)
    assert counts.sum() == 100_000


def test_engine_agent_backend_igt_n1e6(benchmark):
    """Agent engine on k-IGT, 1M interactions at n=1e6: the kernel's
    read-free peel, beside the epidemic case's peel with reads."""
    states = igt_states(1_000_000)

    def run():
        backend = AgentBackend(igt_model(GRID.k), states, seed=4)
        return backend.run(1_000_000).counts

    counts = benchmark(run)
    assert counts.sum() == 1_000_000


def test_engine_agent_backend_igt_n200_short_runs(benchmark):
    """Agent engine on k-IGT at n=200 in E6's first case (alpha 0.4,
    beta 0.2, gamma 0.4, k=3): a burn-in, then 150 runs of 100
    interactions, E6's thinned sampling.  Every agent run takes the
    kernel, here with chunks far larger than the population."""
    shares = PopulationShares(alpha=0.4, beta=0.2, gamma=0.4)
    grid = GenerosityGrid(k=3, g_max=0.5)

    def run():
        sim = IGTSimulation(n=200, shares=shares, grid=grid, seed=6,
                            backend="agent")
        sim.run(16_000)
        for _ in range(150):
            sim.run(100)
        return sim.counts

    counts = benchmark(run)
    assert counts.sum() == 80


def test_engine_agent_backend_action_n1e4(benchmark):
    """Agent engine on action-mode k-IGT, 50k interactions at n=1e4: a
    stochastic rule on the kernel's peel, each interaction applied with
    its own uniform."""

    def run():
        sim = IGTSimulation(n=10_000, shares=SHARES, grid=GRID, seed=5,
                            mode="action", setting=SETTING,
                            backend="agent")
        sim.run(50_000)
        return sim.counts

    counts = benchmark(run)
    assert counts.sum() == 5000


def test_engine_count_backend_epidemic_n1e5(benchmark):
    """Count engine, same protocol/size as the agent case above."""
    start = np.bincount(epidemic_states(100_000), minlength=3)

    def run():
        backend = CountBackend(EPIDEMIC, start, seed=1)
        return backend.run(200_000).counts

    counts = benchmark(run)
    assert counts.sum() == 100_000


def test_engine_count_backend_igt_n1e5(benchmark):
    """Count engine on the paper's k-IGT dynamics at n=1e5."""
    start = igt_counts(100_000)

    def run():
        backend = CountBackend(igt_model(GRID.k), start, seed=2)
        return backend.run(200_000).counts

    counts = benchmark(run)
    assert counts.sum() == 100_000


def test_engine_count_backend_igt_n1e3(benchmark):
    """Count engine at small n (where the agent engine is competitive)."""
    start = igt_counts(1000)

    def run():
        backend = CountBackend(igt_model(GRID.k), start, seed=3)
        return backend.run(200_000).counts

    counts = benchmark(run)
    assert counts.sum() == 1000


def test_engine_count_backend_imitation_proxy_n1e4(benchmark):
    """Count engine's uniform proxy on 4-slot imitation at n=1e4 (E16's
    population tournament size): observed agents drawn through the
    proxy's pair law, each interaction with its own uniform."""
    model = matrix_game_model(hawk_dove_game(2.0, 4.0).row_payoffs,
                              "imitation")
    start = np.array([5000, 5000])
    assert CountBackend(model, start, seed=7)._kernel is not None

    def run():
        backend = CountBackend(model, start, seed=7)
        return backend.run(200_000).counts

    counts = benchmark(run)
    assert counts.sum() == 10_000


def test_de_gap_k64(benchmark):
    from repro.core.equilibrium import de_gap, mean_stationary_mu

    grid = GenerosityGrid(k=64, g_max=0.6)
    mu = mean_stationary_mu(64, beta=0.2)

    def run():
        return de_gap(mu, grid, SETTING, SHARES)

    gap = benchmark(run)
    assert np.isfinite(gap) and gap >= 0
