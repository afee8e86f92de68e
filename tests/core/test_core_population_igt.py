"""Tests for the agent-level IGT simulation."""

import itertools
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.analysis.stats import chi_square_goodness_of_fit
from repro.core import population_igt
from repro.core.equilibrium import RDSetting
from repro.core.general_games import PopulationGameSimulation, hawk_dove_game
from repro.core.igt import GenerosityGrid
from repro.core.population_igt import IGTSimulation, PopulationShares
from repro.utils import InvalidParameterError


@pytest.fixture
def shares():
    return PopulationShares(alpha=0.3, beta=0.2, gamma=0.5)


@pytest.fixture
def grid():
    return GenerosityGrid(k=3, g_max=0.6)


class TestPopulationShares:
    def test_valid(self, shares):
        assert shares.lam == pytest.approx(4.0)

    def test_rejects_bad_sum(self):
        with pytest.raises(InvalidParameterError):
            PopulationShares(alpha=0.5, beta=0.5, gamma=0.5)

    def test_rejects_zero_gamma(self):
        with pytest.raises(InvalidParameterError):
            PopulationShares(alpha=0.5, beta=0.5, gamma=0.0)

    def test_lambda_infinite_at_beta_zero(self):
        shares = PopulationShares(alpha=0.5, beta=0.0, gamma=0.5)
        assert shares.lam == float("inf")

    def test_agent_counts_sum(self, shares):
        n_ac, n_ad, n_gtft = shares.agent_counts(100)
        assert n_ac + n_ad + n_gtft == 100
        assert (n_ac, n_ad, n_gtft) == (30, 20, 50)

    def test_agent_counts_need_gtft(self):
        shares = PopulationShares(alpha=0.99, beta=0.0, gamma=0.01)
        with pytest.raises(InvalidParameterError):
            shares.agent_counts(10)


class TestConstruction:
    def test_type_layout(self, shares, grid):
        sim = IGTSimulation(n=100, shares=shares, grid=grid, seed=0)
        assert list(sim.counts_live[grid.k:]) == [30, 20]
        assert sim.n_gtft == 50 == sim.counts.sum()
        # Agents are laid out [AC block, AD block, GTFT block].
        names = [sim.strategy_of(agent).name for agent in (0, 29, 30, 49)]
        assert names == ["AC", "AC", "AD", "AD"]
        assert sim.strategy_of(50).name.startswith("GTFT")

    def test_counts_match_indices(self, shares, grid):
        sim = IGTSimulation(n=100, shares=shares, grid=grid, seed=0)
        assert sim.counts.sum() == sim.n_gtft
        assert np.array_equal(
            sim.counts, np.bincount(sim.gtft_indices(), minlength=3))

    def test_uniform_initialization_spreads(self, shares, grid):
        sim = IGTSimulation(n=4000, shares=shares, grid=grid, seed=1)
        fractions = sim.counts / sim.n_gtft
        assert np.allclose(fractions, 1 / 3, atol=0.06)

    def test_scalar_initialization(self, shares, grid):
        sim = IGTSimulation(n=100, shares=shares, grid=grid, seed=0,
                            initial_indices=2)
        assert sim.counts[2] == sim.n_gtft

    def test_explicit_initialization(self, shares, grid):
        explicit = np.zeros(50, dtype=np.int64)
        explicit[:10] = 1
        sim = IGTSimulation(n=100, shares=shares, grid=grid, seed=0,
                            initial_indices=explicit)
        assert sim.counts[1] == 10

    def test_explicit_wrong_length_raises(self, shares, grid):
        with pytest.raises(InvalidParameterError):
            IGTSimulation(n=100, shares=shares, grid=grid, seed=0,
                          initial_indices=np.zeros(7, dtype=np.int64))

    def test_bad_scalar_raises(self, shares, grid):
        with pytest.raises(InvalidParameterError):
            IGTSimulation(n=100, shares=shares, grid=grid, seed=0,
                          initial_indices=5)

    def test_bad_mode_raises(self, shares, grid):
        with pytest.raises(InvalidParameterError):
            IGTSimulation(n=100, shares=shares, grid=grid, seed=0,
                          mode="telepathic")

    def test_action_mode_requires_setting(self, shares, grid):
        with pytest.raises(InvalidParameterError):
            IGTSimulation(n=100, shares=shares, grid=grid, seed=0,
                          mode="action")


#: Builds a count-backend facade at n = 10^8 and prints its VmHWM in kB.
COUNT_FACADE_PROBE = """
from repro.core.igt import GenerosityGrid
from repro.core.population_igt import IGTSimulation, PopulationShares

IGTSimulation(n=10**8, shares=PopulationShares(alpha=0.3, beta=0.2, gamma=0.5),
              grid=GenerosityGrid(k=6, g_max=0.6), seed=0, backend="count")
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status
               if line.startswith("VmHWM:")))
"""


def multinomial_law(draws: int, cells: int) -> dict:
    """Exact law of ``bincount`` of ``draws`` iid uniform indices in
    ``range(cells)``: every composition with its multinomial probability."""
    law = {}
    for composition in itertools.product(range(draws + 1), repeat=cells):
        if sum(composition) == draws:
            ways = math.factorial(draws)
            for part in composition:
                ways //= math.factorial(part)
            law[composition] = ways / cells ** draws
    return law


def start_law_p_value(starts, law: dict) -> float:
    """Chi-square p-value of observed start count vectors against ``law``."""
    keys = sorted(law)
    observed = Counter(tuple(int(c) for c in start) for start in starts)
    assert set(observed) <= set(keys), "a start outside the law's support"
    _, p_value = chi_square_goodness_of_fit(
        [observed[key] for key in keys], [law[key] for key in keys])
    return p_value


class TestCountStartLaw:
    """The uniform and vertex-transitive count paths draw their start as
    one multinomial over the states, O(k) at any ``n``; its law must be
    that of the per-agent paths' histogram of uniform draws."""

    @pytest.mark.parametrize("topology", [None, "ring"])
    def test_igt_start_matches_bincount_of_uniforms(self, grid, topology):
        shares = PopulationShares(alpha=0.25, beta=0.25, gamma=0.5)
        starts = [IGTSimulation(n=12, shares=shares, grid=grid, seed=seed,
                                backend="count", topology=topology).counts
                  for seed in range(2000)]
        assert start_law_p_value(starts, multinomial_law(6, grid.k)) > 1e-3

    @pytest.mark.parametrize("topology", [None, "ring"])
    def test_game_start_matches_bincount_of_uniforms(self, topology):
        starts = [PopulationGameSimulation(
            hawk_dove_game(2.0, 4.0), 10, rule="best_response", seed=seed,
            backend="count", topology=topology).counts
            for seed in range(2000)]
        assert start_law_p_value(starts, multinomial_law(10, 2)) > 1e-3


class TestChunkedUniformStarts:
    """Per-agent uniform GTFT starts (agent and weighted paths) are drawn
    ``_START_CHUNK`` at a time; the chunks must reproduce one draw of all
    ``n_gtft`` indices exactly."""

    @pytest.mark.parametrize("backend, weights", [
        ("agent", None), ("count", "powerlaw")])
    @pytest.mark.parametrize("chunk", [1, 997, 4096])
    def test_chunks_equal_one_draw(self, monkeypatch, shares, backend,
                                   weights, chunk):
        grid = GenerosityGrid(k=5, g_max=0.6)
        reference_rng = np.random.default_rng(11)
        reference = reference_rng.integers(0, grid.k, size=3000)
        whole = IGTSimulation(n=6000, shares=shares, grid=grid, seed=11,
                              backend=backend, weights=weights)
        monkeypatch.setattr(population_igt, "_START_CHUNK", chunk)
        chunked = IGTSimulation(n=6000, shares=shares, grid=grid, seed=11,
                                backend=backend, weights=weights)
        assert chunked.n_gtft == reference.size
        for sim in (whole, chunked):
            assert np.array_equal(sim.counts,
                                  np.bincount(reference, minlength=grid.k))
            assert (sim._rng.bit_generator.state
                    == reference_rng.bit_generator.state)
            if backend == "agent":
                assert np.array_equal(sim.gtft_indices(), reference)
        # The weighted count engine keeps the per-agent starts in its
        # (class x state) counts: equal trajectories confirm them.
        whole.run(5000)
        chunked.run(5000)
        assert np.array_equal(whole.counts, chunked.counts)

    @pytest.mark.skipif(not Path("/proc/self/status").exists(),
                        reason="VmHWM is read from /proc/self/status")
    def test_count_backend_setup_is_not_o_n(self, tmp_path):
        """n = 10^8 once needed ~480 MB for its start draws alone."""
        result = subprocess.run(
            [sys.executable, "-c", COUNT_FACADE_PROBE],
            env=dict(os.environ, PYTHONPATH=str(
                Path(repro.__file__).resolve().parents[1])),
            cwd=tmp_path, capture_output=True, text=True, timeout=120,
            check=True)
        assert int(result.stdout.split()[-1]) < 200 * 1024


class TestDynamics:
    def test_gtft_count_invariant(self, shares, grid):
        sim = IGTSimulation(n=100, shares=shares, grid=grid, seed=0)
        sim.run(5000)
        assert sim.counts.sum() == sim.n_gtft
        assert list(sim.counts_live[grid.k:]) == [sim.n_ac, sim.n_ad]

    def test_fixed_types_never_change(self, shares, grid):
        sim = IGTSimulation(n=100, shares=shares, grid=grid, seed=0)

        def fixed_names():
            return [sim.strategy_of(agent).name
                    for agent in range(sim.n_ac + sim.n_ad)]

        before = fixed_names()
        sim.run(5000)
        assert fixed_names() == before

    def test_only_gtft_indices_move(self, shares, grid):
        sim = IGTSimulation(n=100, shares=shares, grid=grid, seed=0)
        non_gtft = np.arange(sim.n) < sim.n_ac + sim.n_ad
        before = sim.indices[non_gtft].copy()
        sim.run(2000)
        assert np.array_equal(before, sim.indices[non_gtft])

    def test_reproducible(self, shares, grid):
        sim1 = IGTSimulation(n=100, shares=shares, grid=grid, seed=77)
        sim1.run(3000)
        sim2 = IGTSimulation(n=100, shares=shares, grid=grid, seed=77)
        sim2.run(3000)
        assert np.array_equal(sim1.counts, sim2.counts)

    @pytest.mark.parametrize("backend", ["agent", "count"])
    def test_run_until_stops_on_cadence(self, shares, grid, backend):
        sim = IGTSimulation(n=100, shares=shares, grid=grid, seed=3,
                            initial_indices=0, backend=backend)
        target = sim.n_gtft  # total index mass reachable from the corner
        converged = sim.run_until(
            200_000, lambda z: int(np.arange(grid.k) @ z) >= target,
            check_stop_every=50)
        assert converged
        assert sim.steps_run % 50 == 0
        assert int(np.arange(grid.k) @ sim.counts) >= target

    @pytest.mark.parametrize("backend", ["agent", "count"])
    def test_run_until_budget_exhausted(self, shares, grid, backend):
        sim = IGTSimulation(n=100, shares=shares, grid=grid, seed=3,
                            backend=backend)
        converged = sim.run_until(300, lambda z: False, check_stop_every=10)
        assert not converged
        assert sim.steps_run == 300

    def test_run_until_action_mode(self, shares, grid, small_setting):
        sim = IGTSimulation(n=30, shares=shares, grid=grid, seed=5,
                            mode="action", setting=small_setting,
                            initial_indices=0)
        converged = sim.run_until(400, lambda z: z[0] < sim.n_gtft,
                                  check_stop_every=10)
        assert converged
        assert sim.steps_run > 0 and sim.steps_run % 10 == 0
        assert sim.counts[0] < sim.n_gtft

    def test_trajectory_recording(self, shares, grid):
        sim = IGTSimulation(n=100, shares=shares, grid=grid, seed=0)
        trajectory = sim.run(1000, observe_every=100)
        assert trajectory.shape == (11, 3)
        assert (trajectory.sum(axis=1) == sim.n_gtft).all()

    def test_empirical_mu_sums_to_one(self, shares, grid):
        sim = IGTSimulation(n=100, shares=shares, grid=grid, seed=0)
        sim.run(500)
        assert sim.empirical_mu().sum() == pytest.approx(1.0)

    def test_average_generosity_in_range(self, shares, grid):
        sim = IGTSimulation(n=100, shares=shares, grid=grid, seed=0)
        sim.run(500)
        assert 0.0 <= sim.average_generosity() <= grid.g_max

    def test_all_ad_contact_drives_generosity_down(self, grid):
        """With overwhelmingly many AD partners, generosity collapses."""
        shares = PopulationShares(alpha=0.0, beta=0.9, gamma=0.1)
        sim = IGTSimulation(n=200, shares=shares, grid=grid, seed=3,
                            initial_indices=2)
        sim.run(30_000)
        assert sim.average_generosity() < 0.1

    def test_no_ad_drives_generosity_to_max(self, grid):
        shares = PopulationShares(alpha=0.5, beta=0.0, gamma=0.5)
        sim = IGTSimulation(n=100, shares=shares, grid=grid, seed=3,
                            initial_indices=0)
        sim.run(20_000)
        assert sim.average_generosity() == pytest.approx(grid.g_max)


class TestStrategyObjects:
    def test_strategy_of_types(self, shares, grid, small_setting):
        sim = IGTSimulation(n=100, shares=shares, grid=grid, seed=0,
                            setting=small_setting)
        assert sim.strategy_of(0).name == "AC"
        assert sim.strategy_of(sim.n_ac).name == "AD"
        assert sim.strategy_of(sim.n_ac + sim.n_ad).name.startswith("GTFT")

    def test_gtft_strategy_uses_current_index(self, shares, grid,
                                              small_setting):
        sim = IGTSimulation(n=100, shares=shares, grid=grid, seed=0,
                            setting=small_setting, initial_indices=2)
        strategy = sim.strategy_of(sim.n_ac + sim.n_ad)
        assert strategy.coop_probs[1] == pytest.approx(grid.value(2))


class TestPayoffTracking:
    def test_requires_setting(self, shares, grid):
        with pytest.raises(InvalidParameterError):
            IGTSimulation(n=50, shares=shares, grid=grid, seed=0,
                          track_payoffs=True)

    def test_accumulates(self, shares, grid, small_setting):
        sim = IGTSimulation(n=50, shares=shares, grid=grid, seed=0,
                            setting=small_setting, track_payoffs=True)
        sim.run(2000)
        assert sim.pair_counts().sum() == 2000
        assert any(sim.mean_payoff_by_type().values())

    def test_ad_agents_earn_most_against_cooperators(self, grid,
                                                     small_setting):
        """AD free-rides: with many AC agents, AD out-earns AC on average."""
        shares = PopulationShares(alpha=0.6, beta=0.2, gamma=0.2)
        sim = IGTSimulation(n=100, shares=shares, grid=grid, seed=1,
                            setting=small_setting, track_payoffs=True)
        sim.run(20_000)
        means = sim.mean_payoff_by_type()
        assert means["AD"] > means["AC"]


class TestActionMode:
    def test_runs_and_conserves(self, shares, grid, small_setting, rng):
        sim = IGTSimulation(n=30, shares=shares, grid=grid, seed=rng,
                            mode="action", setting=small_setting)
        sim.run(500)
        assert sim.counts.sum() == sim.n_gtft

    def test_high_delta_matches_strategy_mode_direction(self, shares, grid,
                                                        rng):
        """With delta near 1, AD partners are identified reliably."""
        setting = RDSetting(b=4.0, c=1.0, delta=0.95, s1=0.5)
        sim = IGTSimulation(n=40, shares=shares, grid=grid, seed=rng,
                            mode="action", setting=setting,
                            initial_indices=1)
        sim.run(4000)
        # lambda = (1-beta)/beta = 4 > 1: generosity should drift up.
        assert sim.average_generosity() > 0.3


class TestEhrenfestEmbedding:
    def test_paper_parameters(self, shares, grid):
        sim = IGTSimulation(n=100, shares=shares, grid=grid, seed=0)
        process = sim.equivalent_ehrenfest(exact=False)
        assert process.a == pytest.approx(shares.gamma * (1 - shares.beta))
        assert process.b == pytest.approx(shares.gamma * shares.beta)
        assert process.m == sim.n_gtft

    def test_exact_parameters(self, shares, grid):
        sim = IGTSimulation(n=100, shares=shares, grid=grid, seed=0)
        process = sim.equivalent_ehrenfest(exact=True)
        assert process.lam == pytest.approx((100 - 1 - 20) / 20)

    def test_exact_lambda_approaches_paper_lambda(self, shares, grid):
        sim = IGTSimulation(n=10_000, shares=shares, grid=grid, seed=0)
        exact = sim.equivalent_ehrenfest(exact=True).lam
        assert exact == pytest.approx(shares.lam, rel=0.01)

    def test_needs_ad_agents(self, grid):
        shares = PopulationShares(alpha=0.5, beta=0.0, gamma=0.5)
        sim = IGTSimulation(n=100, shares=shares, grid=grid, seed=0)
        with pytest.raises(InvalidParameterError):
            sim.equivalent_ehrenfest(exact=True)
        with pytest.raises(InvalidParameterError):
            sim.equivalent_ehrenfest(exact=False)

    def test_strict_embedding_lower_bias(self, shares, grid):
        sim = IGTSimulation(n=100, shares=shares, grid=grid, seed=0,
                            mode="strict")
        strict_process = sim.equivalent_ehrenfest()
        assert strict_process.lam == pytest.approx((50 - 1) / 20)
        assert strict_process.lam < (100 - 1 - 20) / 20

    def test_strict_mode_rejects_standard_embedding(self, shares, grid):
        """Strict mode answers with its own rates, finite n only."""
        sim = IGTSimulation(n=100, shares=shares, grid=grid, seed=0,
                            mode="strict")
        standard = IGTSimulation(n=100, shares=shares, grid=grid, seed=0)
        strict_process = sim.equivalent_ehrenfest()
        exact = standard.equivalent_ehrenfest()
        assert strict_process.b == exact.b
        assert strict_process.a < exact.a
        with pytest.raises(InvalidParameterError, match="finite-n"):
            sim.equivalent_ehrenfest(exact=False)

    def test_action_mode_has_no_embedding(self, shares, grid):
        """The action rule's decrement probability depends on both
        players' strategies, so no single Ehrenfest process describes
        its counts; strategy mode's is not returned in its place."""
        setting = RDSetting(b=4.0, c=1.0, delta=0.5, s1=0.5)
        sim = IGTSimulation(n=60, shares=shares, grid=grid, seed=0,
                            mode="action", setting=setting)
        with pytest.raises(InvalidParameterError, match="mode='action'"):
            sim.equivalent_ehrenfest()
