"""Count-level ``mode="action"`` and payoff accounting vs the agent backend.

Both backends apply the exact classification law and contract
per-type-pair interaction counts against the exact expected-payoff
table, one on per-agent states and one on the count chain.  Their
*means* must coincide — that is the guarantee that lets payoff
experiments run count-level.
"""

import numpy as np
import pytest

from repro.core.population_igt import IGTSimulation
from repro.utils import InvalidParameterError


@pytest.fixture
def sims(small_setting, small_shares, small_grid):
    def build(backend, mode, seed, track=True, n=240):
        return IGTSimulation(n=n, shares=small_shares, grid=small_grid,
                             seed=seed, mode=mode, setting=small_setting,
                             track_payoffs=track, backend=backend)
    return build


class TestActionModeCountLevel:
    def test_generosity_agrees_with_agent_play(self, sims):
        steps = 40_000
        agent_values = []
        count_values = []
        for seed in range(4):
            agent = sims("agent", "action", seed, track=False)
            agent.run(steps)
            agent_values.append(agent.average_generosity())
            count = sims("count", "action", 100 + seed, track=False)
            count.run(steps)
            count_values.append(count.average_generosity())
        assert abs(np.mean(agent_values)
                   - np.mean(count_values)) < 0.035

    def test_payoff_means_agree(self, sims):
        steps = 50_000
        agent = sims("agent", "action", 7)
        agent.run(steps)
        count = sims("count", "action", 8)
        count.run(steps)
        agent_means = agent.mean_payoff_by_type()
        count_means = count.mean_payoff_by_type()
        for name in ("GTFT", "AC", "AD"):
            assert agent_means[name] == pytest.approx(
                count_means[name], rel=0.06), name

    def test_pair_counts_track_interactions(self, sims):
        count = sims("count", "action", 3)
        count.run(12_345)
        assert count.pair_counts().sum() == 12_345


class TestStrategyModeCountLevel:
    def test_payoff_means_agree(self, sims):
        steps = 50_000
        agent = sims("agent", "strategy", 11)
        agent.run(steps)
        count = sims("count", "strategy", 12)
        count.run(steps)
        agent_means = agent.mean_payoff_by_type()
        count_means = count.mean_payoff_by_type()
        for name in ("GTFT", "AC", "AD"):
            assert agent_means[name] == pytest.approx(
                count_means[name], rel=0.05), name

    def test_run_until_works_with_tracking(self, sims):
        count = sims("count", "strategy", 5)
        hit = count.run_until(30_000, lambda z: z.sum() >= 0,
                              check_stop_every=500)
        assert hit  # trivially true predicate fires at the first check
        assert count.pair_counts().sum() == count.steps_run


class TestObservableGuards:
    def test_mean_payoff_needs_tracking(self, sims):
        sim = sims("count", "strategy", 1, track=False)
        with pytest.raises(InvalidParameterError):
            sim.mean_payoff_by_type()

    @pytest.mark.parametrize("backend", ["agent", "count"])
    def test_pair_counts_need_tracking(self, sims, backend):
        with pytest.raises(InvalidParameterError, match="track_payoffs"):
            sims(backend, "strategy", 1, track=False).pair_counts()

    def test_per_agent_observables_still_agent_only(self, sims):
        count = sims("count", "action", 1)
        with pytest.raises(InvalidParameterError):
            count.indices
        with pytest.raises(InvalidParameterError):
            count.strategy_of(0)

    def test_setting_still_required(self, small_shares, small_grid):
        with pytest.raises(InvalidParameterError):
            IGTSimulation(n=100, shares=small_shares, grid=small_grid,
                          seed=0, mode="action", backend="count")
