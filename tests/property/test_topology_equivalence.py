"""Quenched/annealed equivalences and facade guards for graph runs.

Three claims from the topology promotion are pinned here:

* **Count = agent on a vertex-transitive graph for partner-blind
  one-way rules**: when only the initiator's state changes and the
  update ignores the partner, the quenched graph process depends on the
  graph only through the initiator marginal — uniform on any regular
  graph — so the agent backend (quenched) and the count backend
  (annealed) realize the *same* count law and their final-count
  distributions must coincide.
* **The quenched per-vertex theory is exact**: on a ring, a GTFT
  agent's stationary generosity depends only on its own AD-neighbor
  fraction; the ergodic average of an agent-backend simulation must
  match the per-vertex Proposition 2.8 mean (the E6 topology variant's
  reference law, validated here at test scale).
* **Facades never mix laws silently**: ``weights=`` and ``topology=``
  are mutually exclusive, and the Ehrenfest embedding (a complete-graph
  construction) refuses to exist for a graph-restricted simulation.
"""

import numpy as np
import pytest

from repro.core.generosity import average_stationary_generosity
from repro.core.igt import GenerosityGrid
from repro.core.population_igt import IGTSimulation, PopulationShares
from repro.engine import (
    AgentBackend,
    CountBackend,
    GraphScheduler,
    TableModel,
    build_engine,
    make_law,
    ring_graph,
)
from repro.utils import InvalidParameterError


def one_way_flip_model() -> TableModel:
    """Initiator flips its bit, responder unchanged — partner-blind."""
    table = np.zeros((2, 2, 2), dtype=np.int64)
    table[0, :, 0] = 1
    table[1, :, 0] = 0
    table[:, 0, 1] = 0
    table[:, 1, 1] = 1
    return TableModel(table)


class TestCountMatchesAgentOnRegularGraph:
    def test_partner_blind_one_way_final_count_distributions(self):
        """TV distance between the backends' final-count histograms."""
        n, steps, runs = 10, 25, 2500
        model = one_way_flip_model()
        graph = ring_graph(n)
        rng = np.random.default_rng(7)
        agent_hist = np.zeros(n + 1)
        count_hist = np.zeros(n + 1)
        initial = np.zeros(n, dtype=np.int64)
        for _ in range(runs):
            agent = AgentBackend(
                model, initial.copy(),
                scheduler=GraphScheduler(graph, seed=rng))
            agent.run(steps)
            agent_hist[agent.counts[1]] += 1
            count = CountBackend(
                model, np.array([n, 0]),
                scheduler=GraphScheduler(graph, seed=rng))
            count.run(steps)
            count_hist[count.counts[1]] += 1
        tv = 0.5 * np.abs(agent_hist - count_hist).sum() / runs
        assert tv < 0.09, f"TV between backends {tv:.4f}"


class TestQuenchedTheoryExact:
    def test_ring_generosity_matches_per_vertex_theory(self):
        """Agent-backend ergodic average vs the exact quenched mean."""
        n, beta, k, g_max = 200, 0.2, 3, 0.5
        alpha = (1.0 - beta) / 2.0
        shares = PopulationShares(alpha=alpha, beta=beta,
                                  gamma=1.0 - alpha - beta)
        graph = ring_graph(n)
        # Per-vertex theory: beta_i = AD-neighbor fraction of GTFT i.
        n_ac, n_ad, _ = shares.agent_counts(n)
        values = []
        for vertex in range(n_ac + n_ad, n):
            neighbors = graph.neighbors(vertex)
            ad = int(np.count_nonzero((neighbors >= n_ac)
                                      & (neighbors < n_ac + n_ad)))
            beta_i = ad / neighbors.size
            values.append(
                g_max if beta_i == 0.0 else
                0.0 if beta_i == 1.0 else
                average_stationary_generosity(k, beta_i, g_max))
        theory = float(np.mean(values))
        sim = IGTSimulation(n=n, shares=shares,
                            grid=GenerosityGrid(k=k, g_max=g_max),
                            seed=2024, topology=graph)
        sim.run(300_000)
        samples = np.empty(60)
        for i in range(len(samples)):
            sim.run(2_000)
            samples[i] = sim.average_generosity()
        assert abs(float(samples.mean()) - theory) < 0.02
        # The quenched ring value sits strictly above the complete-graph
        # value for these shares — the gap the E6 variant measures.
        complete = average_stationary_generosity(k, beta, g_max)
        assert theory > complete + 0.02


class TestFacadeGuards:
    def test_weights_and_topology_mutually_exclusive(self):
        shares = PopulationShares(alpha=0.3, beta=0.2, gamma=0.5)
        with pytest.raises(InvalidParameterError, match="not both"):
            IGTSimulation(n=100, shares=shares,
                          grid=GenerosityGrid(k=3, g_max=0.5),
                          seed=0, weights=np.ones(100), topology="ring")

    def test_ehrenfest_embedding_refused_on_graph(self):
        shares = PopulationShares(alpha=0.3, beta=0.2, gamma=0.5)
        sim = IGTSimulation(n=100, shares=shares,
                            grid=GenerosityGrid(k=3, g_max=0.5),
                            seed=0, topology="ring")
        with pytest.raises(InvalidParameterError, match="complete-graph"):
            sim.equivalent_ehrenfest()

    def test_protocol_runs_on_topology(self):
        # One-way rumor: a susceptible initiator (0) that meets an
        # informed responder (1) becomes informed.
        rumor = TableModel([[(0, 0), (1, 1)], [(1, 0), (1, 1)]])
        states = np.zeros(60, dtype=np.int64)
        states[0] = 1
        engine = build_engine(rumor, make_law(60, topology="ring:2", seed=1),
                              "agent", states=states)
        engine.run(20_000)
        assert engine.counts[1] == 60  # the rumor spreads along the ring
