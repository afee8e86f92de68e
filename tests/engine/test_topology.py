"""Graph topologies: laws, degeneracies, refusals.

The graph family's counterpart of ``test_weighted_sampling.py``, pinning
the guarantees of the graph-restricted pair law:

* on the **complete graph**, :class:`~repro.engine.GraphScheduler` is
  law-identical to :class:`~repro.engine.RandomScheduler` (chi-square
  on ordered-pair frequencies at the 99.9% quantile);
* on a sparse graph the pair law is uniform over the ``2E`` directed
  edges (initiator marginal proportional to degree);
* spec strings resolve through :func:`~repro.engine.make_law`;
* degeneracies behave: ring with ``n = 2`` (a single edge) and ``n = 3``
  (the triangle ``K_3``), deterministic spec-keyed construction;
* every unsupported configuration refuses loudly: self-loops,
  disconnected graphs, irregular graphs on the count backend, and
  ``auto`` never silently routes a quenched run to the annealed chain.
"""

import numpy as np
import pytest

from repro.engine import (
    AgentBackend,
    CountBackend,
    GraphScheduler,
    InteractionGraph,
    RandomScheduler,
    TableModel,
    complete_graph,
    grid_graph,
    make_law,
    powerlaw_graph,
    resolve_topology,
    ring_graph,
    small_world_graph,
    topology_from_spec,
)
from repro.engine.dispatch import resolve_backend
from repro.utils import InvalidParameterError

#: chi-square 99.9% quantiles by degrees of freedom (no scipy at runtime).
_CHI2_999 = {3: 16.266, 7: 24.322, 9: 27.877, 11: 31.264, 19: 43.820}


def pair_chi_square(initiators, responders, law) -> float:
    """Chi-square of ordered-pair frequencies vs a pair law's support."""
    n = law.shape[0]
    observed = np.zeros((n, n))
    np.add.at(observed, (initiators, responders), 1)
    expected = law * len(initiators)
    mask = law > 0
    assert observed[~mask].sum() == 0, "draw outside the law's support"
    return float(((observed[mask] - expected[mask]) ** 2
                  / expected[mask]).sum())


def graph_pair_law(graph: InteractionGraph) -> np.ndarray:
    """P(i, j) = 1/(2E) on each directed edge of the graph."""
    law = np.zeros((graph.n, graph.n))
    law[graph.edge_u, graph.edge_v] = 1.0 / graph.edge_u.size
    return law


class TestInteractionGraph:
    def test_self_loop_refused(self):
        with pytest.raises(InvalidParameterError, match="self-loop"):
            InteractionGraph(4, [[0, 0], [0, 1], [1, 2], [2, 3]])

    def test_disconnected_refused(self):
        with pytest.raises(InvalidParameterError, match="disconnected"):
            InteractionGraph(4, [[0, 1], [2, 3]])

    def test_duplicate_and_reversed_edges_collapse(self):
        graph = InteractionGraph(3, [[0, 1], [1, 0], [0, 1], [1, 2],
                                     [2, 0]])
        assert graph.m == 3
        assert graph.edge_u.size == 6

    def test_vertex_transitive_requires_regular(self):
        with pytest.raises(InvalidParameterError, match="irregular"):
            InteractionGraph(3, [[0, 1], [1, 2]], vertex_transitive=True)

    @pytest.mark.parametrize("graph, regular", [
        (ring_graph(12, half_width=2), True),
        (grid_graph(16, rows=4), True),
        (InteractionGraph(4, [[0, 1], [0, 2], [0, 3]]), False),
    ], ids=["ring", "torus", "star"])
    def test_is_regular(self, graph, regular):
        assert graph.is_regular is regular

    def test_degree_weights_are_degrees(self):
        graph = powerlaw_graph(64)
        assert np.array_equal(graph.degree_weights(),
                              graph.degrees.astype(float))

    def test_csr_neighbors_match_edge_list(self):
        graph = small_world_graph(40, p=0.2)
        for vertex in (0, 7, 39):
            from_edges = np.sort(
                graph.edge_v[graph.edge_u == vertex])
            assert np.array_equal(np.sort(graph.neighbors(vertex)),
                                  from_edges)


class TestDegeneracies:
    def test_ring_n2_is_single_edge(self):
        graph = ring_graph(2)
        assert graph.m == 1
        sampler = GraphScheduler(graph, seed=0)
        initiators, responders = sampler.pair_block(64)
        assert np.array_equal(np.sort(np.stack([initiators, responders]),
                                      axis=0)[0], np.zeros(64))
        assert (initiators != responders).all()

    def test_ring_n3_is_triangle(self):
        graph = ring_graph(3)
        reference = complete_graph(3)
        assert np.array_equal(graph.edge_u, reference.edge_u)
        assert np.array_equal(graph.edge_v, reference.edge_v)

    def test_ring_half_width_covers_everything(self):
        # half_width >= n/2 saturates into the complete graph.
        graph = ring_graph(6, half_width=3)
        assert graph.m == complete_graph(6).m

    def test_spec_construction_is_deterministic(self):
        first = topology_from_spec("smallworld:0.3", 60)
        second = topology_from_spec("smallworld:0.3", 60)
        assert np.array_equal(first.edge_u, second.edge_u)
        assert np.array_equal(first.edge_v, second.edge_v)
        # ...and independent of the global RNG state.
        np.random.seed(1234)
        third = topology_from_spec("smallworld:0.3", 60)
        assert np.array_equal(first.edge_u, third.edge_u)

    def test_complete_spec_is_none(self):
        assert topology_from_spec("complete", 1000) is None
        assert resolve_topology(None, 1000) is None

    def test_unknown_spec_lists_spellings(self):
        with pytest.raises(InvalidParameterError, match="ring"):
            topology_from_spec("torus", 100)


class TestGraphPairLaw:
    def test_complete_graph_matches_uniform_sampler_law(self):
        """The headline degeneracy: K_n sampling is the paper's law."""
        n, draws = 4, 60_000
        sampler = GraphScheduler(complete_graph(n), seed=2024)
        initiators, responders = sampler.pair_block(draws)
        uniform_law = np.full((n, n), 1.0 / (n * (n - 1)))
        np.fill_diagonal(uniform_law, 0.0)
        statistic = pair_chi_square(initiators, responders, uniform_law)
        assert statistic < _CHI2_999[n * (n - 1) - 1], statistic

    def test_uniform_sampler_clears_same_bar(self):
        """The reference itself passes — the test has power, not bias."""
        n, draws = 4, 60_000
        sampler = RandomScheduler(n, seed=2024)
        initiators, responders = sampler.pair_block(draws)
        uniform_law = np.full((n, n), 1.0 / (n * (n - 1)))
        np.fill_diagonal(uniform_law, 0.0)
        statistic = pair_chi_square(initiators, responders, uniform_law)
        assert statistic < _CHI2_999[n * (n - 1) - 1], statistic

    def test_ring_law_uniform_over_directed_edges(self):
        graph = ring_graph(5)
        sampler = GraphScheduler(graph, seed=11)
        initiators, responders = sampler.pair_block(50_000)
        statistic = pair_chi_square(initiators, responders,
                                    graph_pair_law(graph))
        assert statistic < _CHI2_999[graph.edge_u.size - 1], statistic

    def test_irregular_initiator_marginal_proportional_to_degree(self):
        graph = InteractionGraph(4, [[0, 1], [0, 2], [0, 3], [1, 2]],
                                 name="star-plus")
        sampler = GraphScheduler(graph, seed=3)
        initiators, _ = sampler.pair_block(80_000)
        observed = np.bincount(initiators, minlength=4)
        expected = graph.degrees / graph.degrees.sum() * 80_000
        statistic = float(((observed - expected) ** 2 / expected).sum())
        assert statistic < _CHI2_999[graph.n - 1], statistic

    def test_others_block_draws_neighbors(self):
        graph = grid_graph(36)
        sampler = GraphScheduler(graph, seed=8)
        first = np.arange(36).repeat(50)
        others = sampler.others_block(first)
        assert (others != first).all()
        for vertex in range(36):
            drawn = np.unique(others[first == vertex])
            assert np.isin(drawn, graph.neighbors(vertex)).all()


class TestSharedBitstream:
    def test_single_pair_blocks_are_edges(self):
        graph = powerlaw_graph(64)
        scheduler = GraphScheduler(graph, seed=5)
        for _ in range(200):
            (i,), (j,) = scheduler.pair_block(1)
            assert j in graph.neighbors(i)


class TestCapabilityContract:
    def test_scheduler_advertises_topology_not_weights(self):
        scheduler = GraphScheduler(ring_graph(10), seed=0)
        assert scheduler.weights is None
        assert scheduler.topology is not None
        assert RandomScheduler(10, seed=0).topology is None

    def test_graph_spec_strings_build_schedulers(self):
        scheduler = make_law(36, topology="grid", seed=0)
        assert isinstance(scheduler, GraphScheduler)
        assert scheduler.topology.name.startswith("grid")

    def test_complete_spec_refused_by_graph_scheduler(self):
        # "complete" is the uniform law, never a materialized K_n; spec
        # strings go through make_law, not the GraphScheduler itself.
        assert isinstance(make_law(100, topology="complete"),
                          RandomScheduler)
        with pytest.raises(InvalidParameterError, match="make_law"):
            GraphScheduler("complete", seed=0)

    def test_count_backend_accepts_vertex_transitive(self):
        model = TableModel(np.array([[[0, 0], [0, 0]],
                                     [[1, 1], [1, 1]]]))
        scheduler = GraphScheduler(ring_graph(30), seed=3)
        backend = CountBackend(model, np.array([15, 15]),
                               scheduler=scheduler)
        backend.run(100)
        assert backend.counts.sum() == 30

    def test_count_backend_refuses_irregular(self):
        model = TableModel(np.array([[[0, 0], [0, 0]],
                                     [[1, 1], [1, 1]]]))
        scheduler = GraphScheduler(powerlaw_graph(64), seed=3)
        with pytest.raises(InvalidParameterError,
                           match="vertex-transitive"):
            CountBackend(model, np.array([32, 32]), scheduler=scheduler)

    def test_agent_backend_runs_on_graph(self):
        # One-way flip rule: only sampled initiators change state, so
        # after T steps state parity counts the initiator selections.
        table = np.zeros((2, 2, 2), dtype=np.int64)
        table[0, :, 0] = 1      # initiator flips...
        table[1, :, 0] = 0
        table[:, 0, 1] = 0      # ...responder unchanged
        table[:, 1, 1] = 1
        model = TableModel(table)
        states = np.zeros(20, dtype=np.int64)
        backend = AgentBackend(model, states,
                               scheduler=GraphScheduler(ring_graph(20),
                                                        seed=1))
        backend.run(500)
        assert backend.counts.sum() == 20

    def test_auto_dispatch_forces_agent_under_topology(self):
        assert resolve_backend("auto", n=10_000_000,
                               graph_restricted=True) == "agent"
        assert resolve_backend("auto", n=10_000_000,
                               graph_restricted=False) == "count"
