"""Graph-restricted interaction topologies (the third scheduler family).

The paper's scheduler draws pairs uniformly from the complete graph; the
population-protocol literature (Chatzigiannakis & Spirakis, Bournez et
al.) studies the same dynamics when interactions are restricted to the
edges of an interaction graph.  This module makes that restriction a
first-class scheduler capability, following the contract PR 5
established for ``weights``:

* :class:`InteractionGraph` — a validated sparse undirected graph in CSR
  adjacency form (plus a flat directed-edge table for O(1) pair draws).
  Construction refuses self-loops, isolated vertices, and disconnected
  graphs loudly: pair sampling on a disconnected graph would silently
  freeze part of the population.
* graph builders — :func:`complete_graph`, :func:`ring_graph` (circulant
  rings), :func:`grid_graph` (2-D torus), :func:`small_world_graph`
  (Watts-Strogatz-style rewiring over an intact base ring, so
  connectivity survives), and :func:`powerlaw_graph` (a
  configuration-model-style heavy-tailed degree sequence stub-matched
  over a ring core).  The random families derive their generator from
  the spec itself, so identical specs give identical graphs under any
  simulation seed — exactly the determinism contract of
  :func:`~repro.engine.weighted.weights_from_spec`.
* :class:`GraphScheduler` — the graph-restricted pair law:
  ``pair_block`` draws uniform *directed edges* (equivalently: the
  initiator is drawn proportionally to degree and the responder
  uniformly among its neighbors), ``others_block`` draws one uniform
  neighbor per given agent.
* :func:`topology_from_spec` / :func:`resolve_topology` — the textual
  spellings (``"complete"``, ``"ring[:w]"``, ``"grid[:rows]"``,
  ``"smallworld[:p]"``, ``"powerlaw[:alpha]"``) the experiment parameter
  spaces and the CLI accept; ``"complete"`` resolves to ``None`` (the
  uniform scheduler — no O(n²) edge table is ever materialized for it).

**Capability contract.**  Every pair law exposes its graph as the
``topology`` attribute (``None`` means unrestricted; see
:mod:`repro.engine.sampling`).  The agent backend honors any topology
exactly — every pair flows through ``pair_block``, so it simulates the
*quenched* law on the concrete graph.  The count backends track
exchangeable state counts:
they accept vertex-transitive graphs (where the directed-edge law's
single-interaction marginals coincide with the uniform scheduler's:
degree-proportional initiators are uniform on a regular graph) and
refuse irregular graphs with a clear message.  A count-level run on a
vertex-transitive graph simulates the *degree-annealed* law — the graph
resampled from its degree ensemble each interaction, the same
within-class exchangeability argument as the ``(weight class × state)``
lift of :mod:`repro.engine.weighted` with one degree class.  Quenched
and annealed laws coincide exactly for the complete graph and for
partner-blind (initiator-only) update rules on any regular graph;
for partner-sensitive rules on sparse graphs they differ — that gap *is*
the topology sensitivity the E4/E6 experiment variants measure, so pin
``backend="agent"`` when the quenched process is the object of study
(``backend="auto"`` does this for you whenever a topology is given).
For an irregular graph the annealed chain is the weighted lift with
per-agent weights :meth:`InteractionGraph.degree_weights` — run it
explicitly through :class:`~repro.engine.weighted.WeightedCountBackend`
when the mean-field view is wanted.
"""

from __future__ import annotations

import numpy as np

from repro.utils import as_generator, check_positive_int
from repro.utils.errors import InvalidParameterError

#: Root entropy of the spec-derived generators: graph specs must yield
#: identical graphs under any simulation seed, so the random families
#: (smallworld rewiring, powerlaw stub matching) draw from a generator
#: seeded by the spec parameters alone.
_SPEC_ENTROPY = 0x746F706F  # "topo"

#: Number of discrete degree levels the ``powerlaw`` family generates
#: (mirrors the weight spec's :data:`~repro.engine.weighted
#: .POWERLAW_LEVELS`, keeping the degree-class set small).
POWERLAW_DEGREE_LEVELS = 8

#: Extra stubs (beyond the ring core's 2) of the most-connected powerlaw
#: level; level ``L`` gets ``round(POWERLAW_EXTRA_STUBS * L**-alpha)``.
POWERLAW_EXTRA_STUBS = 8


class InteractionGraph:
    """A validated undirected interaction graph in CSR adjacency form.

    Parameters
    ----------
    n:
        Number of vertices (agents), ``n >= 2``.  Vertex ``i`` is agent
        ``i`` — facades lay their populations out in vertex order.
    edges:
        ``(E, 2)`` integer array of undirected edges.  Duplicates and
        reversed copies collapse to one edge; self-loops are rejected
        (an agent cannot interact with itself).
    name:
        Display name used in error messages and reports.
    vertex_transitive:
        Declare the graph vertex-transitive (every vertex equivalent
        under some automorphism).  Transitivity is a property of the
        *construction* — it is not generally decidable from the edge
        list at reasonable cost — so builders assert it where it holds
        by symmetry (complete, circulant rings, tori).  A declared
        vertex-transitive graph must at least be regular (checked).
        Count-level backends accept exactly the graphs carrying this
        flag; see the module docstring for what that run simulates.

    Attributes
    ----------
    edge_u, edge_v:
        The ``2E`` directed edges (both orientations of every undirected
        edge), sorted by source — one uniform index into them is one
        pair draw.
    indptr, indices:
        CSR adjacency: the neighbors of vertex ``i`` are
        ``indices[indptr[i]:indptr[i + 1]]``.
    degrees:
        Per-vertex degree vector.
    """

    def __init__(self, n: int, edges, name: str = "graph",
                 vertex_transitive: bool = False):
        n = int(n)
        if n < 2:
            raise InvalidParameterError(
                f"an interaction graph needs at least 2 vertices, got {n}")
        edge_array = np.asarray(edges, dtype=np.int64)
        if edge_array.ndim != 2 or edge_array.shape[1] != 2 \
                or edge_array.shape[0] < 1:
            raise InvalidParameterError(
                "edges must be a non-empty (E, 2) array of vertex pairs")
        u = edge_array[:, 0]
        v = edge_array[:, 1]
        if u.min() < 0 or v.min() < 0 or u.max() >= n or v.max() >= n:
            raise InvalidParameterError(
                f"edge endpoints must lie in 0..{n - 1}")
        loops = u == v
        if np.any(loops):
            vertex = int(u[loops][0])
            raise InvalidParameterError(
                f"interaction graph '{name}' has a self-loop at vertex "
                f"{vertex}; an agent cannot interact with itself")
        # Canonical undirected edge set: dedupe both duplicates and
        # reversed copies through one sorted-pair key.
        low = np.minimum(u, v)
        high = np.maximum(u, v)
        unique = np.unique(low * n + high)
        low, high = unique // n, unique % n
        self.n = n
        self.m = int(unique.size)
        source = np.concatenate((low, high))
        target = np.concatenate((high, low))
        order = np.argsort(source, kind="stable")
        self.edge_u = source[order]
        self.edge_v = target[order]
        self.degrees = np.bincount(self.edge_u, minlength=n)
        self.indptr = np.concatenate(
            ([0], np.cumsum(self.degrees))).astype(np.int64)
        self.indices = self.edge_v
        self.name = str(name)
        reached = self._reachable_from_zero()
        if reached < n:
            raise InvalidParameterError(
                f"interaction graph '{name}' is disconnected: only "
                f"{reached} of {n} vertices are reachable from vertex 0; "
                f"pair sampling on a disconnected graph would freeze the "
                f"unreachable component forever — refusing")
        if vertex_transitive and not self.is_regular:
            raise InvalidParameterError(
                f"graph '{name}' was declared vertex-transitive but is "
                f"irregular (degrees {int(self.degrees.min())}.."
                f"{int(self.degrees.max())}); vertex-transitive graphs "
                f"are regular")
        self.vertex_transitive = bool(vertex_transitive)

    def _reachable_from_zero(self) -> int:
        """Vertices reachable from vertex 0 (vectorized frontier BFS)."""
        seen = np.zeros(self.n, dtype=bool)
        seen[0] = True
        frontier = np.array([0], dtype=np.int64)
        while frontier.size:
            counts = self.degrees[frontier]
            total = int(counts.sum())
            starts = np.repeat(self.indptr[frontier], counts)
            within = np.arange(total) - np.repeat(
                np.cumsum(counts) - counts, counts)
            neighbors = self.indices[starts + within]
            fresh = neighbors[~seen[neighbors]]
            frontier = np.unique(fresh)
            seen[frontier] = True
        return int(seen.sum())

    @property
    def is_regular(self) -> bool:
        """Whether every vertex has the same degree."""
        return int(self.degrees.min()) == int(self.degrees.max())

    def degree_weights(self) -> np.ndarray:
        """Per-agent degrees as activity weights — the annealed lift.

        Resampling the graph from its degree ensemble each interaction
        gives initiator and responder marginals proportional to degree,
        i.e. exactly the :class:`~repro.engine.sampling
        .WeightedScheduler` law with these weights; feed them to
        :class:`~repro.engine.weighted.WeightedCountBackend` for the
        exact mean-field count chain of an irregular graph.
        """
        return self.degrees.astype(float)

    def neighbors(self, vertex: int) -> np.ndarray:
        """The neighbor list of ``vertex`` (a CSR slice view)."""
        return self.indices[self.indptr[vertex]:self.indptr[vertex + 1]]

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return (f"InteractionGraph(name={self.name!r}, n={self.n}, "
                f"m={self.m}, regular={self.is_regular}, "
                f"vertex_transitive={self.vertex_transitive})")


# ----------------------------------------------------------------------
# Graph builders
# ----------------------------------------------------------------------
def complete_graph(n: int) -> InteractionGraph:
    """The complete graph ``K_n`` — the paper's uniform scheduler.

    Materializes ``n(n-1)/2`` edges, so this is for tests and small
    populations; facades map the ``"complete"`` spec to ``None`` (the
    uniform scheduler) instead of building it.
    """
    rows, cols = np.triu_indices(int(n), k=1)
    return InteractionGraph(n, np.column_stack((rows, cols)),
                            name="complete", vertex_transitive=True)


def ring_graph(n: int, half_width: int = 1) -> InteractionGraph:
    """A circulant ring: vertex ``i`` connects to ``i ± 1..half_width``.

    ``half_width=1`` is the cycle (degree 2; a single edge at ``n=2``,
    the triangle at ``n=3``); larger widths give the dense ring lattices
    small-world graphs rewire.  Circulant graphs are vertex-transitive.
    """
    n = int(n)
    width = int(half_width)
    if width < 1:
        raise InvalidParameterError(
            f"ring half-width must be >= 1, got {half_width!r}")
    vertices = np.arange(n, dtype=np.int64)
    edges = np.concatenate([
        np.column_stack((vertices, (vertices + offset) % n))
        for offset in range(1, min(width, n - 1) + 1)])
    return InteractionGraph(n, edges, name=f"ring:{width}",
                            vertex_transitive=True)


def grid_graph(n: int, rows: int | None = None) -> InteractionGraph:
    """A 2-D torus (periodic grid) with ``rows × (n/rows)`` vertices.

    ``rows`` defaults to the largest divisor of ``n`` at most
    ``sqrt(n)`` (the squarest factorization); a prime ``n`` degenerates
    to the 1-row torus, i.e. a ring.  Tori are vertex-transitive.
    """
    n = int(n)
    if rows is None:
        rows = 1
        for candidate in range(2, int(n ** 0.5) + 1):
            if n % candidate == 0:
                rows = candidate
    rows = int(rows)
    if rows < 1 or n % rows != 0:
        raise InvalidParameterError(
            f"grid rows must divide n={n}, got {rows!r}")
    cols = n // rows
    vertex = np.arange(n, dtype=np.int64)
    r, c = vertex // cols, vertex % cols
    right = r * cols + (c + 1) % cols
    down = ((r + 1) % rows) * cols + c
    edges = np.concatenate((np.column_stack((vertex, right)),
                            np.column_stack((vertex, down))))
    edges = edges[edges[:, 0] != edges[:, 1]]  # 1-row/1-col wrap loops
    return InteractionGraph(n, edges, name=f"grid:{rows}x{cols}",
                            vertex_transitive=True)


def small_world_graph(n: int, p: float = 0.1,
                      half_width: int = 2) -> InteractionGraph:
    """Watts-Strogatz-style small world over an intact base ring.

    Starts from the circulant ring of ``half_width`` (degree
    ``2*half_width``) and rewires each edge of offset ``>= 2`` to a
    uniform random target with probability ``p`` — the offset-1 cycle is
    never rewired, so the graph stays connected by construction (the
    loud-refusal validation then never fires spuriously).  Rewirings
    that collide with an existing edge collapse in dedup, mirroring the
    classic construction's skipped duplicates.  ``p=0`` is the ring
    lattice (vertex-transitive); any ``p>0`` breaks transitivity.

    The generator is derived from ``(n, p)`` alone, so identical specs
    give identical graphs under any simulation seed.
    """
    n = int(n)
    width = int(half_width)
    if not 0.0 <= float(p) <= 1.0:
        raise InvalidParameterError(
            f"smallworld rewiring probability must lie in [0, 1], "
            f"got {p!r}")
    if width < 2:
        raise InvalidParameterError(
            f"smallworld half-width must be >= 2 (the offset-1 ring is "
            f"kept, offsets >= 2 are rewired), got {half_width!r}")
    vertices = np.arange(n, dtype=np.int64)
    kept = [np.column_stack((vertices, (vertices + 1) % n))]
    rng = np.random.default_rng(
        np.random.SeedSequence((_SPEC_ENTROPY, n, int(round(p * 1e9)),
                                width)))
    for offset in range(2, min(width, n - 1) + 1):
        targets = (vertices + offset) % n
        rewire = rng.random(n) < p
        random_targets = rng.integers(0, n, size=n)
        clash = rewire & (random_targets == vertices)
        while np.any(clash):
            random_targets[clash] = rng.integers(0, n, size=int(clash.sum()))
            clash = rewire & (random_targets == vertices)
        targets = np.where(rewire, random_targets, targets)
        kept.append(np.column_stack((vertices, targets)))
    edges = np.concatenate(kept)
    edges = edges[edges[:, 0] != edges[:, 1]]
    return InteractionGraph(n, edges, name=f"smallworld:{p}",
                            vertex_transitive=(float(p) == 0.0))


def powerlaw_graph(n: int, alpha: float = 1.0) -> InteractionGraph:
    """Configuration-model-style graph with a power-law degree profile.

    Agents carry :data:`POWERLAW_DEGREE_LEVELS` discrete connectivity
    levels assigned round-robin (level ``L`` targets
    ``2 + round(POWERLAW_EXTRA_STUBS * L**-alpha)`` neighbors — the same
    discretization-for-small-class-sets rationale as the powerlaw
    *weight* spec).  A ring core guarantees connectivity; the residual
    stubs are shuffle-matched with a spec-derived generator, and
    self-loops / duplicate matches are dropped (degrees are a profile,
    not an exact sequence — standard for stub matching).  The result is
    irregular, so count backends refuse it; its annealed mean-field
    chain is reachable explicitly via :meth:`InteractionGraph
    .degree_weights`.
    """
    n = int(n)
    alpha = float(alpha)
    if not np.isfinite(alpha) or alpha <= 0:
        raise InvalidParameterError(
            f"powerlaw degree exponent must be positive and finite, "
            f"got {alpha!r}")
    levels = np.arange(1, POWERLAW_DEGREE_LEVELS + 1, dtype=float)
    extra = np.maximum(
        1, np.rint(POWERLAW_EXTRA_STUBS * levels ** -alpha)).astype(np.int64)
    per_agent = extra[np.arange(n) % POWERLAW_DEGREE_LEVELS]
    stubs = np.repeat(np.arange(n, dtype=np.int64), per_agent)
    rng = np.random.default_rng(
        np.random.SeedSequence((_SPEC_ENTROPY, n,
                                int(round(alpha * 1e9)), 1)))
    rng.shuffle(stubs)
    if stubs.size % 2:
        stubs = stubs[:-1]
    matched = stubs.reshape(-1, 2)
    vertices = np.arange(n, dtype=np.int64)
    ring = np.column_stack((vertices, (vertices + 1) % n))
    edges = np.concatenate((ring, matched))
    edges = edges[edges[:, 0] != edges[:, 1]]
    return InteractionGraph(n, edges, name=f"powerlaw:{alpha}",
                            vertex_transitive=False)


# ----------------------------------------------------------------------
# Spec parsing — the facades' one ``topology=`` entry point
# ----------------------------------------------------------------------
def topology_from_spec(spec: str, n: int) -> InteractionGraph | None:
    """An interaction graph named by a textual spec.

    * ``"complete"`` — ``None`` (the uniform scheduler; the complete
      graph is never materialized).
    * ``"ring"`` / ``"ring:w"`` — circulant ring of half-width ``w``
      (default 1: the cycle).
    * ``"grid"`` / ``"grid:rows"`` — 2-D torus (squarest factorization
      by default).
    * ``"smallworld"`` / ``"smallworld:p"`` — Watts-Strogatz-style
      rewiring with probability ``p`` (default 0.1) over an intact ring.
    * ``"powerlaw"`` / ``"powerlaw:alpha"`` — configuration-model-style
      power-law degree profile (default ``alpha = 1``); irregular, so
      count backends refuse it.

    All spellings are deterministic in ``(spec, n)``: identical specs
    give identical graphs under any seed.
    """
    name, _, argument = str(spec).partition(":")
    name = name.strip().lower()
    if name == "complete":
        if argument:
            raise InvalidParameterError(
                f"topology spec 'complete' takes no argument, got {spec!r}")
        return None
    if name == "ring":
        width = 1
        if argument:
            try:
                width = int(argument)
            except ValueError as error:
                raise InvalidParameterError(
                    f"malformed ring half-width in {spec!r}") from error
        return ring_graph(n, half_width=width)
    if name == "grid":
        rows = None
        if argument:
            try:
                rows = int(argument)
            except ValueError as error:
                raise InvalidParameterError(
                    f"malformed grid rows in {spec!r}") from error
        return grid_graph(n, rows=rows)
    if name == "smallworld":
        probability = 0.1
        if argument:
            try:
                probability = float(argument)
            except ValueError as error:
                raise InvalidParameterError(
                    f"malformed smallworld rewiring probability in "
                    f"{spec!r}") from error
        return small_world_graph(n, p=probability)
    if name == "powerlaw":
        alpha = 1.0
        if argument:
            try:
                alpha = float(argument)
            except ValueError as error:
                raise InvalidParameterError(
                    f"malformed powerlaw exponent in {spec!r}") from error
        return powerlaw_graph(n, alpha=alpha)
    raise InvalidParameterError(
        f"unknown topology spec {spec!r}; expected 'complete', "
        f"'ring[:w]', 'grid[:rows]', 'smallworld[:p]', or "
        f"'powerlaw[:alpha]'")


def resolve_topology(topology, n: int) -> InteractionGraph | None:
    """The facades' one ``topology=`` parser: spec, graph, or edges.

    ``None`` passes through (unrestricted); a string resolves via
    :func:`topology_from_spec`; an :class:`InteractionGraph` is checked
    against ``n``; anything else is taken as an explicit undirected edge
    array.  Every facade funnels its knob through here so the validation
    (and its messages) exist once — the ``weights=`` pattern of
    :func:`~repro.engine.weighted.resolve_weights`.
    """
    if topology is None:
        return None
    if isinstance(topology, str):
        return topology_from_spec(topology, n)
    if isinstance(topology, InteractionGraph):
        if topology.n != int(n):
            raise InvalidParameterError(
                f"topology is over n={topology.n} agents, population "
                f"has n={n}")
        return topology
    return InteractionGraph(n, topology, name="custom")


# ----------------------------------------------------------------------
# Sampling: the graph-restricted pair law
# ----------------------------------------------------------------------
def graph_neighbor_block(rng, graph: InteractionGraph,
                         first) -> np.ndarray:
    """One uniform neighbor per entry of ``first`` (CSR offset draws).

    One uniform integer per draw: ``rng.integers`` with a per-entry
    ``degree`` ceiling indexes directly into the CSR neighbor lists.
    """
    first = np.asarray(first, dtype=np.int64)
    offsets = rng.integers(0, graph.degrees[first])
    return graph.indices[graph.indptr[first] + offsets]


def graph_pair_block(rng, graph: InteractionGraph, size: int):
    """``size`` ordered pairs of adjacent agents (uniform directed edges).

    One uniform index into the ``2E`` directed-edge table per pair —
    the initiator marginal is degree-proportional and the responder is
    uniform among its neighbors (on a regular graph the initiator is
    uniform, matching the paper's scheduler marginals).
    """
    picks = rng.integers(0, graph.edge_u.size, size=size)
    return graph.edge_u[picks], graph.edge_v[picks]


class GraphScheduler:
    """Uniform directed edges of an interaction graph — the quenched law.

    The initiator lands on a vertex proportionally to its degree and the
    responder is a uniform neighbor.  On a regular graph the initiator
    marginal is uniform, matching the paper's scheduler marginals while
    restricting the pair support to the edge set; on the complete graph
    the law is exactly :class:`~repro.engine.sampling.RandomScheduler`'s
    (though not its bitstream: edge-index draws, not the shift trick).

    Parameters
    ----------
    graph:
        The :class:`InteractionGraph`, advertised as :attr:`topology`.
        Spec strings and edge arrays resolve through
        :func:`~repro.engine.dispatch.make_law` (or
        :func:`resolve_topology`).
    seed:
        Seed or generator; a generator is shared, not copied.
    """

    #: The non-uniformity is structural (the edge set, on
    #: :attr:`topology`), not per-agent activity weights.
    weights = None

    def __init__(self, graph: InteractionGraph, seed=None):
        if not isinstance(graph, InteractionGraph):
            raise InvalidParameterError(
                "GraphScheduler needs an InteractionGraph; resolve spec "
                "strings and edge arrays with make_law(n, topology=...)")
        self.topology = graph
        self.n = graph.n
        self.rng = as_generator(seed)

    def pair_block(self, size: int) -> tuple[np.ndarray, np.ndarray]:
        """``size`` ordered pairs of adjacent agents."""
        size = check_positive_int("size", size)
        return graph_pair_block(self.rng, self.topology, size)

    def others_block(self, first) -> np.ndarray:
        """One uniform *neighbor* per entry of ``first``."""
        return graph_neighbor_block(self.rng, self.topology, first)


__all__ = [
    "InteractionGraph",
    "GraphScheduler",
    "complete_graph",
    "ring_graph",
    "grid_graph",
    "small_world_graph",
    "powerlaw_graph",
    "topology_from_spec",
    "resolve_topology",
    "graph_pair_block",
    "graph_neighbor_block",
]
