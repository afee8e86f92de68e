"""Trajectory pins: every facade × pair law × backend, bit for bit.

Each case runs one facade configuration at a fixed seed and digests its
final counts plus every observed series (sha256 over the ``int64``
bytes).  The digests were captured before the pair schedulers and the
facades' engine construction were consolidated into one class per law
and one engine factory, so any change to how a facade draws pairs,
builds its engine, or hands the law's arrays to the count lift moves a
digest.  A case that must change on purpose (a new bitstream) needs a
``CODE_EPOCH`` bump in the result cache too.  The five uniform-count
digests were re-captured (epoch 3) when the count start became one
multinomial draw and table models' birthday batches became cell
compositions.  The three agent action-mode digests were re-captured
(epoch 4) when that mode moved from a per-step Monte-Carlo game loop
onto the engine's exact classification law.  The ``simulator-*`` and
``protocol-counts-*`` cases run a plain table protocol through
``build_engine`` on the agent and the count engine.  The ``*-kernel``
agent cases run the chunked kernel: ``igt-uniform-agent-kernel`` with
the k-IGT inert filter (n = 20,000, k = 8, observed), and the logit and
imitation cases its batched stochastic path (2- and 4-slot peels); they
were captured before the kernel's state arrays were narrowed.
"""

import hashlib

import numpy as np
import pytest

from repro.core.equilibrium import RDSetting
from repro.core.general_games import PopulationGameSimulation, hawk_dove_game
from repro.core.igt import GenerosityGrid
from repro.core.population_igt import IGTSimulation, PopulationShares
from repro.engine import TableModel, build_engine, make_law, matrix_game_model

SHARES = PopulationShares(alpha=0.3, beta=0.2, gamma=0.5)
GRID = GenerosityGrid(k=4, g_max=0.6)
LAWS = {
    "uniform": {},
    "powerlaw": {"weights": "powerlaw"},
    "ring": {"topology": "ring"},
}


def digest(*arrays) -> str:
    """Short sha256 over the shapes and ``int64`` bytes of ``arrays``."""
    hasher = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(np.asarray(array, dtype=np.int64))
        hasher.update(repr(array.shape).encode())
        hasher.update(array.tobytes())
    return hasher.hexdigest()[:16]


def igt_run(law, backend, n=240, steps=20_000):
    sim = IGTSimulation(n=n, shares=SHARES, grid=GRID, seed=11,
                        backend=backend, **LAWS[law])
    series = sim.run(steps, observe_every=steps // 4)
    return sim.counts, series


def igt_action(law):
    sim = IGTSimulation(n=60, shares=SHARES, grid=GRID, seed=5,
                        mode="action",
                        setting=RDSetting(b=4.0, c=1.0, delta=0.7, s1=0.5),
                        **LAWS[law])
    series = sim.run(400, observe_every=100)
    return sim.counts, series, sim.gtft_indices()


def igt_kernel():
    """k-IGT on the agent kernel, inert filter included."""
    sim = IGTSimulation(n=20_000, shares=SHARES,
                        grid=GenerosityGrid(k=8, g_max=0.6), seed=13,
                        backend="agent")
    series = sim.run(200_000, observe_every=50_000)
    return sim.counts, series, sim.gtft_indices()


def stochastic_kernel(rule, n=2_000):
    """A one-way stochastic game rule on the agent kernel
    (``vectorized=True``)."""
    model = matrix_game_model(hawk_dove_game(2.0, 4.0).row_payoffs, rule,
                              eta=0.8)
    states = np.random.default_rng(4).integers(0, model.n_states, size=n)
    engine = build_engine(model, make_law(n, seed=8), "agent",
                          states=states, vectorized=True)
    result = engine.run(40_000, observe_every=10_000)
    observed = [counts for _, counts in result.observations]
    return engine.states, result.counts, observed


def game(law, backend="agent"):
    sim = PopulationGameSimulation(hawk_dove_game(2.0, 4.0), 40,
                                   rule="imitation", seed=3,
                                   backend=backend, **LAWS[law])
    sim.run(6_000)
    if backend == "agent":
        return sim.counts, sim.strategies
    return (sim.counts,)


def protocol():
    """The initiator takes the larger state, the responder keeps its own."""
    return TableModel([[(max(u, v), v) for v in range(4)] for u in range(4)])


def simulator(law, n):
    """The protocol on the agent engine (the ``simulator-*`` pins)."""
    states = np.zeros(n, dtype=np.int64)
    states[:5] = 3
    states[5:n // 8] = 1
    engine = build_engine(protocol(), make_law(n, seed=7, **LAWS[law]),
                          "agent", states=states)
    result = engine.run(30_000, observe_every=7_001)
    observed = [counts for _, counts in result.observations]
    return engine.states, result.counts, observed


def protocol_counts(n):
    """The protocol on the count engine, its stop cadence ~sqrt(n) (the
    ``protocol-counts-*`` pins)."""
    counts = np.array([n - n // 4 - 5, n // 4, 0, 5])
    engine = build_engine(protocol(), make_law(n, seed=9), "count",
                          counts=counts)
    result = engine.run(200_000, observe_every=50_000,
                        check_stop_every=max(1, int(n ** 0.5)))
    observed = [counts for _, counts in result.observations]
    return result.counts, observed


CASES = {
    "igt-uniform-agent": lambda: igt_run("uniform", "agent"),
    "igt-uniform-agent-kernel": igt_kernel,
    "igt-uniform-count": lambda: igt_run("uniform", "count"),
    "igt-uniform-count-birthday": lambda: igt_run(
        "uniform", "count", n=2_000_000, steps=200_000),
    "igt-powerlaw-agent": lambda: igt_run("powerlaw", "agent"),
    "igt-powerlaw-count": lambda: igt_run("powerlaw", "count"),
    "igt-ring-agent": lambda: igt_run("ring", "agent"),
    "igt-ring-count": lambda: igt_run("ring", "count"),
    "igt-uniform-action-agent": lambda: igt_action("uniform"),
    "igt-powerlaw-action-agent": lambda: igt_action("powerlaw"),
    "igt-ring-action-agent": lambda: igt_action("ring"),
    "game-uniform-agent": lambda: game("uniform"),
    "game-powerlaw-agent": lambda: game("powerlaw"),
    "game-ring-agent": lambda: game("ring"),
    "game-uniform-count": lambda: game("uniform", backend="count"),
    "game-powerlaw-count": lambda: game("powerlaw", backend="count"),
    "logit-agent-kernel": lambda: stochastic_kernel("logit"),
    "imitation-agent-kernel": lambda: stochastic_kernel("imitation"),
    "simulator-uniform": lambda: simulator("uniform", 300),
    "simulator-uniform-kernel": lambda: simulator("uniform", 4_000),
    "simulator-ring": lambda: simulator("ring", 300),
    "protocol-counts-proxy": lambda: protocol_counts(1_000),
    "protocol-counts-birthday": lambda: protocol_counts(3_000_000),
}

PINNED = {
    "game-powerlaw-agent": "8ff82df5bbae7a70",
    "game-powerlaw-count": "48c5ddf5992a1f28",
    "game-ring-agent": "ba1ba3404f9e99fa",
    "game-uniform-agent": "c87d86073a6f8d1f",
    "game-uniform-count": "f4f238a6fd6ae650",
    "igt-powerlaw-action-agent": "76dbf5c3f0c7a979",
    "igt-powerlaw-agent": "cf1272bd440b85bc",
    "igt-powerlaw-count": "de45c04de3d375ac",
    "igt-ring-action-agent": "9026b3bfe5450789",
    "igt-ring-agent": "c15addce9b4bb629",
    "igt-ring-count": "f579cde16d1a0912",
    "igt-uniform-action-agent": "fd85fed7d291dc95",
    "igt-uniform-agent": "6db001b736e7c680",
    "igt-uniform-agent-kernel": "189a91b98a2d1fe2",
    "igt-uniform-count": "f579cde16d1a0912",
    "igt-uniform-count-birthday": "5fe2cde7b36e944d",
    "imitation-agent-kernel": "06be09059915c630",
    "logit-agent-kernel": "646d91d66418673a",
    "protocol-counts-birthday": "b7c5fc987aa25f82",
    "protocol-counts-proxy": "21d496e6330e2e77",
    "simulator-ring": "6f591db0dfe14496",
    "simulator-uniform": "c4ddecbc4d42bd56",
    "simulator-uniform-kernel": "7c7514138fcedd7f",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_trajectory_pinned(case):
    assert digest(*CASES[case]()) == PINNED[case]
