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
onto the engine's exact classification law.
"""

import hashlib

import numpy as np
import pytest

from repro.core.equilibrium import RDSetting
from repro.core.general_games import PopulationGameSimulation, hawk_dove_game
from repro.core.igt import GenerosityGrid
from repro.core.population_igt import IGTSimulation, PopulationShares
from repro.population.protocol import TransitionFunctionProtocol
from repro.population.simulator import Simulator, simulate_protocol_counts

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


def game(law, backend="agent"):
    sim = PopulationGameSimulation(hawk_dove_game(2.0, 4.0), 40,
                                   rule="imitation", seed=3,
                                   backend=backend, **LAWS[law])
    sim.run(6_000)
    if backend == "agent":
        return sim.counts, sim.strategies
    return (sim.counts,)


def protocol():
    return TransitionFunctionProtocol(n_states=4,
                                      fn=lambda u, v: (max(u, v), v))


def simulator(law, n):
    states = np.zeros(n, dtype=np.int64)
    states[:5] = 3
    states[5:n // 8] = 1
    sim = Simulator(protocol(), states, seed=7, **LAWS[law])
    result = sim.run(30_000, observe_every=7_001)
    observed = [counts for _, counts in result.observations]
    return result.states, result.counts, observed


def protocol_counts(n):
    counts = np.array([n - n // 4 - 5, n // 4, 0, 5])
    result = simulate_protocol_counts(protocol(), counts, 200_000, seed=9,
                                      observe_every=50_000)
    observed = [counts for _, counts in result.observations]
    return result.counts, observed


CASES = {
    "igt-uniform-agent": lambda: igt_run("uniform", "agent"),
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
    "igt-uniform-count": "f579cde16d1a0912",
    "igt-uniform-count-birthday": "5fe2cde7b36e944d",
    "protocol-counts-birthday": "b7c5fc987aa25f82",
    "protocol-counts-proxy": "21d496e6330e2e77",
    "simulator-ring": "6f591db0dfe14496",
    "simulator-uniform": "c4ddecbc4d42bd56",
    "simulator-uniform-kernel": "7c7514138fcedd7f",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_trajectory_pinned(case):
    assert digest(*CASES[case]()) == PINNED[case]
