"""Pairwise interaction schedulers (re-exported from the engine layer).

At every time step an *ordered* pair of distinct agents (initiator,
responder) is sampled — uniformly at random by :class:`RandomScheduler`
(the standard probabilistic scheduler of the population-protocol
literature and the source of all randomness in the paper's dynamics),
proportionally to per-agent activity weights by
:class:`WeightedScheduler`, or uniformly over the directed edges of an
interaction graph by :class:`GraphScheduler`.  Each law is one class in
:mod:`repro.engine.sampling` / :mod:`repro.engine.topology`; see
:mod:`repro.engine.sampling` for their capability contract.
"""

from repro.engine.sampling import (
    RandomScheduler,
    WeightedScheduler,
    ordered_pair_block,
)
from repro.engine.topology import GraphScheduler

__all__ = [
    "ordered_pair_block",
    "RandomScheduler",
    "WeightedScheduler",
    "GraphScheduler",
]
