"""Population-protocol substrate.

The model of Angluin et al. that the paper builds on: ``n`` anonymous,
finite-state agents; at each discrete step a *scheduler* samples an ordered
pair (initiator, responder) uniformly at random and both agents update their
states through a common transition function.  The paper's k-IGT dynamics is a
one-way protocol in this model (only the initiator updates — footnote 3).

This package holds the protocol abstraction
(:class:`PopulationProtocol`, :class:`TransitionFunctionProtocol` for a
protocol given as a plain function), the pair laws re-exported from
:mod:`repro.engine`, and :class:`Simulator`, the protocol facade over the
engine backends (its ``run`` returns the engine's
:class:`~repro.engine.EngineResult`).
"""

from repro.population.protocol import (
    PopulationProtocol,
    TransitionFunctionProtocol,
)
from repro.population.scheduler import RandomScheduler, WeightedScheduler
from repro.population.simulator import Simulator

__all__ = [
    "PopulationProtocol",
    "TransitionFunctionProtocol",
    "RandomScheduler",
    "WeightedScheduler",
    "Simulator",
]
