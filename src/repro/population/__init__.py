"""The engine's pair laws under their pre-engine import path.

:mod:`repro.population.scheduler` re-exports
:class:`~repro.engine.sampling.RandomScheduler`,
:class:`~repro.engine.sampling.WeightedScheduler`,
:class:`~repro.engine.topology.GraphScheduler` and
:func:`~repro.engine.sampling.ordered_pair_block` for the end-to-end
benchmark's traced mode, which wraps them there.  Nothing else lives
here: protocols are engine models (:class:`~repro.engine.TableModel`
over a ``(S, S, 2)`` transition table) run by
:func:`~repro.engine.build_engine`, and ``import repro`` does not load
this package.
"""
