"""Shared utilities: error types, parameter validation, and RNG handling.

These helpers are intentionally small and dependency-free so that every
substrate package (``repro.markov``, ``repro.games``, ``repro.population``)
can rely on them without import cycles.
"""

from repro.utils.errors import (
    ConvergenceError,
    InvalidDistributionError,
    InvalidParameterError,
    InvariantError,
    ReproError,
)
from repro.utils.rng import as_generator, spawn_generators
from repro.utils.validation import (
    check_fraction,
    check_in_range,
    check_int_array,
    check_positive,
    check_positive_int,
    check_probability,
    check_probability_vector,
)

__all__ = [
    "ReproError",
    "InvalidParameterError",
    "InvalidDistributionError",
    "ConvergenceError",
    "InvariantError",
    "as_generator",
    "spawn_generators",
    "check_fraction",
    "check_in_range",
    "check_int_array",
    "check_positive",
    "check_positive_int",
    "check_probability",
    "check_probability_vector",
]
