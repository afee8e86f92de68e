"""Declarative experiment parameters: typed schemas, profiles, grids.

Experiments declare their knobs once::

    PARAMS = ParamSpace(
        Param("n", "int", 200_000, minimum=2,
              help="population size for the simulated series"),
        Param("eps", "float", 0.05, minimum=0.0, maximum=1.0,
              help="relaxation tolerance"),
        profiles={"full": {"n": 1_000_000}},
    )

    @register("E4", "...", params=PARAMS)
    def run(params=None, seed=None, backend="count"): ...

and every entry point resolves user input through the same schema:
``run_experiment("E4", params={"n": "1e5"})``, the plan executor's
cache keys, and the CLI's ``--set`` / ``--grid`` / ``repro params``.
See :mod:`repro.params.spec` for the model and
:mod:`repro.params.grid` for the textual spellings.
"""

from repro.params.grid import parse_grid, parse_set, parse_sets
from repro.params.spec import (
    BUILTIN_PROFILES,
    Param,
    ParamSpace,
    ResolvedParams,
)

__all__ = [
    "Param",
    "ParamSpace",
    "ResolvedParams",
    "BUILTIN_PROFILES",
    "parse_grid",
    "parse_set",
    "parse_sets",
]
