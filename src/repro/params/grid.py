"""Grid and override spellings: ``--set`` pairs and ``--grid`` axes.

The CLI (and anything else that takes textual parameter input) funnels
through two parsers:

* :func:`parse_set` — one ``name=value`` override;
* :func:`parse_grid` — grid axes, each ``name=v1,v2,...`` (an explicit
  value list) or ``name=start:stop:count`` (``count`` evenly spaced
  values, endpoints included — ``eps=0.01:0.05:5`` is
  ``[0.01, 0.02, 0.03, 0.04, 0.05]``).  Degenerate ranges collapse
  exactly: ``start == stop`` yields the single endpoint once (any
  ``count``), while ``count=1`` over a non-trivial range is rejected
  with a schema-aware message rather than guessing an endpoint.

Both validate against a :class:`~repro.params.ParamSpace` so every
error message names the experiment's actual knobs, and both return
*coerced* native values — ``n=1e4,1e5`` produces ints, never strings —
which is what keeps grid records and cache keys spelling-independent.

``seed`` is additionally a first-class grid axis even though no
experiment declares it as a parameter: ``--grid seed=0:7:8`` sweeps the
*task seed* (replicate grids in one spelling).  The axis coerces to
exact ints and is consumed by :func:`repro.runner.plan.grid_plan`, which
lifts it out of the per-point parameter overrides into each task's
``seed`` coordinate.
"""

from __future__ import annotations

from repro.params.spec import ParamSpace
from repro.utils.errors import InvalidParameterError


def _split_assignment(spec: str, what: str, space: ParamSpace) -> tuple:
    name, separator, value = spec.partition("=")
    name = name.strip()
    if not separator or not name or not value.strip():
        known = ", ".join(space.names) or "(none)"
        raise InvalidParameterError(
            f"malformed {what} {spec!r}: expected name=value "
            f"(valid parameters: {known})"
        )
    return name, value.strip()


def parse_set(spec: str, space: ParamSpace) -> tuple[str, object]:
    """One ``--set name=value`` pair, coerced against ``space``."""
    name, value = _split_assignment(spec, "--set", space)
    return name, space.coerce_value(name, value)


def parse_sets(specs, space: ParamSpace) -> dict:
    """A sequence of ``--set`` pairs folded into an override dict."""
    overrides: dict = {}
    for spec in specs or ():
        name, value = parse_set(spec, space)
        overrides[name] = value
    return overrides


def _parse_axis_values(name: str, spec: str, space: ParamSpace) -> list:
    colon_parts = spec.split(":")
    if len(colon_parts) == 3:
        try:
            start, stop = float(colon_parts[0]), float(colon_parts[1])
            count = int(colon_parts[2])
        except ValueError as error:
            raise InvalidParameterError(
                f"malformed --grid range {name}={spec!r}: expected "
                f"start:stop:count with numeric endpoints"
            ) from error
        if count < 1:
            raise InvalidParameterError(
                f"--grid range {name}={spec!r} needs count >= 1"
            )
        if start == stop:
            # Degenerate range: one exact endpoint, never `count`
            # duplicated grid points from zero-step arithmetic.
            raw = [start]
        elif count == 1:
            raise InvalidParameterError(
                f"--grid range {name}={spec!r} is ambiguous: count=1 "
                f"with start != stop names no single point; use "
                f"{name}={colon_parts[0]} or count >= 2"
            )
        else:
            step = (stop - start) / (count - 1)
            raw = [start + index * step for index in range(count)]
            # Exact endpoints, immune to float accumulation.
            raw[-1] = stop
    elif len(colon_parts) == 1:
        raw = [part.strip() for part in spec.split(",") if part.strip()]
        if not raw:
            raise InvalidParameterError(
                f"malformed --grid axis {name}={spec!r}: no values"
            )
    else:
        raise InvalidParameterError(
            f"malformed --grid axis {name}={spec!r}: expected "
            f"name=v1,v2,... or name=start:stop:count"
        )
    if name == "seed" and "seed" not in space.names:
        # Task-seed axis: not an experiment parameter, so coerce here
        # (exact ints only — a fractional seed is always a typo).
        return [_coerce_seed(name, spec, value) for value in raw]
    return [space.coerce_value(name, value) for value in raw]


def _coerce_seed(name: str, spec: str, value) -> int:
    try:
        as_float = float(value)
    except (TypeError, ValueError) as error:
        raise InvalidParameterError(
            f"--grid axis {name}={spec!r}: seed values must be "
            f"integers, got {value!r}"
        ) from error
    as_int = int(as_float)
    if as_int != as_float:
        raise InvalidParameterError(
            f"--grid axis {name}={spec!r}: seed values must be "
            f"integers, got {value!r}"
        )
    return as_int


def parse_grid(specs, space: ParamSpace) -> dict[str, list]:
    """``--grid`` axis specs parsed into ``name -> [values]``.

    Axis order follows the input order (it determines grid-point order
    in :func:`repro.runner.grid_plan`); duplicate axes are
    rejected rather than silently merged.
    """
    grid: dict[str, list] = {}
    for spec in specs or ():
        name, value_spec = _split_assignment(spec, "--grid axis", space)
        if name in grid:
            raise InvalidParameterError(f"--grid axis {name!r} given twice")
        grid[name] = _parse_axis_values(name, value_spec, space)
    if not grid:
        raise InvalidParameterError("at least one --grid axis is required")
    return grid
