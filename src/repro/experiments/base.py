"""Experiment registry, typed parameter specs, and report structure."""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.tables import format_table
from repro.engine import check_backend
from repro.params import ParamSpace, ResolvedParams
from repro.utils.errors import InvalidParameterError

#: Wire spellings of the non-finite floats strict JSON cannot carry.
_NONFINITE_WIRE = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}


def _jsonable(value):
    """``value`` coerced to *strict* JSON types (row cells may be numpy).

    Non-finite floats are not valid strict JSON (``json.dumps`` would
    emit the non-portable ``NaN``/``Infinity`` literals), so they are
    encoded as ``{"$float": "nan" | "inf" | "-inf"}`` markers;
    :func:`_from_wire` decodes them back to floats on the way in.
    """
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (np.floating, float)):
        value = float(value)
        if not math.isfinite(value):
            if math.isnan(value):
                return {"$float": "nan"}
            return {"$float": "inf" if value > 0 else "-inf"}
        return value
    if isinstance(value, np.ndarray):
        return [_jsonable(item) for item in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if value is None or isinstance(value, str):
        return value
    return str(value)


def _from_wire(value):
    """Inverse of :func:`_jsonable` on decoded JSON payloads."""
    if isinstance(value, dict) and set(value) == {"$float"} \
            and value["$float"] in _NONFINITE_WIRE:
        return _NONFINITE_WIRE[value["$float"]]
    if isinstance(value, list):
        return [_from_wire(item) for item in value]
    return value


@dataclass
class ExperimentReport:
    """Structured result of one experiment.

    Attributes
    ----------
    experiment_id:
        The registry id, e.g. ``"E7"``.
    title:
        Human-readable name.
    claim:
        The paper artifact/claim being regenerated.
    headers, rows:
        The regenerated table.
    checks:
        Named boolean verdicts (``name -> passed``) — the "does the shape
        hold" assertions that the tests also rely on.
    notes:
        Free-form caveats (sample sizes, known discrepancies, ...).
    """

    experiment_id: str
    title: str
    claim: str
    headers: list[str]
    rows: list[list] = field(default_factory=list)
    checks: dict[str, bool] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    @property
    def all_checks_pass(self) -> bool:
        """Whether every registered check passed."""
        return all(self.checks.values())

    def render(self) -> str:
        """Render the report as printable text."""
        lines = [f"== {self.experiment_id}: {self.title} ==",
                 f"claim: {self.claim}", ""]
        lines.append(format_table(self.headers, self.rows))
        if self.checks:
            lines.append("")
            for name, passed in self.checks.items():
                lines.append(f"[{'PASS' if passed else 'FAIL'}] {name}")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """The report as plain JSON types (the cache / worker wire form).

        Row cells are coerced with :func:`_jsonable`, so a report that
        round-trips through ``from_dict(to_dict())`` is stable: a second
        round-trip is the identity.  The runner serializes *every* report
        — fresh, pooled, or cached — so records compare equal bytewise
        regardless of where they were computed.
        """
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "claim": self.claim,
            "headers": list(self.headers),
            "rows": [[_jsonable(cell) for cell in row] for row in self.rows],
            "checks": {name: bool(ok) for name, ok in self.checks.items()},
            "notes": list(self.notes),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentReport":
        """Rebuild a report from its :meth:`to_dict` form."""
        return cls(
            experiment_id=payload["experiment_id"],
            title=payload["title"],
            claim=payload["claim"],
            headers=list(payload["headers"]),
            rows=[[_from_wire(cell) for cell in row]
                  for row in payload["rows"]],
            checks=dict(payload["checks"]),
            notes=list(payload["notes"]),
        )


@dataclass(frozen=True)
class ExperimentSpec:
    """One registered experiment: id, title, runner, parameter schema."""

    experiment_id: str
    title: str
    runner: object
    params: ParamSpace

    def resolve(self, profile: str = "fast",
                overrides: dict | None = None) -> ResolvedParams:
        """Resolve ``overrides`` against this experiment's schema."""
        try:
            return self.params.resolve(profile, overrides)
        except InvalidParameterError as error:
            raise InvalidParameterError(
                f"{self.experiment_id}: {error}") from error


_REGISTRY: dict[str, ExperimentSpec] = {}


def normalize_experiment_id(experiment_id: str) -> str:
    """The canonical (uppercased, stripped) form of an experiment id.

    ``register`` and ``get_spec`` share this normalization, so an
    experiment registered as ``"e17x"`` is stored — and looked up — as
    ``"E17X"`` rather than silently shadowing its uppercase twin.
    """
    key = str(experiment_id).strip().upper()
    if not key:
        raise InvalidParameterError("experiment_id must be non-empty")
    return key


def register(experiment_id: str, title: str,
             params: ParamSpace | None = None):
    """Decorator registering an experiment runner.

    The runner must accept ``(params: ResolvedParams, seed)`` keyword
    arguments (plus an optional ``backend``) and return an
    :class:`ExperimentReport`.  ``params`` declares the experiment's
    typed knob schema; omitting it registers an empty schema whose only
    knobs are the ``fast``/``full`` profile choice itself.
    """
    def decorator(fn):
        key = normalize_experiment_id(experiment_id)
        if key in _REGISTRY:
            raise InvalidParameterError(
                f"experiment {key!r} registered twice")
        _REGISTRY[key] = ExperimentSpec(
            experiment_id=key,
            title=title,
            runner=fn,
            params=params if params is not None else ParamSpace(),
        )
        return fn
    return decorator


def all_experiments() -> list[tuple[str, str]]:
    """All registered ``(id, title)`` pairs, sorted by id."""
    return sorted((eid, spec.title) for eid, spec in _REGISTRY.items())


def get_spec(experiment_id: str) -> ExperimentSpec:
    """The full :class:`ExperimentSpec` registered under ``experiment_id``."""
    key = normalize_experiment_id(experiment_id)
    if key not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY))
        raise InvalidParameterError(
            f"unknown experiment {experiment_id!r}; known: {known}")
    return _REGISTRY[key]


def run_experiment(experiment_id: str, seed=12345,
                   backend: str | None = None,
                   params: dict | None = None,
                   profile: str = "fast") -> ExperimentReport:
    """Run one experiment and return its report.

    Parameters
    ----------
    experiment_id:
        The registry id, e.g. ``"E7"``.
    seed:
        Random seed forwarded to the runner.
    backend:
        Optional simulation-engine selection (``"agent"``, ``"count"``,
        or ``"auto"`` for measured-crossover dispatch) for experiments
        that simulate populations; runners that do not accept a
        ``backend`` parameter (exact-computation experiments) ignore it.
    params:
        Optional ``name -> value`` overrides, validated and coerced
        against the experiment's declared :class:`ParamSpace` — unknown
        names and out-of-domain values raise
        :class:`InvalidParameterError` listing the valid knobs.
    profile:
        Named profile to resolve overrides on top of (``"fast"``,
        ``"full"``, or any profile the experiment declares).
    """
    spec = get_spec(experiment_id)
    kwargs = {"params": spec.resolve(profile, params), "seed": seed}
    if backend is not None:
        check_backend(backend, allow_auto=True)
        if "backend" in inspect.signature(spec.runner).parameters:
            kwargs["backend"] = backend
    return spec.runner(**kwargs)
