"""Typed experiment parameters: :class:`Param`, :class:`ParamSpace`,
and :class:`ResolvedParams`.

Every experiment declares its real knobs (population size ``n``,
generosity tolerance ``eps``, sample counts, payoff coefficients, ...)
as a :class:`ParamSpace`: an ordered collection of typed, bounded,
documented :class:`Param` declarations plus named **profiles** — dicts
of overrides applied on top of the declared defaults.  Two profiles are
always present: ``"fast"`` (the defaults themselves — quick,
loose-tolerance runs) and ``"full"`` (the paper-scale configuration);
experiments may declare more.

Resolution is the single validation path for every entry point
(``run_experiment(params=...)``, the plan executor, the CLI ``--set`` /
``--grid`` flags): defaults, then profile overrides, then user
overrides, each coerced and bounds-checked by its :class:`Param`.  The
result is a :class:`ResolvedParams` mapping whose :meth:`canonical
<ResolvedParams.canonical>` payload is what cache keys digest — so
equivalent spellings (``n="1e4"`` vs ``n=10000``, or an override equal
to the default) collapse to identical cache entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.utils.errors import InvalidParameterError

#: The two profiles every space carries, in display order.
BUILTIN_PROFILES = ("fast", "full")

#: Supported value kinds and their native Python types.
_KINDS = {"int": int, "float": float, "bool": bool, "str": str}

_BOOL_STRINGS = {
    "true": True,
    "1": True,
    "yes": True,
    "on": True,
    "false": False,
    "0": False,
    "no": False,
    "off": False,
}


@dataclass(frozen=True)
class Param:
    """One typed experiment knob.

    Attributes
    ----------
    name:
        The parameter name (a valid identifier; the ``--set`` key).
    kind:
        One of ``"int"``, ``"float"``, ``"bool"``, ``"str"``.
    default:
        The value the ``fast`` profile resolves to.
    minimum, maximum:
        Optional inclusive bounds for numeric kinds.
    choices:
        Optional allowed values (typically for ``str`` kinds).
    help:
        One-line description shown by ``repro params <id>``.
    """

    name: str
    kind: str
    default: object
    minimum: float | None = None
    maximum: float | None = None
    choices: tuple | None = None
    help: str = ""

    def __post_init__(self):
        if not self.name.isidentifier():
            raise InvalidParameterError(
                f"parameter name {self.name!r} must be an identifier"
            )
        if self.kind not in _KINDS:
            raise InvalidParameterError(
                f"parameter {self.name!r}: unknown kind {self.kind!r}; "
                f"expected one of {sorted(_KINDS)}"
            )
        if self.choices is not None:
            object.__setattr__(self, "choices", tuple(self.choices))
        # The default must itself satisfy the declaration.
        object.__setattr__(self, "default", self.coerce(self.default))

    def coerce(self, value):
        """``value`` as this parameter's native type, bounds-checked.

        Accepts native values and their string spellings (CLI ``--set``
        input): ``"1e4"`` coerces to the int ``10000``, ``"true"`` to
        ``True``.  Raises :class:`InvalidParameterError` with the
        parameter's schema on any mismatch.
        """
        try:
            value = self._convert(value)
        except (TypeError, ValueError, OverflowError) as error:
            raise InvalidParameterError(
                f"parameter {self.name!r} expects {self.describe_type()}, "
                f"got {value!r}"
            ) from error
        if self.choices is not None and value not in self.choices:
            raise InvalidParameterError(
                f"parameter {self.name!r} must be one of "
                f"{list(self.choices)}, got {value!r}"
            )
        if self.minimum is not None and value < self.minimum:
            raise InvalidParameterError(
                f"parameter {self.name!r} must be >= {self.minimum}, "
                f"got {value!r}"
            )
        if self.maximum is not None and value > self.maximum:
            raise InvalidParameterError(
                f"parameter {self.name!r} must be <= {self.maximum}, "
                f"got {value!r}"
            )
        return value

    def _convert(self, value):
        if self.kind == "bool":
            if isinstance(value, bool):
                return value
            if isinstance(value, str):
                lowered = value.strip().lower()
                if lowered in _BOOL_STRINGS:
                    return _BOOL_STRINGS[lowered]
            raise ValueError(f"not a boolean: {value!r}")
        if self.kind == "int":
            if isinstance(value, bool):
                raise ValueError("bool is not an int parameter value")
            if isinstance(value, int):
                return value
            if isinstance(value, str):
                # Exact decimal spellings first — never round through
                # float (matters beyond 2**53).
                try:
                    return int(value.strip())
                except ValueError:
                    pass
            # Accept float spellings ("1e4", 5e4, 100.0) when integral.
            number = float(value)
            if not math.isfinite(number) or number != int(number):
                raise ValueError(f"not an integer: {value!r}")
            return int(number)
        if self.kind == "float":
            if isinstance(value, bool):
                raise ValueError("bool is not a float parameter value")
            number = float(value)
            if not math.isfinite(number):
                raise ValueError(f"not a finite float: {value!r}")
            return number
        if not isinstance(value, str):
            raise ValueError(f"not a string: {value!r}")
        return value

    def describe_type(self) -> str:
        """Human-readable type/constraint summary (for error messages)."""
        parts = [self.kind]
        if self.choices is not None:
            parts.append("in {" + ", ".join(map(str, self.choices)) + "}")
        else:
            if self.minimum is not None:
                parts.append(f">= {self.minimum}")
            if self.maximum is not None:
                parts.append(f"<= {self.maximum}")
        return " ".join(parts)

    def to_dict(self) -> dict:
        """Plain-JSON form (:meth:`from_dict` round-trips it)."""
        payload = {"name": self.name, "kind": self.kind, "default": self.default}
        if self.minimum is not None:
            payload["minimum"] = self.minimum
        if self.maximum is not None:
            payload["maximum"] = self.maximum
        if self.choices is not None:
            payload["choices"] = list(self.choices)
        if self.help:
            payload["help"] = self.help
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "Param":
        """Rebuild a declaration from its :meth:`to_dict` form."""
        choices = payload.get("choices")
        return cls(
            name=payload["name"],
            kind=payload["kind"],
            default=payload["default"],
            minimum=payload.get("minimum"),
            maximum=payload.get("maximum"),
            choices=tuple(choices) if choices is not None else None,
            help=payload.get("help", ""),
        )


class ParamSpace:
    """An ordered, typed parameter schema with named profiles.

    Parameters
    ----------
    *params:
        The :class:`Param` declarations, in display order.
    profiles:
        Optional ``name -> {param: value}`` overrides.  ``"fast"`` and
        ``"full"`` always exist (defaulting to no overrides); additional
        named profiles are allowed.  Override values are validated at
        construction time.
    """

    def __init__(self, *params: Param, profiles: dict | None = None):
        self._params: dict[str, Param] = {}
        for param in params:
            if not isinstance(param, Param):
                raise InvalidParameterError(
                    f"ParamSpace entries must be Param instances, got {param!r}"
                )
            if param.name in self._params:
                raise InvalidParameterError(f"parameter {param.name!r} declared twice")
            self._params[param.name] = param
        self._profiles: dict[str, dict] = {name: {} for name in BUILTIN_PROFILES}
        for name, overrides in (profiles or {}).items():
            if not name.isidentifier():
                raise InvalidParameterError(
                    f"profile name {name!r} must be an identifier"
                )
            self._profiles[name] = {
                key: self._declared(key).coerce(value)
                for key, value in dict(overrides).items()
            }

    # -- introspection ------------------------------------------------

    @property
    def names(self) -> tuple[str, ...]:
        """Declared parameter names, in declaration order."""
        return tuple(self._params)

    @property
    def profiles(self) -> tuple[str, ...]:
        """Known profile names (built-ins first)."""
        extras = [p for p in self._profiles if p not in BUILTIN_PROFILES]
        return BUILTIN_PROFILES + tuple(sorted(extras))

    def __iter__(self):
        return iter(self._params.values())

    def __len__(self) -> int:
        return len(self._params)

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __getitem__(self, name: str) -> Param:
        return self._declared(name)

    def _declared(self, name: str) -> Param:
        if name not in self._params:
            known = ", ".join(self.names) or "(none)"
            raise InvalidParameterError(
                f"unknown parameter {name!r}; valid parameters: {known}"
            )
        return self._params[name]

    def profile_overrides(self, profile: str) -> dict:
        """The override dict of one named profile."""
        if profile not in self._profiles:
            known = ", ".join(self.profiles)
            raise InvalidParameterError(
                f"unknown profile {profile!r}; known profiles: {known}"
            )
        return dict(self._profiles[profile])

    # -- resolution ---------------------------------------------------

    def resolve(
        self, profile: str = "fast", overrides: dict | None = None
    ) -> "ResolvedParams":
        """Defaults -> profile overrides -> user overrides, all validated.

        Unknown override keys and out-of-domain values raise
        :class:`InvalidParameterError` naming the valid parameters.
        """
        values = {param.name: param.default for param in self}
        values.update(self.profile_overrides(profile))
        for key, value in dict(overrides or {}).items():
            values[key] = self._declared(key).coerce(value)
        return ResolvedParams(profile=profile, values=values, space=self)

    def coerce_value(self, name: str, value):
        """Coerce one ``name=value`` pair against the declaration."""
        return self._declared(name).coerce(value)

    # -- serialization ------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-JSON form (:meth:`from_dict` round-trips it)."""
        return {
            "params": [param.to_dict() for param in self],
            "profiles": {
                name: dict(overrides)
                for name, overrides in self._profiles.items()
            },
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ParamSpace":
        """Rebuild a space from its :meth:`to_dict` form."""
        params = [Param.from_dict(entry) for entry in payload["params"]]
        return cls(*params, profiles=payload.get("profiles"))

    def describe_table(self) -> tuple[list[str], list[list]]:
        """``(headers, rows)`` describing the schema for tabular display."""
        headers = [
            "param",
            "type",
            "default (fast)",
            "full",
            "constraints",
            "description",
        ]
        full = self.profile_overrides("full")
        rows = []
        for param in self:
            constraints = []
            if param.choices is not None:
                constraints.append("{" + ", ".join(map(str, param.choices)) + "}")
            if param.minimum is not None:
                constraints.append(f">= {param.minimum:g}")
            if param.maximum is not None:
                constraints.append(f"<= {param.maximum:g}")
            rows.append(
                [
                    param.name,
                    param.kind,
                    str(param.default),
                    str(full[param.name]) if param.name in full else "=",
                    " ".join(constraints) or "-",
                    param.help or "-",
                ]
            )
        return headers, rows


@dataclass(frozen=True)
class ResolvedParams:
    """A fully resolved, validated parameter assignment.

    Mapping-like: ``params["n"]``, ``params.get("eps", 0.1)``, and
    iteration over names all work.  :meth:`canonical` is the cache-key
    payload — coerced values under sorted names plus the profile, so any
    two spellings that resolve identically share one canonical form.
    """

    profile: str
    values: dict = field(default_factory=dict)
    space: ParamSpace | None = None

    def __getitem__(self, name: str):
        if name not in self.values:
            known = ", ".join(self.values) or "(none)"
            raise InvalidParameterError(
                f"unknown parameter {name!r}; valid parameters: {known}"
            )
        return self.values[name]

    def get(self, name: str, default=None):
        """``values.get`` passthrough."""
        return self.values.get(name, default)

    def __contains__(self, name: str) -> bool:
        return name in self.values

    def __iter__(self):
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def as_dict(self) -> dict:
        """A plain copy of the resolved ``name -> value`` mapping."""
        return dict(self.values)

    def canonical(self) -> dict:
        """The canonical JSON payload digested by cache keys."""
        return {
            "profile": self.profile,
            "values": {name: self.values[name] for name in sorted(self.values)},
        }

    def summary(self) -> str:
        """Compact ``name=value,...`` rendering (tables, labels)."""
        return ",".join(f"{name}={value}" for name, value in self.values.items())
