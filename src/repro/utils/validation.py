"""Parameter validation helpers.

Each check raises :class:`repro.utils.errors.InvalidParameterError` (or
:class:`InvalidDistributionError`) with a message naming the offending
parameter, so failures surface at the API boundary instead of deep inside a
simulation loop.
"""

from __future__ import annotations

import math

import numpy as np

from repro.utils.errors import InvalidDistributionError, InvalidParameterError


def check_positive(name: str, value: float) -> float:
    """Require ``value > 0``; return it."""
    if not value > 0:
        raise InvalidParameterError(f"{name} must be positive, got {value!r}")
    return value


def check_positive_int(name: str, value: int, minimum: int = 1) -> int:
    """Require ``value`` to be an integer ``>= minimum``; return it as ``int``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise InvalidParameterError(f"{name} must be >= {minimum}, got {value!r}")
    return int(value)


def check_int_array(name: str, values) -> np.ndarray:
    """Require a 1-D array of integers; return it as ``int64``.

    Integer dtypes pass (an ``int64`` array is returned as is, not
    copied); floats pass only when every entry is integral.  Bools, NaN,
    non-integral values and other shapes are refused instead of being
    truncated by a cast.
    """
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise InvalidParameterError(
            f"{name} must be a 1-D array, got shape {arr.shape}")
    if arr.dtype.kind in "iu":
        return arr.astype(np.int64, copy=False)
    if arr.dtype.kind != "f":
        raise InvalidParameterError(
            f"{name} must hold integers, got dtype {arr.dtype}")
    bad = ~np.isfinite(arr) | (arr != np.rint(arr))
    if bad.any():
        raise InvalidParameterError(
            f"{name} must hold integers, got {arr[bad][0]}")
    return arr.astype(np.int64)


def check_probability(name: str, value: float) -> float:
    """Require ``value`` in the closed interval [0, 1]; return it as ``float``."""
    try:
        value = float(value)
    except (TypeError, ValueError) as exc:
        raise InvalidParameterError(f"{name} must be a number in [0, 1], got {value!r}") from exc
    if math.isnan(value) or not 0.0 <= value <= 1.0:
        raise InvalidParameterError(f"{name} must lie in [0, 1], got {value!r}")
    return value


def check_fraction(name: str, value: float) -> float:
    """Alias of :func:`check_probability` for population fractions."""
    return check_probability(name, value)


def check_in_range(name: str, value: float, low: float, high: float,
                   inclusive: bool = True) -> float:
    """Require ``low <= value <= high`` (or strict if ``inclusive=False``)."""
    value = float(value)
    if inclusive:
        ok = low <= value <= high
        bounds = f"[{low}, {high}]"
    else:
        ok = low < value < high
        bounds = f"({low}, {high})"
    if math.isnan(value) or not ok:
        raise InvalidParameterError(f"{name} must lie in {bounds}, got {value!r}")
    return value


def check_probability_vector(name: str, vector, atol: float = 1e-9) -> np.ndarray:
    """Require ``vector`` to be a probability distribution; return it as an array.

    Checks non-negativity and that the entries sum to 1 within ``atol``.
    """
    arr = np.asarray(vector, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise InvalidDistributionError(f"{name} must be a non-empty 1-D vector, got shape {arr.shape}")
    if np.any(np.isnan(arr)) or np.any(arr < -atol):
        raise InvalidDistributionError(f"{name} must be non-negative, got {arr!r}")
    total = float(arr.sum())
    if abs(total - 1.0) > max(atol, 1e-12 * arr.size):
        raise InvalidDistributionError(f"{name} must sum to 1, got sum={total!r}")
    return np.clip(arr, 0.0, None)
