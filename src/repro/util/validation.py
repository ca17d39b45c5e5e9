"""Small argument-validation helpers used across the public API."""

from __future__ import annotations

import math
from typing import Any

__all__ = ["check_positive", "check_probability", "check_in_range", "require",
           "is_int", "is_finite_real"]


def is_int(x: Any) -> bool:
    """A true integer: ``bool`` (an ``int`` subclass) and floats are not."""
    return isinstance(x, int) and not isinstance(x, bool)


def is_finite_real(x: Any) -> bool:
    """A number (not ``bool``) that is a finite float64: not NaN, not
    infinite, not an int past the float range."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


_NO_VALUE = object()


def require(condition: bool, message: str, got: Any = _NO_VALUE) -> None:
    """Raise :class:`ValueError` with ``message`` when ``condition`` is
    false; a ``got`` value is appended as ``", got <got!r>"``."""
    if not condition:
        if got is not _NO_VALUE:
            message = f"{message}, got {got!r}"
        raise ValueError(message)


def check_positive(name: str, value: float, strict: bool = True) -> float:
    """Validate that ``value`` is positive (or non-negative when not strict)."""
    if strict and not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    if not strict and not value >= 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def check_probability(name: str, value: float) -> float:
    """Validate that ``value`` lies in the closed interval [0, 1]."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    return value


def check_in_range(name: str, value: Any, lo: Any, hi: Any) -> Any:
    """Validate ``lo <= value <= hi``."""
    if not (lo <= value <= hi):
        raise ValueError(f"{name} must be in [{lo}, {hi}], got {value!r}")
    return value
