"""Exception types shared across the package, and the check for integer counts."""

import operator

__all__ = ["DomainError", "ParameterError", "BracketError"]


class DomainError(ValueError):
    """An input value lies outside the domain of the operation."""


class ParameterError(ValueError):
    """A threshold or configuration parameter is outside its valid range."""


class BracketError(RuntimeError):
    """A root-finding bracket does not contain a sign change."""


def _require_integer(name: str, value, least: int) -> int:
    """A count or index as an ``int``; reject one that is not an ``int`` or
    numpy integer, or is below ``least``."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ParameterError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise ParameterError(f"{name} must be >= {least}, got {value}")
    return value
