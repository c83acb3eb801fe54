"""Exception types shared across the package."""

__all__ = ["DomainError", "ParameterError", "BracketError"]


class DomainError(ValueError):
    """An input value lies outside the domain of the operation."""


class ParameterError(ValueError):
    """A threshold or configuration parameter is outside its valid range."""


class BracketError(RuntimeError):
    """A root-finding bracket does not contain a sign change."""
