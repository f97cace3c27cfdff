"""Exception hierarchy shared across the package, and the level bound."""

import os


class CellularTowersError(Exception):
    """Base class for all package errors."""


class CoefficientRingError(CellularTowersError):
    """Structural misuse of the coefficient rings (mismatched indeterminates, ...)."""


class SpecializationError(CellularTowersError):
    """A substitution produced a zero denominator / hit a pole."""


class DomainError(CellularTowersError):
    """Arguments outside an operation's domain (invalid edge, bad Garnir node, ...)."""


class BoundExceededError(CellularTowersError):
    """Requested level exceeds the configured bound for the algebra."""


class InternalInvariantError(CellularTowersError):
    """A 'cannot happen' condition; indicates a bug, not a caller error."""


def max_level(default):
    """The level bound: CELLULAR_TOWERS_MAX_LEVEL if set, else `default`."""
    env = os.environ.get("CELLULAR_TOWERS_MAX_LEVEL")
    if env is None:
        return default
    try:
        return int(env)
    except ValueError:
        raise BoundExceededError(
            f"CELLULAR_TOWERS_MAX_LEVEL must be an integer, got {env!r}"
        ) from None
