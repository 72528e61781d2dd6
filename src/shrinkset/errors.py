"""Exception types shared across the library, and require_finite, the one
check of every scalar input: radius, depth, step, budget and tolerance."""

import math


class ShrinksetError(Exception):
    """Base class for all library errors."""


class EmptySetError(ShrinksetError):
    """Operation requires a nonempty set."""


class NonpositiveAreaError(ShrinksetError):
    """Requested area must be strictly positive."""


class AreaExceedsDomainError(ShrinksetError):
    """Requested area exceeds the area of the containing set."""


class OutOfRegimeError(ShrinksetError):
    """Parameter falls outside the regime where the operation is defined."""


class OutOfRangeError(ShrinksetError):
    """Query time lies outside the simulated range."""


class BadConfigError(ShrinksetError, ValueError):
    """A refused input: a scalar outside its range (see require_finite),
    non-convex vertices or a bad configuration; also a ValueError."""


class NotCriticalError(ShrinksetError):
    """Trajectory is not near the critical budget."""


class DegenerateDomainError(ShrinksetError):
    """Domain is too degenerate for the requested computation."""


def require_finite(name: str, value: float, low: float = -math.inf, strict: bool = False) -> None:
    """Raise BadConfigError, naming the parameter, unless value is finite
    and at least low (above low if strict)."""
    if not ((value > low if strict else value >= low) and math.isfinite(value)):
        if low == -math.inf:
            rule = "finite"
        elif low == 0.0:
            rule = "finite and " + ("positive" if strict else "nonnegative")
        else:
            rule = f"finite and {'above' if strict else 'at least'} {low}"
        raise BadConfigError(f"{name} must be {rule}, got {value}")
