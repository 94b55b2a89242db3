"""Exception types, and the one check of each count, time, lifetime, positive or probability rule."""

import math
from numbers import Integral


class ValidationError(ValueError):
    """Raised when inputs violate a documented precondition."""


class SizeCapError(RuntimeError):
    """Raised when a requested computation exceeds a configured size cap."""


class DegenerateSampleError(ValidationError):
    """Raised when post-selection leaves no usable Monte Carlo trials."""


def check_count(name, n, minimum):
    """Raise unless n is an integer count n >= minimum; a bool is not a count."""
    if not (isinstance(n, Integral) and not isinstance(n, bool) and n >= minimum):
        raise ValidationError(f"{name} must be an integer >= {minimum}, got {n!r}")


def check_time(t):
    """Raise unless t is a finite time t >= 0."""
    if not (math.isfinite(t) and t >= 0.0):
        raise ValidationError(f"time must be finite and non-negative, got {t}")


def check_lifetime(name, tau):
    """Raise unless the lifetime tau > 0; inf switches its loss channel off."""
    if not tau > 0.0:
        raise ValidationError(f"{name} must be positive, got {tau}")


def check_positive(name, x):
    """Raise unless x is finite and x > 0."""
    if not (math.isfinite(x) and x > 0.0):
        raise ValidationError(f"{name} must be finite and positive, got {x}")


def check_probability(name, p):
    """Raise unless p lies in [0, 1]."""
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"{name} must lie in [0, 1], got {p}")


def check_positive_probability(name, p):
    """Raise unless p lies in (0, 1]."""
    if not 0.0 < p <= 1.0:
        raise ValidationError(f"{name} must lie in (0, 1], got {p}")
