"""Exception types, and the one check of each count, time, lifetime, positive, rate or
probability rule.

A time, lifetime or positive number is used in float arithmetic, so an int
past the float range breaks its rule: a ValidationError, never an
OverflowError.
"""

import math
from numbers import Integral

import numpy as np


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


def _as_float(x, rule):
    """x as a float; an int past the float range breaks `rule` instead of raising OverflowError."""
    try:
        return float(x)
    except OverflowError:
        raise ValidationError(f"{rule}, got an integer past the float range") from None


def check_time(t):
    """Raise unless t is a finite time t >= 0."""
    rule = "time must be finite and non-negative"
    if not (math.isfinite(_as_float(t, rule)) and t >= 0.0):
        raise ValidationError(f"{rule}, got {t}")


def check_lifetime(name, tau):
    """Raise unless the lifetime tau > 0; inf switches its loss channel off."""
    rule = f"{name} must be positive"
    if not _as_float(tau, rule) > 0.0:
        raise ValidationError(f"{rule}, got {tau}")


def check_rates(rates):
    """Raise unless every entry of the float array `rates` is >= 0; inf is a rate, nan is not."""
    bad = np.flatnonzero(~(rates >= 0.0))
    if bad.size:
        raise ValidationError(f"rates must be non-negative, got {rates[bad[0]]} at index {bad[0]}")


def check_positive(name, x):
    """Raise unless x is finite and x > 0."""
    rule = f"{name} must be finite and positive"
    if not (math.isfinite(_as_float(x, rule)) and x > 0.0):
        raise ValidationError(f"{rule}, got {x}")


def check_probability(name, p):
    """Raise unless p lies in [0, 1]."""
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"{name} must lie in [0, 1], got {p}")


def check_positive_probability(name, p):
    """Raise unless p lies in (0, 1]."""
    if not 0.0 < p <= 1.0:
        raise ValidationError(f"{name} must lie in (0, 1], got {p}")
