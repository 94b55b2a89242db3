"""Exception types, and the one check of each count, time, lifetime, positive, rate or
probability rule.

`in_range` is the one OverflowError handler: a number past the float range (or
int64, in a count array) breaks the rule of its block, a ValidationError.  The
float checks, `as_array`, `lossmodel`'s formulas and the angles of
`interferometer` run under it.
"""

import math
from contextlib import AbstractContextManager
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


class in_range(AbstractContextManager):
    """Block whose OverflowError breaks the rule `what`; cheaper to enter than a generator."""

    def __init__(self, what):
        self.what = what

    def __exit__(self, kind, exc, traceback):
        if kind is not None and issubclass(kind, OverflowError):
            raise ValidationError(f"{self.what}, got a number out of range") from None


def as_array(a, dtype, name):
    """`np.asarray(a, dtype)`; an entry past the range of `dtype` is a ValidationError."""
    with in_range(f"every entry of {name} must fit {np.dtype(dtype).name}"):
        return np.asarray(a, dtype=dtype)


def check_time(t):
    """Raise unless t is a finite time t >= 0."""
    rule = "time must be finite and non-negative"
    with in_range(rule):
        if not (math.isfinite(float(t)) and t >= 0.0):
            raise ValidationError(f"{rule}, got {t}")


def check_lifetime(name, tau):
    """Raise unless the lifetime tau > 0; inf switches its loss channel off."""
    rule = f"{name} must be positive"
    with in_range(rule):
        if not float(tau) > 0.0:
            raise ValidationError(f"{rule}, got {tau}")


def check_rates(rates):
    """Raise unless every entry of the float array `rates` is >= 0; inf is a rate, nan is not."""
    bad = np.flatnonzero(~(rates >= 0.0))
    if bad.size:
        raise ValidationError(f"rates must be non-negative, got {rates[bad[0]]} at index {bad[0]}")


def check_positive(name, x):
    """Raise unless x is finite and x > 0."""
    rule = f"{name} must be finite and positive"
    with in_range(rule):
        if not (math.isfinite(float(x)) and x > 0.0):
            raise ValidationError(f"{rule}, got {x}")


def check_probability(name, p):
    """Raise unless p lies in [0, 1]."""
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"{name} must lie in [0, 1], got {p}")


def check_positive_probability(name, p):
    """Raise unless p lies in (0, 1]."""
    if not 0.0 < p <= 1.0:
        raise ValidationError(f"{name} must lie in (0, 1], got {p}")
