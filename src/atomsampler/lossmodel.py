"""Closed-form loss and sampling-rate models for the atom machine.

Survival is governed by two mechanisms: background-gas collisions eject
single atoms at rate 1/tau_bg each, and two-body collisions empty doubly
occupied lattice sites with pair lifetime tau_tb (a trio decays three times
faster).  Under the uniform-mixture assumption the probability that exactly
k2 sites hold pairs and k3 sites hold trios is

    P(k2, k3) = 4^k3 C(S, k3) 3^k2 C(S - k3, k2) 2^(N - 2 k2 - 3 k3)
                C(S - k2 - k3, N - 2 k2 - 3 k3) / C(M + N - 1, N)

with S = M / 2 sites, as an exact `Fraction`; for large N at fixed
c = M / N^2 it tends to a Poisson law with mean 3 / (2 c).  Occupancies
above three are dropped; the neglected probability mass is available via
`excluded_occupancy_mass`.

Sampling rates: the lossless machine draws collision-free events at
(1/e) / (c N^2 t_step + t_init + t_det); preparation and detection
inefficiencies contribute (eta_init eta_det)^N and the survival factor
multiplies on top.  Photonic and classical-computer competitor rates follow
the same conventions so the curves can be compared directly.  Of all
scenario values only the lifetimes tau_bg and tau_tb may be infinite.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

from .errors import ValidationError
from .fock import site_count

#: Largest N evaluated with the finite-size pair/trio sum before switching
#: to the large-N closed form.
FINITE_MODEL_LIMIT = 40


def uses_closed_form(n, model):
    """Whether `model` ("auto", "finite" or "closed") evaluates N atoms in closed form.

    "auto" keeps the finite-size sum up to `FINITE_MODEL_LIMIT` atoms; any
    other model name is a ValidationError.
    """
    if model not in ("auto", "finite", "closed"):
        raise ValidationError(f"unknown model {model!r}")
    return model == "closed" or (model == "auto" and n > FINITE_MODEL_LIMIT)


def check_time(t):
    """Raise unless t is a finite time t >= 0."""
    if not (math.isfinite(t) and t >= 0.0):
        raise ValidationError(f"time must be finite and non-negative, got {t}")


def check_lifetime(name, tau):
    """Raise unless the lifetime tau > 0; inf switches its loss channel off."""
    if not tau > 0.0:
        raise ValidationError(f"{name} must be positive, got {tau}")


def _require_finite_positive(name, value):
    if not (math.isfinite(value) and value > 0.0):
        raise ValidationError(f"{name} must be finite and positive, got {value}")


def _require_probability(name, value):
    if not 0.0 < value <= 1.0:
        raise ValidationError(f"{name} must lie in (0, 1], got {value}")


@dataclass(frozen=True)
class LossScenario:
    """Physical parameter bundle for the atom sampler rate model."""

    t_step: float
    tau_bg: float
    tau_tb: float
    t_init: float
    t_det: float
    eta_init: float
    eta_det: float
    mode_ratio_c: float = 1.0

    def __post_init__(self):
        for name in ("tau_bg", "tau_tb"):
            check_lifetime(name, getattr(self, name))
        for name in ("t_step", "t_init", "t_det", "mode_ratio_c"):
            _require_finite_positive(name, getattr(self, name))
        for name in ("eta_init", "eta_det"):
            _require_probability(name, getattr(self, name))


@dataclass(frozen=True)
class PhotonicScenario:
    """Source rate and efficiencies of a photonic competitor."""

    r0: float
    eta_f: float
    eta_c: float

    def __post_init__(self):
        _require_finite_positive("r0", self.r0)
        _require_probability("eta_f", self.eta_f)
        _require_probability("eta_c", self.eta_c)


@dataclass(frozen=True)
class ClassicalScenario:
    """Per-operation time of a classical sampling computer."""

    a_tilde: float

    def __post_init__(self):
        _require_finite_positive("a_tilde", self.a_tilde)
        # the rate falls with N, so a finite N = 1 rate bounds every other
        if not math.isfinite(r_classical(self, 1)):
            raise ValidationError(f"a_tilde = {self.a_tilde} overflows the classical rate at N = 1")


def even_mode_count(n, c):
    """Even mode count nearest to c * n^2, for site-paired combinatorics; at least one site."""
    if not math.isfinite(c * n * n):
        raise ValidationError(f"mode count c N^2 overflows at c = {c}, N = {n}")
    return max(2, 2 * round(c * n * n / 2.0))


def p_pairs_trios(n, m, k2, k3):
    """Exact probability (a `Fraction`) of exactly k2 pair sites and k3 trio sites.

    Evaluated under the uniform bosonic mixture over M modes (M/2 sites)
    with integer combinatorics; unsatisfiable configurations get zero.
    """
    sites = site_count(m)
    if k2 < 0 or k3 < 0:
        raise ValidationError(f"negative occupancy counts k2={k2}, k3={k3}")
    singles = n - 2 * k2 - 3 * k3
    free_sites = sites - k2 - k3
    if singles < 0 or free_sites < 0 or singles > free_sites:
        return Fraction(0)
    numerator = (
        4**k3
        * comb(sites, k3)
        * 3**k2
        * comb(sites - k3, k2)
        * 2**singles
        * comb(free_sites, singles)
    )
    return Fraction(numerator, comb(m + n - 1, n))


@lru_cache(maxsize=256)
def _occupancy_sector(n, m):
    """All (k2, k3, probability) terms with site occupancy capped at three.

    Kept per (n, m): a rate curve asks for the same sector from `r_nisq`,
    `crossover` and `excluded_occupancy_mass`.
    """
    return tuple(
        (k2, k3, p)
        for k3 in range(n // 3 + 1)
        for k2 in range((n - 3 * k3) // 2 + 1)
        if (p := p_pairs_trios(n, m, k2, k3))
    )


def truncated_sector_mass(n, m):
    """Exact probability (a `Fraction`) that no site holds four or more atoms."""
    return sum((p for _, _, p in _occupancy_sector(n, m)), Fraction(0))


def excluded_occupancy_mass(n, m):
    """Probability mass dropped by ignoring quartet and higher occupancies."""
    return float(1 - truncated_sector_mass(n, m))


def _check_mode_ratio(c):
    if not c > 0.0:
        raise ValidationError(f"mode ratio c must be positive, got {c}")


def poisson_pair_limit(c, k2):
    """Large-N limit of the pair-count distribution: Poisson, mean 3/(2c)."""
    _check_mode_ratio(c)
    lam = 3.0 / (2.0 * c)
    return lam**k2 * math.exp(-lam) / math.factorial(k2)


def p_step_twobody_closed(c, t, tau_tb):
    """Large-N per-step two-body survival exp[(3/(2c)) (exp(-t/tau) - 1)], for c > 0."""
    check_time(t)
    check_lifetime("tau_tb", tau_tb)
    _check_mode_ratio(c)
    return math.exp(1.5 / c * math.expm1(-t / tau_tb))


def p_step_twobody(n, m, t, tau_tb):
    """Per-step survival against two-body loss, from the finite-size sector sum.

    Each (k2, k3) sector is weighted by exp(-(k2 + 3 k3) t / tau_tb) and
    the sum renormalized by the mass of the included sectors, so it equals
    one at t = 0; the large-N form is `p_step_twobody_closed`.
    """
    check_time(t)
    check_lifetime("tau_tb", tau_tb)
    terms = _occupancy_sector(n, m)
    if not terms:
        raise ValidationError(f"every placement of {n} atoms in {m} modes puts four on a site")
    # sum the same float weights for mass and decay so t = 0 gives exactly 1
    weights = [float(p) for _, _, p in terms]
    decayed = sum(
        w * math.exp(-(k2 + 3.0 * k3) * t / tau_tb)
        for (k2, k3, _), w in zip(terms, weights)
    )
    return decayed / sum(weights)


def p_step_background(n, t, tau_bg):
    """Probability that no background-gas collision hits any of N atoms."""
    check_time(t)
    check_lifetime("tau_bg", tau_bg)
    return math.exp(-n * t / tau_bg)


def circuit_steps(scenario, n):
    """Number of circuit steps c * N^2 (kept exact, not rounded)."""
    return scenario.mode_ratio_c * n * n


def p_survival(scenario, n, model):
    """Probability that all N atoms survive the full circuit execution.

    (P_bg P_tb)^(c N^2); the two-body factor uses the finite-size sum on an
    even mode count near c N^2, or the closed form for large N.
    """
    if n < 1:
        raise ValidationError(f"need n >= 1, got {n}")
    t = scenario.t_step
    c = scenario.mode_ratio_c
    if uses_closed_form(n, model):
        # single exponential keeps the (P_bg P_tb)^(c N^2) identity exact
        return math.exp(
            -c * n**3 * t / scenario.tau_bg
            + 1.5 * n * n * math.expm1(-t / scenario.tau_tb)
        )
    p_bg = p_step_background(n, t, scenario.tau_bg)
    m = even_mode_count(n, c)
    p_tb = p_step_twobody(n, m, t, scenario.tau_tb)
    return (p_bg * p_tb) ** circuit_steps(scenario, n)


def n_threshold(scenario):
    """Atom number below which two-body loss dominates: 3 tau_bg / (2 tau_tb)."""
    return 1.5 * scenario.tau_bg / scenario.tau_tb


def r_ideal(scenario, n):
    """Collision-free sampling rate of the lossless machine, in Hz."""
    if n < 1:
        raise ValidationError(f"need n >= 1, got {n}")
    t_exec = circuit_steps(scenario, n) * scenario.t_step
    return (1.0 / math.e) / (t_exec + scenario.t_init + scenario.t_det)


def r_nisq(scenario, n, model="auto"):
    """Sampling rate with preparation, loss, and detection penalties, in Hz."""
    eta = (scenario.eta_init * scenario.eta_det) ** n
    return eta * p_survival(scenario, n, model=model) * r_ideal(scenario, n)


def r_photonic(photonic, n, depth=None):
    """Sampling rate of a photonic machine, in Hz.

    Per-photon success is eta_f times the circuit transmission eta_c^depth;
    the depth defaults to the square-circuit value N^2.
    """
    if n < 1:
        raise ValidationError(f"need n >= 1, got {n}")
    if depth is None:
        depth = n * n
    eta = photonic.eta_f * photonic.eta_c**depth
    return (1.0 / math.e) * (photonic.r0 / n) * eta**n


def r_classical(classical, n):
    """Rate of Metropolised-independence sampling on a classical machine."""
    if n < 1:
        raise ValidationError(f"need n >= 1, got {n}")
    return 2.0 ** (-n) / (100.0 * classical.a_tilde * n * n)


def crossover(scenario, classical, n_range=(2, 200), model="auto"):
    """Smallest N where the atom machine outpaces the classical sampler.

    Returns None when no crossover occurs inside `n_range` (inclusive); an
    empty range is a ValidationError.
    """
    lo, hi = n_range
    if hi < lo:
        raise ValidationError(f"empty atom-number range: n_min={lo} > n_max={hi}")
    for n in range(lo, hi + 1):
        if r_nisq(scenario, n, model=model) > r_classical(classical, n):
            return n
    return None
