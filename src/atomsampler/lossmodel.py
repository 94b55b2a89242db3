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

The survival model has two values, each one code path for every N:
"finite" (the default) sums the sectors above on an even mode count near
c N^2, for N up to `FINITE_MODEL_CAP` atoms, and "closed" is the paper's
large-N form, with no cap.

Sampling rates: the lossless machine draws collision-free events at
(1/e) / (c N^2 t_step + t_init + t_det); preparation and detection
inefficiencies contribute (eta_init eta_det)^N and the survival factor
multiplies on top.  Photonic and classical-computer competitor rates follow
the same conventions so the curves can be compared directly.  Every count,
time, lifetime, rate and efficiency goes through its check in `errors`; of
all scenario values only the lifetimes tau_bg and tau_tb may be infinite.
A count has no upper bound; the float formulas run under `errors.in_range`,
so a count they cannot hold is a ValidationError.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

from .errors import (SizeCapError, ValidationError, check_count, check_lifetime, check_positive,
                     check_positive_probability, check_time, in_range)
from .fock import multiset_dimension, site_count

#: Largest N the finite-size sector sum evaluates.  Its cost grows steeply
#: with N (about 0.1 s for one sector at N = 300); the closed form has no cap.
FINITE_MODEL_CAP = 200


def _c_n_squared(c, n):
    """c N^2 as a finite float: the circuit's step count, and its mode count before rounding."""
    with in_range("N must fit float arithmetic"):
        value = c * n * n
    if not math.isfinite(value):
        raise ValidationError(f"c N^2 overflows at c = {c}, N = {n:.6g}")
    return value


def check_finite_cap(n):
    """Refuse finite-size sector sums above `FINITE_MODEL_CAP` atoms; callers ask before a loop."""
    if n > FINITE_MODEL_CAP:
        raise SizeCapError(
            f"the finite-size survival sum is capped at N <= {FINITE_MODEL_CAP}, got N = {n};"
            " the closed form (--model closed) has no cap"
        )


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
            check_positive(name, getattr(self, name))
        for name in ("eta_init", "eta_det"):
            check_positive_probability(name, getattr(self, name))


@dataclass(frozen=True)
class PhotonicScenario:
    """Source rate and efficiencies of a photonic competitor."""

    r0: float
    eta_f: float
    eta_c: float

    def __post_init__(self):
        check_positive("r0", self.r0)
        check_positive_probability("eta_f", self.eta_f)
        check_positive_probability("eta_c", self.eta_c)


@dataclass(frozen=True)
class ClassicalScenario:
    """Per-operation time of a classical sampling computer."""

    a_tilde: float

    def __post_init__(self):
        check_positive("a_tilde", self.a_tilde)
        # the rate falls with N, so a finite N = 1 rate bounds every other
        if not math.isfinite(r_classical(self, 1)):
            raise ValidationError(f"a_tilde = {self.a_tilde} overflows the classical rate at N = 1")


def even_mode_count(n, c):
    """Even mode count nearest to c * n^2, for site-paired combinatorics; at least one site."""
    check_count("n", n, 0)
    check_positive("mode ratio c", c)
    return max(2, 2 * round(_c_n_squared(c, n) / 2.0))


def p_pairs_trios(n, m, k2, k3):
    """Exact probability (a `Fraction`) of exactly k2 pair sites and k3 trio sites.

    Evaluated under the uniform bosonic mixture over M modes (M/2 sites)
    with integer combinatorics; unsatisfiable configurations get zero.
    """
    check_count("n", n, 0)
    check_count("m", m, 2)
    sites = site_count(m)
    check_count("k2", k2, 0)
    check_count("k3", k3, 0)
    return Fraction(_sector_count(n, sites, k2, k3), multiset_dimension(n, m))


def _sector_count(n, sites, k2, k3):
    """Placements of N atoms on `sites` sites with exactly k2 pairs and k3 trios, the rest single."""
    singles = n - 2 * k2 - 3 * k3
    free_sites = sites - k2 - k3
    if singles < 0 or free_sites < 0 or singles > free_sites:
        return 0
    return (
        4**k3
        * comb(sites, k3)
        * 3**k2
        * comb(sites - k3, k2)
        * 2**singles
        * comb(free_sites, singles)
    )


# typed, so that n = 2.0 misses the entry of n = 2 and meets the count check
@lru_cache(maxsize=256, typed=True)
def _occupancy_sector(n, m):
    """Float weights of the (k2, k3) sectors with site occupancy capped at three, and their count.

    Returns ((k2, k3, weight), ...) in `p_pairs_trios` order (k3 outer, k2
    inner, zero sectors left out) and the exact number of placements they
    hold.  Each weight is its integer placement count over the one shared
    denominator C(M + N - 1, N), so it equals `float(p_pairs_trios(...))`
    bit for bit (int true division rounds correctly).  Within one k3 the
    counts follow from the largest k2 down by exact integer steps: a pair
    fewer is two more singles on one more site.  Kept for 256 (n, m), unlike
    the one-geometry fiber cache of `exactsim`: a rate curve asks for
    the same sector from `r_nisq`, `crossover` and `excluded_occupancy_mass`,
    and the default `rates` run finds 92 of its 151 lookups kept.
    """
    check_count("n", n, 0)
    check_count("m", m, 2)
    check_finite_cap(n)
    sites = site_count(m)
    dim = multiset_dimension(n, m)
    terms, total = [], 0
    for k3 in range(n // 3 + 1):
        k2 = (n - 3 * k3) // 2
        singles = n - 3 * k3 - 2 * k2
        occupied = k2 + k3 + singles
        if occupied > sites:
            continue
        count = _sector_count(n, sites, k2, k3)
        row = [(k2, count)]
        while k2 and occupied < sites:
            count = count * 4 * k2 * (sites - occupied) // (3 * (singles + 2) * (singles + 1))
            k2, singles, occupied = k2 - 1, singles + 2, occupied + 1
            row.append((k2, count))
        terms += [(k2, k3, count / dim) for k2, count in reversed(row)]
        total += sum(count for _, count in row)
    return tuple(terms), total


def truncated_sector_mass(n, m):
    """Exact probability (a `Fraction`) that no site holds four or more atoms."""
    return Fraction(_occupancy_sector(n, m)[1], multiset_dimension(n, m))


def excluded_occupancy_mass(n, m):
    """Probability mass dropped by ignoring quartet and higher occupancies."""
    return float(1 - truncated_sector_mass(n, m))


def poisson_pair_limit(c, k2):
    """Large-N limit of the pair-count distribution: Poisson, mean 3/(2c)."""
    check_positive("mode ratio c", c)
    check_count("k2", k2, 0)
    lam = 3.0 / (2.0 * c)
    # in logs: lam^k2 and k2! leave the float range long before their ratio does;
    # log 1.5 - log c stays finite where lam overflows
    with in_range("k2 must fit float arithmetic"):
        return math.exp(k2 * (math.log(1.5) - math.log(c)) - lam - math.lgamma(k2 + 1))


def p_step_twobody_closed(c, t, tau_tb):
    """Large-N per-step two-body survival exp[(3/(2c)) (exp(-t/tau) - 1)], for c > 0."""
    check_time(t)
    check_lifetime("tau_tb", tau_tb)
    check_positive("mode ratio c", c)
    decay = math.expm1(-t / tau_tb)
    # decay / c first: a decay as small as c stays finite, where 1.5 / c could overflow
    return math.exp(1.5 * (decay / c))


def p_step_twobody(n, m, t, tau_tb):
    """Per-step survival against two-body loss, from the finite-size sector sum.

    Each (k2, k3) sector is weighted by exp(-(k2 + 3 k3) t / tau_tb) and
    the sum renormalized by the mass of the included sectors, so it equals
    one at t = 0; the large-N form is `p_step_twobody_closed`.
    """
    check_time(t)
    check_lifetime("tau_tb", tau_tb)
    terms, _ = _occupancy_sector(n, m)
    if not terms:
        raise ValidationError(f"every placement of {n} atoms in {m} modes puts four on a site")
    # a channel that is off keeps every atom, even where k t overflows and inf / inf is nan
    if tau_tb == math.inf:
        return 1.0
    # sum the same float weights for mass and decay so t = 0 gives exactly 1
    decayed = sum(w * math.exp(-(k2 + 3.0 * k3) * t / tau_tb) for k2, k3, w in terms)
    return decayed / sum(w for _, _, w in terms)


def p_step_background(n, t, tau_bg):
    """Probability that no background-gas collision hits any of N atoms."""
    check_count("n", n, 0)
    check_time(t)
    check_lifetime("tau_bg", tau_bg)
    # a channel that is off keeps every atom, even where n t overflows and inf / inf is nan
    if tau_bg == math.inf:
        return 1.0
    with in_range("n must fit float arithmetic"):
        return math.exp(-n * t / tau_bg)


def circuit_steps(scenario, n):
    """Number of circuit steps c * N^2 (kept exact, not rounded)."""
    check_count("n", n, 1)
    return _c_n_squared(scenario.mode_ratio_c, n)


def p_survival(scenario, n, model):
    """Probability that all N atoms survive the full circuit execution.

    (P_bg P_tb)^(c N^2); under model "finite" the two-body factor is the
    finite-size sum on an even mode count near c N^2, under "closed" the
    large-N form.
    """
    check_count("n", n, 1)
    t = scenario.t_step
    c = scenario.mode_ratio_c
    if model == "finite":
        p_bg = p_step_background(n, t, scenario.tau_bg)
        m = even_mode_count(n, c)
        p_tb = p_step_twobody(n, m, t, scenario.tau_tb)
        return (p_bg * p_tb) ** circuit_steps(scenario, n)
    if model == "closed":
        # single exponential keeps the (P_bg P_tb)^(c N^2) identity exact; a
        # channel without decay adds 0, where inf / inf or inf * 0 would be nan
        decay = math.expm1(-t / scenario.tau_tb)
        with in_range("N^3 must fit float arithmetic"):
            background = 0.0 if scenario.tau_bg == math.inf else c * n**3 * t / scenario.tau_bg
            two_body = 0.0 if decay == 0.0 else 1.5 * n * n * decay
            return math.exp(-background + two_body)
    raise ValidationError(f"unknown model {model!r}")


def n_threshold(scenario):
    """Atom number below which two-body loss dominates: 3 tau_bg / (2 tau_tb)."""
    return 1.5 * scenario.tau_bg / scenario.tau_tb


def r_ideal(scenario, n):
    """Collision-free sampling rate of the lossless machine, in Hz."""
    t_exec = circuit_steps(scenario, n) * scenario.t_step
    return (1.0 / math.e) / (t_exec + scenario.t_init + scenario.t_det)


def r_nisq(scenario, n, model="finite"):
    """Sampling rate with preparation, loss, and detection penalties, in Hz."""
    with in_range("n must fit float arithmetic"):
        eta = (scenario.eta_init * scenario.eta_det) ** n
    return eta * p_survival(scenario, n, model=model) * r_ideal(scenario, n)


def r_photonic(photonic, n, depth=None):
    """Sampling rate of a photonic machine, in Hz.

    Per-photon success is eta_f times the circuit transmission eta_c^depth;
    the depth defaults to the square-circuit value N^2.
    """
    check_count("n", n, 1)
    if depth is None:
        depth = n * n
    check_count("depth", depth, 0)
    with in_range("n and depth must fit float arithmetic"):
        eta = photonic.eta_f * photonic.eta_c**depth
        return (1.0 / math.e) * (photonic.r0 / n) * eta**n


def r_classical(classical, n):
    """Rate of Metropolised-independence sampling on a classical machine."""
    check_count("n", n, 1)
    with in_range("n must fit float arithmetic"):
        return 2.0 ** (-n) / (100.0 * classical.a_tilde * n * n)


def crossover(scenario, classical, n_range=(2, 200), model="finite"):
    """Smallest N where the atom machine outpaces the classical sampler.

    Returns None when no crossover occurs inside `n_range` (inclusive); an
    empty range is a ValidationError.
    """
    lo, hi = n_range
    check_count("n_min", lo, 1)
    check_count("n_max", hi, 1)
    if hi < lo:
        raise ValidationError(f"empty atom-number range: n_min={lo} > n_max={hi}")
    for n in range(lo, hi + 1):
        if r_nisq(scenario, n, model=model) > r_classical(classical, n):
            return n
    return None
