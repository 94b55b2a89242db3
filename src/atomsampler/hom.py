"""Two-atom interference experiment: forward models and bunching-probability fit.

The sequence prepares two atoms, interferes them on a balanced coupler, and
images the survivors.  Indistinguishable atoms bunch onto one site; a bunched
pair is destroyed by light-induced collisions with probability p_lic0 (no
atom left) and otherwise leaves a single atom, while an unbunched pair shows
up as two atoms on distinct sites (0 and 10 in the reference images).  With
single-atom survival S and bunching probability P_bunch the post-selected
outcome probabilities are

    P2 = S^2 (1 - P_bunch)
    P1 = S^2 P_bunch (1 - p_lic0) + 2 S (1 - S)
    P0 = S^2 P_bunch p_lic0 + (1 - S)^2

Addressing and position-reconstruction failures are removed by
post-selection and only scale the number of kept trials.  The quantum purity
gamma (probability that the atoms are indistinguishable) relates to bunching
through P_bunch = gamma + (1 - gamma) / 2.

`_outcomes` is the one rule from the tallies of kept trials to (n0, n1, n2):
both Monte Carlo paths pass it counts, `hom_analytic` the expected fractions.

Both Monte Carlo paths draw in blocks of `MC_BLOCK` trials and turn each
block into contiguous boolean threshold rows (`_threshold_rows`: one
comparison pass, one bool transpose), so their masks and counts cost little
next to the random draws.  The forward model spreads its blocks over
`parallel_map`'s threads and reads its counts with
`HomOutcomes.from_counts`.  The fit keeps only the two-survivor pair draws
at or above `P_BUNCH_MIN`, the lower end of its bracket, and counts the
rest, which holds it near 8.6 bytes per Monte Carlo trial.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateSampleError, ValidationError, check_count, check_positive_probability,
                     check_probability)
from .fock import check_size_cap
from .parallel import spawn_seeds, parallel_map

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

#: Width of the P_bunch bracket at which the golden-section fit stops.
GOLDEN_TOL = 1e-4

MC_BLOCK = 1 << 16

#: Parametric bootstrap resamples behind `fit_bunching`'s sigma.
BOOTSTRAP_RESAMPLES = 200

#: Largest measured trial total numpy's multinomial draw accepts (its int64 count).
MAX_MEASURED_TRIALS = 2**63 - 1

#: Bunching probability of distinguishable atoms, the least any pair shows:
#: the lower end of the fit's bracket, below which `_McObjective` only counts.
P_BUNCH_MIN = 0.5


@dataclass(frozen=True)
class HomParams:
    """Inputs of the two-atom interference sequence."""

    survival_s: float
    p_lic0: float
    gamma: float
    p_addr: float = 1.0
    p_rec: float = 1.0

    def __post_init__(self):
        for name in ("survival_s", "p_lic0", "gamma", "p_addr", "p_rec"):
            check_probability(name, getattr(self, name))

    @property
    def p_bunch(self):
        return self.gamma + (1.0 - self.gamma) / 2.0


@dataclass(frozen=True)
class HomOutcomes:
    """Probabilities of detecting zero, one, or two atoms after post-selection."""

    trials_kept: int
    p0: float
    p1: float
    p2: float
    counts: tuple = None

    def __post_init__(self):
        check_count("trials_kept", self.trials_kept, 0)
        for name in ("p0", "p1", "p2"):
            check_probability(name, getattr(self, name))
        total = self.p0 + self.p1 + self.p2
        if abs(total - 1.0) > 1e-9:
            raise ValidationError(f"p0 + p1 + p2 must be 1, got {total}")

    @classmethod
    def from_counts(cls, n0, n1, n2):
        for name, count in (("n0", n0), ("n1", n1), ("n2", n2)):
            check_count(name, count, 0)
        total = n0 + n1 + n2
        if total <= 0:
            raise DegenerateSampleError("no trial kept: outcome counts are all zero")
        return cls(
            trials_kept=total,
            p0=n0 / total,
            p1=n1 / total,
            p2=n2 / total,
            counts=(n0, n1, n2),
        )

    def triple(self):
        return np.array([self.p0, self.p1, self.p2])


@dataclass(frozen=True)
class BunchingFit:
    """Result of the least-squares bunching extraction."""

    p_bunch: float
    sigma: float
    trials_kept: int

    @property
    def gamma(self):
        return purity_from_bunching(self.p_bunch)


def _outcomes(none, one, both, bunched, gone):
    """(n0, n1, n2) from kept trials with 0, 1, 2 survivors, bunched pairs and destroyed pairs."""
    return gone + none, bunched - gone + one, both - bunched


def hom_analytic(params):
    """Closed-form outcome probabilities; post-selection stages cancel."""
    s = params.survival_s
    bunched = s * s * params.p_bunch
    p0, p1, p2 = _outcomes((1.0 - s) ** 2, 2.0 * s * (1.0 - s), s * s, bunched,
                           bunched * params.p_lic0)
    return HomOutcomes(trials_kept=0, p0=p0, p1=p1, p2=p2)


def _threshold_rows(u, thresholds):
    """Row k of the result is `u[:, k] < thresholds[k]`, as a contiguous bool array.

    One comparison pass over the contiguous (B, K) draw block and one bool
    transpose, so every later mask operation and count reads contiguous
    memory instead of a column strided by K draws.
    """
    return np.ascontiguousarray((u < np.asarray(thresholds)).T)


def _simulate_block(params, block, seed):
    rng = np.random.default_rng(seed)
    addressed, reconstructed, alive1, alive2, bunched, destroyed = _threshold_rows(
        rng.random((block, 6)),
        (params.p_addr, params.p_rec, params.survival_s, params.survival_s,
         params.p_bunch, params.p_lic0),
    )
    kept = addressed & reconstructed
    both = kept & alive1 & alive2
    pair_bunched = both & bunched
    tallies = (kept & ~(alive1 | alive2), kept & (alive1 ^ alive2), both, pair_bunched,
               pair_bunched & destroyed)
    return np.array(_outcomes(*map(np.count_nonzero, tallies)))


def hom_monte_carlo(params, trials, seed, workers=1):
    """Forward Monte Carlo of the interference sequence.

    Trials are processed in fixed-size blocks with seeds split from the root
    seed, so the result does not depend on the worker count (at least 1).
    Trials whose addressing or position reconstruction fails are discarded,
    as the post-selection of the analytic model assumes.
    """
    check_count("trials", trials, 1)
    check_count("workers", workers, 1)
    full, rest = divmod(trials, MC_BLOCK)
    check_size_cap(full + (rest > 0), "Monte Carlo blocks")
    blocks = [MC_BLOCK] * full + [rest] * (rest > 0)
    seeds = spawn_seeds(seed, len(blocks))
    tallies = parallel_map(
        lambda args: _simulate_block(params, *args), list(zip(blocks, seeds)), workers=workers
    )
    n0, n1, n2 = np.sum(tallies, axis=0).tolist()
    return HomOutcomes.from_counts(n0, n1, n2)


def _golden_section(objective, lo, hi):
    a, b = lo, hi
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = objective(c), objective(d)
    while b - a > GOLDEN_TOL:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = objective(d)
    return (a + b) / 2.0


class _McObjective:
    """Monte Carlo outcome probabilities as a fast function of P_bunch.

    One set of uniform draws is shared by every candidate value (common
    random numbers): survival splits the kept trials into two-, one-, and
    zero-survivor classes, and the bunching threshold moves through the
    sorted pair-coupler draws, so each evaluation costs two binary searches.
    The draws come in `MC_BLOCK`-row chunks of one generator, which equal
    one (trials, 4) draw.

    Only `P_BUNCH_MIN <= p_bunch <= 1` is ever asked for (the fit's
    bracket), and every pair draw below `P_BUNCH_MIN` lies under any such
    threshold, so those draws are only counted, all of them and the
    destroyed ones; the pair draws at or above it are kept sorted.  With
    the preset survival 0.84 that keeps about half of the pair draws (a
    third of the trials), and `fit_bunching`'s tracemalloc peak stays at
    or below 10 bytes per Monte Carlo trial (about 8.6; a test holds the
    bound at 1e6 trials).  Memory still grows with `trials`.
    """

    def __init__(self, survival_s, p_lic0, trials, seed):
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        self.n_one = self.n_none = self.n_low = self.n_low_gone = 0
        high, high_gone = [], []
        thresholds = (survival_s, survival_s, P_BUNCH_MIN, p_lic0)
        buffer = np.empty((min(MC_BLOCK, trials), 4))
        for start in range(0, trials, MC_BLOCK):
            block = min(MC_BLOCK, trials - start)
            u = rng.random(out=buffer[:block])
            alive1, alive2, low, destroyed = _threshold_rows(u, thresholds)
            self.n_one += int(np.count_nonzero(alive1 ^ alive2))
            self.n_none += block - int(np.count_nonzero(alive1 | alive2))
            both = alive1 & alive2
            pair_low = both & low
            self.n_low += int(np.count_nonzero(pair_low))
            self.n_low_gone += int(np.count_nonzero(pair_low & destroyed))
            both ^= pair_low  # both alive, pair draw at or above P_BUNCH_MIN
            high.append(u[both, 2])
            high_gone.append(u[both & destroyed, 2])
        del buffer, u  # free the draw block before the kept draws are joined
        self.kept = float(trials)
        self.sorted_high = np.concatenate(high)
        del high  # drop each chunk list as soon as it is joined
        self.sorted_high.sort()
        self.sorted_high_gone = np.concatenate(high_gone)
        del high_gone
        self.sorted_high_gone.sort()
        self.n_both = self.n_low + len(self.sorted_high)

    def probabilities(self, p_bunch):
        """(P0, P1, P2) as Python floats, for `P_BUNCH_MIN <= p_bunch`."""
        bunched = self.n_low + int(np.searchsorted(self.sorted_high, p_bunch, side="right"))
        gone = self.n_low_gone + int(
            np.searchsorted(self.sorted_high_gone, p_bunch, side="right")
        )
        n0, n1, n2 = _outcomes(self.n_none, self.n_one, self.n_both, bunched, gone)
        return n0 / self.kept, n1 / self.kept, n2 / self.kept


def fit_bunching(measured, survival_s, p_lic0, trials, seed):
    """Least-squares bunching probability from measured outcome fractions.

    Golden-section search over P_bunch in [`P_BUNCH_MIN`, 1] against Monte
    Carlo outcome probabilities generated at the fixed survival and
    collision parameters; the quoted sigma is the standard deviation over
    parametric `BOOTSTRAP_RESAMPLES` bootstrap resamples of the measured
    counts, which numpy draws for at most 2**63 - 1 trials.
    """
    check_count("measured trials_kept", measured.trials_kept, 1)
    if measured.trials_kept > MAX_MEASURED_TRIALS:
        raise ValidationError(
            f"measured counts total {measured.trials_kept} trials, more than the "
            f"{MAX_MEASURED_TRIALS} a bootstrap resample can draw"
        )
    check_probability("survival_s", survival_s)
    check_probability("p_lic0", p_lic0)
    check_count("trials", trials, 1)
    model = _McObjective(survival_s, p_lic0, trials, seed)

    def solve(target):
        t0, t1, t2 = target

        def squared_error(p):
            q0, q1, q2 = model.probabilities(p)
            d0, d1, d2 = q0 - t0, q1 - t1, q2 - t2
            return d0 * d0 + d1 * d1 + d2 * d2

        return _golden_section(squared_error, P_BUNCH_MIN, 1.0)

    best = solve(measured.triple().tolist())
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    draws = rng.multinomial(measured.trials_kept, measured.triple(), size=BOOTSTRAP_RESAMPLES)
    estimates = [solve(row) for row in (draws / measured.trials_kept).tolist()]
    return BunchingFit(
        p_bunch=best,
        sigma=float(np.std(estimates)),
        trials_kept=measured.trials_kept,
    )


def bunching_from_p2(p2, s):
    """Invert P2 = S^2 (1 - P_bunch) for P_bunch, with S in (0, 1] and P2 in [0, S^2]."""
    check_positive_probability("survival", s)
    if not 0.0 <= p2 <= s * s:
        raise ValidationError(f"p2 = {p2} lies outside [0, s^2 = {s * s}]")
    return 1.0 - p2 / (s * s)


def purity_from_bunching(p_bunch):
    """Quantum purity gamma = 2 P_bunch - 1, for P_bunch in [1/2, 1]."""
    if not P_BUNCH_MIN <= p_bunch <= 1.0:
        raise ValidationError(f"bunching probability must lie in [1/2, 1], got {p_bunch}")
    return 2.0 * p_bunch - 1.0
