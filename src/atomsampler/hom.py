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
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSampleError, ValidationError
from .parallel import spawn_seeds, parallel_map

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

MC_BLOCK = 1 << 16


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
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValidationError(f"{name} must lie in [0, 1], got {value}")

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

    @classmethod
    def from_counts(cls, n0, n1, n2):
        total = n0 + n1 + n2
        if total <= 0:
            raise ValidationError("outcome counts are all zero")
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
    gamma: float
    trials_kept: int


def _outcome_triple(s, p_bunch, p_lic0):
    p2 = s * s * (1.0 - p_bunch)
    p1 = s * s * p_bunch * (1.0 - p_lic0) + 2.0 * s * (1.0 - s)
    p0 = s * s * p_bunch * p_lic0 + (1.0 - s) ** 2
    return p0, p1, p2


def hom_analytic(params):
    """Closed-form outcome probabilities; post-selection stages cancel."""
    p0, p1, p2 = _outcome_triple(params.survival_s, params.p_bunch, params.p_lic0)
    return HomOutcomes(trials_kept=0, p0=p0, p1=p1, p2=p2)


def _simulate_block(params, block, seed, reconstruction_failure):
    rng = np.random.default_rng(seed)
    u = rng.random((block, 6))
    addressed = u[:, 0] < params.p_addr
    reconstructed = u[:, 1] < params.p_rec
    alive1 = u[:, 2] < params.survival_s
    alive2 = u[:, 3] < params.survival_s
    bunched = u[:, 4] < params.p_bunch
    destroyed = u[:, 5] < params.p_lic0

    if reconstruction_failure == "discard":
        kept = addressed & reconstructed
        miscounted = np.zeros(block, dtype=bool)
    elif reconstruction_failure == "miscount":
        kept = addressed
        miscounted = ~reconstructed
    else:
        raise ValidationError(
            f"unknown reconstruction_failure mode {reconstruction_failure!r}"
        )

    both = kept & alive1 & alive2
    one = kept & (alive1 ^ alive2)
    none = kept & ~(alive1 | alive2)
    pair_bunched = both & bunched
    zero_out = (pair_bunched & destroyed) | none
    one_out = (pair_bunched & ~destroyed) | one
    two_out = both & ~bunched
    if reconstruction_failure == "miscount":
        zero_out = (zero_out & ~miscounted) | (kept & miscounted)
        one_out &= ~miscounted
        two_out &= ~miscounted
    return np.array(
        [int(zero_out.sum()), int(one_out.sum()), int(two_out.sum()), int(kept.sum())]
    )


def hom_monte_carlo(params, trials, seed, workers=1, reconstruction_failure="discard"):
    """Forward Monte Carlo of the interference sequence.

    Trials are processed in fixed-size blocks with seeds split from the root
    seed, so the result does not depend on the worker count.  Reconstruction
    failures are discarded by default; the "miscount" mode instead records
    them as zero-atom detections (how the original analysis treated them is
    not documented, so no fidelity claim is attached to either choice).
    """
    if trials < 1:
        raise ValidationError(f"need at least one trial, got {trials}")
    blocks = [MC_BLOCK] * (trials // MC_BLOCK)
    if trials % MC_BLOCK:
        blocks.append(trials % MC_BLOCK)
    seeds = spawn_seeds(seed, len(blocks))
    tallies = parallel_map(
        lambda args: _simulate_block(params, args[0], args[1], reconstruction_failure),
        list(zip(blocks, seeds)),
        workers=workers,
    )
    n0, n1, n2, kept = np.sum(tallies, axis=0)
    if kept == 0:
        raise DegenerateSampleError("post-selection removed every trial")
    return HomOutcomes(
        trials_kept=int(kept),
        p0=n0 / kept,
        p1=n1 / kept,
        p2=n2 / kept,
        counts=(int(n0), int(n1), int(n2)),
    )


def _golden_section(objective, lo, hi, tol=1e-4):
    a, b = lo, hi
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = objective(c), objective(d)
    while b - a > tol:
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
    """

    def __init__(self, survival_s, p_lic0, trials, seed):
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        u = rng.random((trials, 4))
        alive1 = u[:, 0] < survival_s
        alive2 = u[:, 1] < survival_s
        both = alive1 & alive2
        self.n_one = int((alive1 ^ alive2).sum())
        self.n_none = int((~(alive1 | alive2)).sum())
        self.kept = trials
        pair_draws = u[both, 2]
        destroyed = u[both, 3] < p_lic0
        self.sorted_pair = np.sort(pair_draws)
        self.sorted_pair_destroyed = np.sort(pair_draws[destroyed])
        self.n_both = len(pair_draws)

    def probabilities(self, p_bunch):
        bunched = int(np.searchsorted(self.sorted_pair, p_bunch, side="right"))
        gone = int(np.searchsorted(self.sorted_pair_destroyed, p_bunch, side="right"))
        n0 = gone + self.n_none
        n1 = (bunched - gone) + self.n_one
        n2 = self.n_both - bunched
        return np.array([n0, n1, n2]) / self.kept


def fit_bunching(measured, survival_s, p_lic0, trials=10**6, seed=0, resamples=200):
    """Least-squares bunching probability from measured outcome fractions.

    Golden-section search over P_bunch in [1/2, 1] against Monte Carlo
    outcome probabilities generated at the fixed survival and collision
    parameters; the quoted sigma is the standard deviation over parametric
    bootstrap resamples of the measured counts.
    """
    if measured.trials_kept <= 0:
        raise ValidationError("measured outcomes carry no trials")
    if trials < 1:
        raise ValidationError(f"need at least one Monte Carlo trial, got {trials}")
    model = _McObjective(survival_s, p_lic0, trials, seed)

    def solve(target):
        return _golden_section(
            lambda p: float(np.sum((model.probabilities(p) - target) ** 2)), 0.5, 1.0
        )

    best = solve(measured.triple())
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    draws = rng.multinomial(measured.trials_kept, measured.triple(), size=resamples)
    estimates = [solve(row / measured.trials_kept) for row in draws]
    return BunchingFit(
        p_bunch=best,
        sigma=float(np.std(estimates)),
        gamma=2.0 * best - 1.0,
        trials_kept=measured.trials_kept,
    )


def bunching_from_p2(p2, s):
    """Invert P2 = S^2 (1 - P_bunch) for the bunching probability."""
    if not s > 0.0:
        raise ValidationError(f"survival must be positive, got {s}")
    if p2 > s * s:
        raise ValidationError(f"p2 = {p2} exceeds the two-survivor ceiling s^2 = {s * s}")
    return 1.0 - p2 / (s * s)


def purity_from_bunching(p_bunch):
    """Quantum purity gamma = 2 P_bunch - 1."""
    if p_bunch < 0.5:
        raise ValidationError(f"bunching probability below 1/2 is infeasible: {p_bunch}")
    return 2.0 * p_bunch - 1.0


def expected_purity(p3d):
    """Purity predicted from the 3D motional ground-state occupation."""
    if not 0.0 <= p3d <= 1.0:
        raise ValidationError(f"ground-state probability must lie in [0, 1], got {p3d}")
    return p3d * p3d
