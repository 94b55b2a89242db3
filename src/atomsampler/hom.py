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

`_outcomes` is the one rule from the tallies of kept trials to (n0, n1, n2).
`hom_analytic` passes it the expected fractions.  `fit_bunching` passes it
the slope a and the offset b of P_i = a_i P_bunch + b_i, each P_i being
affine in P_bunch; the squared error is then a convex quadratic in P_bunch,
so the least-squares fit is a projection clipped to [1/2, 1].
`hom_monte_carlo` makes one multinomial draw: each trial independently is
dropped by post-selection or kept with zero, one or two atoms imaged.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateSampleError, ValidationError, check_count, check_positive_probability,
                     check_probability, in_range)

#: Parametric bootstrap resamples behind `fit_bunching`'s sigma.
BOOTSTRAP_RESAMPLES = 200

#: Largest measured trial total numpy's multinomial draw accepts (its int64 count).
MAX_MEASURED_TRIALS = 2**63 - 1

#: Bunching probability of distinguishable atoms, the least any pair shows:
#: the lower end of the fit's clip.
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


def hom_monte_carlo(params, trials, seed):
    """Forward Monte Carlo of the interference sequence: one multinomial draw.

    Each trial independently is discarded, because its addressing or position
    reconstruction fails (probability 1 - p_addr p_rec), or kept with zero,
    one or two atoms imaged, in proportion to `hom_analytic`'s triple.
    numpy draws at most 2**63 - 1 trials.
    """
    check_count("trials", trials, 1)
    kept = params.p_addr * params.p_rec
    expected = hom_analytic(params)
    classes = (1.0 - kept, kept * expected.p0, kept * expected.p1, kept * expected.p2)
    with in_range("trials must fit int64"):
        _, n0, n1, n2 = np.random.default_rng(seed).multinomial(trials, classes).tolist()
    return HomOutcomes.from_counts(n0, n1, n2)


def fit_bunching(measured, survival_s, p_lic0, seed):
    """Least-squares bunching probability from measured outcome fractions.

    The model fractions are P = a P_bunch + b, so the squared error is least
    at a.(t - b) / a.a for the measured fractions t, clipped to
    [`P_BUNCH_MIN`, 1]; the error is convex in P_bunch, so the clipped value
    is the constrained minimum.  A survival of 0 leaves a = 0 and is
    refused.  The quoted sigma is the standard deviation over parametric
    `BOOTSTRAP_RESAMPLES` bootstrap resamples of the measured counts, which
    numpy draws for at most 2**63 - 1 trials.  The dot products are written
    out, so no BLAS kernel touches the result.
    """
    check_count("measured trials_kept", measured.trials_kept, 1)
    if measured.trials_kept > MAX_MEASURED_TRIALS:
        raise ValidationError(
            f"measured counts total {measured.trials_kept} trials, more than the "
            f"{MAX_MEASURED_TRIALS} a bootstrap resample can draw"
        )
    check_positive_probability("survival_s", survival_s)
    check_probability("p_lic0", p_lic0)
    s = survival_s
    a0, a1, a2 = _outcomes(0.0, 0.0, 0.0, s * s, s * s * p_lic0)
    b0, b1, b2 = _outcomes((1.0 - s) ** 2, 2.0 * s * (1.0 - s), s * s, 0.0, 0.0)
    norm = a0 * a0 + a1 * a1 + a2 * a2

    def solve(t0, t1, t2):
        return np.clip((a0 * (t0 - b0) + a1 * (t1 - b1) + a2 * (t2 - b2)) / norm,
                       P_BUNCH_MIN, 1.0)

    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    draws = rng.multinomial(measured.trials_kept, measured.triple(), size=BOOTSTRAP_RESAMPLES)
    return BunchingFit(
        p_bunch=float(solve(*measured.triple())),
        sigma=float(np.std(solve(*(draws / measured.trials_kept).T))),
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
