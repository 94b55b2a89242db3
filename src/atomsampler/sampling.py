"""Exact output distributions of a linear mode circuit and samples from them.

The probability of measuring occupations (n_1, ..., n_M) after N identical
bosons traverse a circuit with transfer matrix U is

    P(n) = |perm(U_sub)|^2 / (prod_j n_j! prod_i q_i!)

where the rows of U_sub repeat output modes with multiplicity n_j and the
columns repeat input modes with multiplicity q_i.  Collision-free
post-selection keeps only outcomes with every mode singly occupied.

Every probability comes from one private function over a (D, M) occupation
table (`fock.basis_array`'s narrow unsigned type): one
`permanent.permanents_of_rows` call gives the D amplitudes and the
factorials are multiplied in one mode at a time.  `output_distribution`
passes it the full or collision-free table, `outcome_probability` a one-row
table, so both give the same bits for the same outcome.  `draw_samples`
returns rows of the same kind.  `FockState` objects are built only where a
caller asks for them: `OutputDistribution.outcomes`.
"""

from dataclasses import dataclass
from math import comb, factorial, prod

import numpy as np

from .errors import DegenerateSampleError, ValidationError, as_array, check_count
from .fock import FockState, basis_array, check_size_cap, collision_free_array, multiset_dimension
from .interferometer import UNITARITY_TOL, unitarity_defect
from .permanent import check_glynn_cap, permanents_of_rows


@dataclass(frozen=True, eq=False)
class OutputDistribution:
    """Exact outcome probabilities for one input state and circuit.

    `states` is a read-only (D, M) unsigned integer table of outcome
    occupations in canonical order, `probs` the read-only (D,) array of their
    probabilities.
    """

    states: np.ndarray
    probs: np.ndarray

    @property
    def total_mass(self):
        """Sum of `probs`; under collision-free post-selection, the retained probability."""
        return float(self.probs.sum())

    @property
    def outcomes(self):
        """(FockState, probability) pairs in canonical order, built on access."""
        return tuple(
            (FockState(row), p)
            for row, p in zip(self.states.tolist(), self.probs.tolist())
        )


def _mode_indices(state):
    """Mode index of each particle, occupations expanded by multiplicity."""
    return np.repeat(np.arange(state.m), state.occupations)


def _checked_unitary(u, state):
    u = as_array(u, complex, "U")
    if u.shape != (state.m, state.m):
        raise ValidationError(f"state length {state.m} does not match the unitary shape {u.shape}")
    if not np.isfinite(u).all():
        raise ValidationError("every entry of the unitary must be finite")
    # only the occupied input columns enter P(n); orthonormal ones extend to a unitary
    defect = unitarity_defect(u[:, np.flatnonzero(state.occupations)])
    if not defect <= UNITARITY_TOL:
        raise ValidationError(f"input columns of U are not orthonormal: defect {defect:.3e}")
    return u


def _probabilities(u, input_state, states):
    """P(n) of every row n of the (D, M) occupation table `states`, as a (D,) array.

    All rows share the input columns of U, so one `permanents_of_rows` call
    gives every amplitude; it refuses rows whose atom count differs from the
    input's.  prod_j n_j! is multiplied in one mode at a time, so the narrow
    table is never widened as a whole, and only for modes that hold two or
    more atoms in some row: 0! = 1! = 1 would not move a bit of the product.
    No probability exceeds 1.
    """
    probs = np.abs(permanents_of_rows(u[:, _mode_indices(input_state)], states)) ** 2
    factorials = np.array([factorial(k) for k in range(input_state.total + 1)], dtype=float)
    norms = np.ones(len(states))
    for j in np.flatnonzero(states.max(axis=0, initial=0) > 1):
        norms *= np.take(factorials, states[:, j])
    probs /= norms * prod(map(factorial, input_state.occupations))
    # a certain outcome can round past 1, as |e^(i phi)|^2 does
    return np.minimum(probs, 1.0, out=probs)


def outcome_probability(u, input_state, output_state):
    """Probability of one output occupation pattern, as one row of `output_distribution`."""
    u = _checked_unitary(u, input_state)
    return float(_probabilities(u, input_state, np.array([output_state.occupations]))[0])


def output_distribution(u, input_state, collision_free_only=False):
    """Exact distribution over all outcomes, in canonical basis order.

    The full distribution sums to one; under collision-free post-selection
    `total_mass` is the retained probability.  `check_glynn_cap` refuses N
    before the table is built, and `fock` tables above its cap.  N = 0 (the
    vacuum) has the single outcome of probability one.
    """
    u = _checked_unitary(u, input_state)
    n, m = input_state.total, input_state.m
    check_glynn_cap(n)  # before the table is built
    states = collision_free_array(n, m) if collision_free_only else basis_array(n, m)
    probs = _probabilities(u, input_state, states)
    probs.setflags(write=False)
    return OutputDistribution(states=states, probs=probs)


def draw_samples(dist, shots, seed):
    """I.i.d. draws from a distribution, conditioned on its total mass.

    Returns the drawn outcomes as the rows of a read-only (shots, M) array
    of the type of `dist.states`.  Deterministic for a fixed seed; inverse-CDF over the canonical
    outcome order.
    """
    check_count("shots", shots, 0)
    check_size_cap(shots, "shots")
    total_mass = dist.total_mass
    if not total_mass > 0.0:  # a NaN mass fails this test too
        raise DegenerateSampleError(f"distribution carries no probability mass: {total_mass}")
    probs = dist.probs / total_mass
    cdf = np.cumsum(probs)
    rng = np.random.default_rng(seed)
    idx = np.searchsorted(cdf, rng.random(shots), side="right")
    idx = np.minimum(idx, len(probs) - 1)
    rows = dist.states[idx]
    rows.setflags(write=False)
    return rows


def collision_free_mass(n, m):
    """Probability that a uniformly mixed N-boson state is collision free.

    binomial(M, N) singly-occupied patterns out of the full multiset count;
    approaches exp(-N^2/M)-type behavior, about 1/e for M = N^2 and large N.
    """
    dim = multiset_dimension(n, m)  # checks both counts before comb sees them
    return comb(m, n) / dim
