"""Exact output distributions of a linear mode circuit and samples from them.

The probability of measuring occupations (n_1, ..., n_M) after N identical
bosons traverse a circuit with transfer matrix U is

    P(n) = |perm(U_sub)|^2 / (prod_j n_j! prod_i q_i!)

where the rows of U_sub repeat output modes with multiplicity n_j and the
columns repeat input modes with multiplicity q_i.  Collision-free
post-selection keeps only outcomes with every mode singly occupied.

Distributions are array-first: outcomes are rows of a (D, M) occupation
table (`fock.basis_array`'s narrow unsigned type) and their probabilities a
(D,) vector, from one `permanent.permanents_of_rows` call over that table;
`draw_samples` returns rows of the same kind.
`FockState` objects are built only where a caller asks for them: the input
state and `OutputDistribution.outcomes`.
"""

from dataclasses import dataclass
from math import comb, factorial, prod

import numpy as np

from .errors import DegenerateSampleError, ValidationError
from .fock import FockState, basis_array, collision_free_array, multiset_dimension
from .permanent import check_glynn_cap, permanent_glynn, permanents_of_rows


@dataclass(frozen=True, eq=False)
class OutputDistribution:
    """Exact outcome probabilities for one input state and circuit.

    `states` is a read-only (D, M) unsigned integer table of outcome
    occupations in canonical order, `probs` the read-only (D,) array of their
    probabilities.
    """

    input: FockState
    states: np.ndarray
    probs: np.ndarray
    collision_free_only: bool
    total_mass: float

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


def sampling_submatrix(u, input_state, output_state):
    """N x N submatrix whose permanent gives the transition amplitude.

    Rows follow the output occupations, columns the input occupations.
    """
    u = np.asarray(u, dtype=complex)
    if input_state.total != output_state.total:
        raise ValidationError(
            f"particle numbers differ: input {input_state.total}, "
            f"output {output_state.total}"
        )
    if input_state.m != u.shape[0] or output_state.m != u.shape[0]:
        raise ValidationError("state length does not match the unitary size")
    rows = _mode_indices(output_state)
    cols = _mode_indices(input_state)
    return u[np.ix_(rows, cols)]


def outcome_probability(u, input_state, output_state):
    """Probability of one output occupation pattern."""
    n = input_state.total
    if n == 0:
        return 1.0 if output_state.total == 0 else 0.0
    sub = sampling_submatrix(u, input_state, output_state)
    norm = prod_factorials(input_state) * prod_factorials(output_state)
    return float(abs(permanent_glynn(sub)) ** 2 / norm)


def prod_factorials(state):
    return prod(map(factorial, state.occupations))


def output_distribution(u, input_state, collision_free_only=False):
    """Exact distribution over all outcomes, in canonical basis order.

    The full distribution sums to one; under collision-free post-selection
    `total_mass` is the retained probability.  All outcomes share the input
    columns of U, so one `permanents_of_rows` call over the occupation table
    gives every amplitude; prod_j n_j! is multiplied in one mode at a time,
    so the narrow table is never widened as a whole.  `check_glynn_cap`
    refuses N before the table is built, and `fock` tables above its cap.
    N = 0 (the vacuum) has the single outcome of probability one.
    """
    u = np.asarray(u, dtype=complex)
    n = input_state.total
    m = input_state.m
    if u.shape != (m, m):
        raise ValidationError(f"state length {m} does not match the unitary shape {u.shape}")
    check_glynn_cap(n)  # before the table is built
    states = collision_free_array(n, m) if collision_free_only else basis_array(n, m)
    probs = np.abs(permanents_of_rows(u[:, _mode_indices(input_state)], states)) ** 2
    factorials = np.array([factorial(k) for k in range(n + 1)], dtype=float)
    norms = np.ones(len(states))
    for j in range(m):
        norms *= np.take(factorials, states[:, j])
    probs /= norms * prod_factorials(input_state)
    probs.setflags(write=False)
    return OutputDistribution(
        input=input_state,
        states=states,
        probs=probs,
        collision_free_only=collision_free_only,
        total_mass=float(probs.sum()),
    )


def draw_samples(dist, shots, seed):
    """I.i.d. draws from a distribution, conditioned on its total mass.

    Returns the drawn outcomes as the rows of a read-only (shots, M) array
    of the type of `dist.states`.  Deterministic for a fixed seed; inverse-CDF over the canonical
    outcome order.
    """
    if shots < 0:
        raise ValidationError(f"shots must be >= 0, got {shots}")
    if dist.total_mass <= 0.0:
        raise DegenerateSampleError("distribution carries no probability mass")
    probs = dist.probs / dist.total_mass
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
    return comb(m, n) / multiset_dimension(n, m)
