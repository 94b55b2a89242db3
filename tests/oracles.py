"""Plain reference computations that the tests check the package against.

Each oracle computes by the most direct method a quantity that the package
computes another way, or builds an input the package never needs: the
factorial permutation sum behind the Glynn kernel (criterion 02), the basis
as `FockState`s, the combinadic rank of occupation rows, the per-site rule
of one state (criterion 05) and the amplitudes of one Fock state
(criterion 11).  They use public package names only.  Apart from the size
of a permutation sum they check no input: the package code they call
refuses what it refuses.
"""

from itertools import permutations

import numpy as np

from atomsampler.fock import FockState, basis_array, multiset_dimension, rank_table, site_count

#: The permutation sum is only sane for tiny matrices.
NAIVE_CAP = 9


def permanent_naive(a):
    """Permanent by explicit permutation sum, for matrices up to `NAIVE_CAP`."""
    a = np.asarray(a, dtype=complex)
    n = len(a)
    assert n <= NAIVE_CAP, f"a sum over {n}! permutations"
    perms = np.array(list(permutations(range(n))), dtype=np.intp)
    return complex(a[np.arange(n), perms].prod(axis=1).sum())


def enumerate_basis(n, m):
    """All N-particle Fock states over M modes in canonical order; a state's index is its rank."""
    return [FockState(tuple(row)) for row in basis_array(n, m)]


def basis_rank(states):
    """Canonical basis index of every (..., M) occupation row: one `rank_table` term per mode."""
    states = np.asarray(states, dtype=np.int64)
    totals = states.sum(axis=-1, keepdims=True)
    table = rank_table(int(totals.max(initial=0)), states.shape[-1])
    return table[np.arange(states.shape[-1]), totals - np.cumsum(states, axis=-1)].sum(axis=-1)


def state_rank(state):
    """Index of one `FockState` in the canonical basis order."""
    return int(basis_rank(state.occupations))


def site_occupancy(state):
    """Per-site atom counts of one `FockState` as a tuple (site s = modes 2s, 2s+1)."""
    occ = state.occupations
    return tuple(occ[2 * s] + occ[2 * s + 1] for s in range(site_count(state.m)))


def basis_state(state):
    """Amplitudes with all weight on one Fock basis state."""
    amps = np.zeros(multiset_dimension(state.total, state.m), dtype=complex)
    amps[state_rank(state)] = 1.0
    return amps
