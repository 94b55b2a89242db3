"""Bosonic Fock states over lattice modes.

A state of N atoms in M modes is an occupation vector (n_0, ..., n_{M-1}).
Modes come in pairs: mode ``2s + sigma`` with sigma in {0, 1} addresses the
two internal states of lattice site ``s``, so M modes span M/2 sites.  The
canonical basis order is descending lexicographic on occupation vectors,
starting from (N, 0, ..., 0); ranks are combinadic, one cached binomial
lookup per mode.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, combinations_with_replacement
from math import comb

import numpy as np

from .errors import SizeCapError, ValidationError

#: Largest basis size `enumerate_basis` will materialize.
BASIS_CAP = 10**7


@dataclass(frozen=True)
class FockState:
    """Occupation vector of a fixed-particle-number bosonic state."""

    occupations: tuple

    def __post_init__(self):
        occ = tuple(map(int, self.occupations))
        if min(occ, default=0) < 0:
            raise ValidationError(f"negative occupation in {occ}")
        object.__setattr__(self, "occupations", occ)

    @property
    def total(self):
        """Particle number N."""
        return sum(self.occupations)

    @property
    def m(self):
        """Mode count M."""
        return len(self.occupations)

    def to_json(self):
        return list(self.occupations)

    @classmethod
    def from_json(cls, data):
        return cls(tuple(data))

    def __iter__(self):
        return iter(self.occupations)


@dataclass(frozen=True)
class SiteOccupancy:
    """Per-site atom counts of a Fock state, with pair/trio tallies."""

    site_counts: tuple
    k2: int
    k3: int
    max_occ: int


def multiset_dimension(n, m):
    """Dimension of the N-particle bosonic space over M modes.

    Equals the multiset coefficient binomial(M + N - 1, N); exact integer
    arithmetic, so there is no overflow for any representable input.
    """
    if n < 0 or m < 1:
        raise ValidationError(f"need n >= 0 and m >= 1, got n={n}, m={m}")
    return comb(m + n - 1, n)


def enumerate_basis(n, m, cap=BASIS_CAP):
    """All N-particle Fock states over M modes in canonical order.

    The order is descending lexicographic on occupation vectors; the list
    index of each state equals its `state_rank`.
    """
    return [FockState(tuple(row)) for row in basis_array(n, m, cap=cap)]


def _occupation_rows(mode_tuples, dim, n, m):
    """(dim, M) occupation array from `dim` mode-index tuples of length n."""
    # flat index row * M + mode of every atom, counted in one pass
    flat = np.fromiter(chain.from_iterable(mode_tuples), dtype=np.intp, count=dim * n)
    flat += np.repeat(np.arange(0, dim * m, m), n)
    return np.bincount(flat, minlength=dim * m).reshape(dim, m).astype(np.int64, copy=False)


@lru_cache(maxsize=32)
def _basis_array_cached(n, m):
    dim = multiset_dimension(n, m)
    out = _occupation_rows(combinations_with_replacement(range(m), n), dim, n, m)
    out.setflags(write=False)
    return out


def basis_array(n, m, cap=BASIS_CAP):
    """Canonical basis as a read-only (dim, M) integer array."""
    dim = multiset_dimension(n, m)
    if dim > cap:
        raise SizeCapError(
            f"basis of {dim} states for n={n}, m={m} exceeds the cap of {cap}"
        )
    return _basis_array_cached(n, m)


def collision_free_array(n, m):
    """Singly occupied N-particle patterns over M modes as a (binomial(M, N), M) array.

    Rows follow `itertools.combinations` order of the occupied modes, which
    is descending lexicographic on occupation vectors like the full basis.
    """
    return _occupation_rows(combinations(range(m), n), comb(m, n), n, m)


@lru_cache(maxsize=64)
def rank_table(n, m):
    """Rank terms T[j, s] = binomial(s + m - j - 2, m - j - 1), s atoms after mode j.

    A row's basis rank is the sum over modes j of T[j, atoms in modes > j].
    """
    table = [[comb(s + m - j - 2, m - j - 1) if s else 0 for s in range(n + 1)] for j in range(m)]
    dtype = np.int64 if comb(n + m, n) < 2**63 else object
    return np.array(table, dtype=dtype).reshape(m, n + 1)


def basis_rank(states):
    """Canonical basis index of every (..., M) occupation row, with no loop.

    The term for mode j depends only on the atoms in modes 0..j: one lookup
    per mode in a cached binomial table.
    """
    states = np.asarray(states, dtype=np.int64)
    if states.size and states.min() < 0:
        raise ValidationError("negative occupation in a state to rank")
    totals = states.sum(axis=-1, keepdims=True)
    table = rank_table(int(totals.max(initial=0)), states.shape[-1])
    return table[np.arange(states.shape[-1]), totals - np.cumsum(states, axis=-1)].sum(axis=-1)


def state_rank(state):
    """Index of `state` in the canonical basis order."""
    return int(basis_rank(state.occupations))


def state_unrank(index, n, m):
    """Inverse of `state_rank` for the (n, m) basis."""
    dim = multiset_dimension(n, m)
    if not 0 <= index < dim:
        raise ValidationError(f"rank {index} out of range for dimension {dim}")
    occ = []
    remaining = n
    rank = index
    for j in range(m - 1):
        tail_modes = m - j - 1
        # walk candidate occupations from largest down; each heads a block of
        # multiset_dimension(remaining - nj, tail_modes) states
        for nj in range(remaining, -1, -1):
            block = comb(remaining - nj + tail_modes - 1, tail_modes - 1)
            if rank < block:
                occ.append(nj)
                remaining -= nj
                break
            rank -= block
    occ.append(remaining)
    return FockState(tuple(occ))


def site_occupancy(state):
    """Fold mode occupations into per-site counts (site s = modes 2s, 2s+1)."""
    if state.m % 2 != 0:
        raise ValidationError(f"mode count {state.m} is odd; sites need mode pairs")
    occ = state.occupations
    counts = tuple(occ[2 * s] + occ[2 * s + 1] for s in range(state.m // 2))
    return SiteOccupancy(
        site_counts=counts,
        k2=sum(1 for c in counts if c == 2),
        k3=sum(1 for c in counts if c == 3),
        max_occ=max(counts) if counts else 0,
    )


def is_collision_free(state):
    """True iff every mode holds at most one atom."""
    return all(n <= 1 for n in state.occupations)
