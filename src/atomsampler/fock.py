"""Bosonic Fock states over lattice modes.

A state of N atoms in M modes is an occupation vector (n_0, ..., n_{M-1}).
Modes come in pairs: mode ``2s + sigma`` with sigma in {0, 1} addresses the
two internal states of lattice site ``s``, so M modes span M/2 sites.  The
canonical basis order is descending lexicographic on occupation vectors,
starting from (N, 0, ..., 0); ranks are combinadic, one lookup per mode in
`rank_table`, and `basis_array` unranks its rows through the same table, so
that table alone defines the order.  No table is kept between calls.
"""

from dataclasses import dataclass
from itertools import chain, combinations, islice
from math import comb

import numpy as np

from .errors import SizeCapError, ValidationError, check_count

#: Most rows, amplitudes or unitary entries an input-sized array may hold.
BASIS_CAP = 10**7


def check_size_cap(count, what):
    """`count`, or `SizeCapError` if that many `what` exceed `BASIS_CAP`; its only comparison."""
    if count > BASIS_CAP:
        raise SizeCapError(f"{count} {what} exceed the cap of {BASIS_CAP}")
    return count


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

    def __iter__(self):
        return iter(self.occupations)


def multiset_dimension(n, m):
    """Dimension of the N-particle bosonic space over M modes.

    Equals the multiset coefficient binomial(M + N - 1, N); exact integer
    arithmetic, so there is no overflow for any representable input.
    """
    check_count("n", n, 0)
    check_count("m", m, 1)
    return comb(m + n - 1, n)


#: Table entries (rows x M) filled per chunk; a chunk's temporaries are a few
#: integers per row, or its rows' occupied mode indices.
FILL_CHUNK = 1 << 20


def basis_array(n, m):
    """Canonical basis as a read-only (dim, M) occupation table.

    Row r is rank r unranked through `rank_table`: at mode j the atoms left
    after it are the largest s with T[j, s] <= the rank left, which then
    drops by T[j, s].  The type is the smallest unsigned integer that holds
    n: uint8 up to n = 255.  Widen before arithmetic that can leave its
    range, such as differences or products.
    """
    dim = check_size_cap(multiset_dimension(n, m), f"basis states for n={n}, m={m}")
    terms = rank_table(n, m)
    out = np.empty((dim, m), dtype=np.min_scalar_type(n))
    step = max(1, FILL_CHUNK // m)
    for start in range(0, dim, step):
        chunk = out[start : start + step]
        rank = np.arange(start, start + len(chunk))
        after = n  # atoms from mode j on
        for j, row in enumerate(terms[:-1]):
            atoms_after = np.searchsorted(row, rank, side="right") - 1
            chunk[:, j] = after - atoms_after
            rank -= row[atoms_after]
            after = atoms_after
        chunk[:, -1] = after
    out.setflags(write=False)
    return out


def collision_free_array(n, m):
    """Singly occupied N-particle patterns over M modes as a read-only (binomial(M, N), M) table.

    Rows follow `itertools.combinations` order of the occupied modes, which
    is descending lexicographic on occupation vectors like the full basis;
    the type is that of `basis_array`.
    """
    check_count("n", n, 0)
    check_count("m", m, 1)
    dim = check_size_cap(comb(m, n), f"collision-free patterns for n={n}, m={m}")
    out = np.zeros((dim, m), dtype=np.min_scalar_type(n))
    occupied = combinations(range(m), n)
    step = max(1, FILL_CHUNK // m)
    for start in range(0, dim, step):
        chunk = out[start : start + step]
        modes = np.fromiter(chain.from_iterable(islice(occupied, len(chunk))), dtype=np.intp,
                            count=len(chunk) * n)
        np.put_along_axis(chunk, modes.reshape(len(chunk), n), 1, axis=1)
    out.setflags(write=False)
    return out


def rank_table(n, m):
    """Rank terms T[j, s] = binomial(s + m - j - 2, m - j - 1), s atoms after mode j.

    A row's basis rank is the sum over modes j of T[j, atoms in modes > j].
    """
    check_size_cap(m * (n + 1), f"rank table entries for n={n}, m={m}")
    table = [[comb(s + m - j - 2, m - j - 1) if s else 0 for s in range(n + 1)] for j in range(m)]
    dtype = np.int64 if comb(n + m, n) < 2**63 else object
    return np.array(table, dtype=dtype).reshape(m, n + 1)


def site_count(m):
    """Lattice sites spanned by M modes; site s is modes 2s and 2s+1, so M must be even."""
    check_count("mode count", m, 0)
    if m % 2 != 0:
        raise ValidationError(f"mode count {m} is odd; sites need mode pairs")
    return m // 2


def is_collision_free(state):
    """True iff every mode holds at most one atom."""
    return all(n <= 1 for n in state.occupations)
