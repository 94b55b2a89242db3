"""Bosonic Fock states over lattice modes.

A state of N atoms in M modes is an occupation vector (n_0, ..., n_{M-1}).
Modes come in pairs: mode ``2s + sigma`` with sigma in {0, 1} addresses the
two internal states of lattice site ``s``, so M modes span M/2 sites.  The
canonical basis order is descending lexicographic on occupation vectors,
starting from (N, 0, ..., 0); ranks are combinadic, one lookup per mode in
`rank_table`.  Only the last basis table is kept: a workload has one (N, M).
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, combinations_with_replacement, islice
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


#: Atom indices and occupation counts held at one time while filling a table
#: (8 MiB of each).
FILL_CHUNK = 1 << 20


def _occupation_rows(mode_tuples, dim, n, m):
    """Read-only (dim, M) occupation table from `dim` mode-index tuples of length n.

    Rows are counted in chunks of at most `FILL_CHUNK` entries and stored in
    the smallest unsigned type that holds n, so no full-size wide temporary
    is built.
    """
    out = np.empty((dim, m), dtype=np.min_scalar_type(n))
    step = max(1, min(dim, FILL_CHUNK // max(n, m, 1)))
    # flat index row * M + mode of every atom in a chunk, counted in one pass
    offsets = np.repeat(np.arange(0, step * m, m), n)
    for start in range(0, dim, step):
        rows = min(step, dim - start)
        flat = np.fromiter(
            chain.from_iterable(islice(mode_tuples, rows)), dtype=np.intp, count=rows * n
        )
        flat += offsets[: rows * n]
        out[start : start + rows] = np.bincount(flat, minlength=rows * m).reshape(rows, m)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=1)
def _basis_array_cached(n, m):
    dim = multiset_dimension(n, m)
    return _occupation_rows(combinations_with_replacement(range(m), n), dim, n, m)


def basis_array(n, m):
    """Canonical basis as a read-only (dim, M) occupation table.

    The type is the smallest unsigned integer that holds n: uint8 up to
    n = 255.  Widen before arithmetic that can leave its range, such as
    differences or products.
    """
    check_size_cap(multiset_dimension(n, m), f"basis states for n={n}, m={m}")
    return _basis_array_cached(n, m)


def collision_free_array(n, m):
    """Singly occupied N-particle patterns over M modes as a read-only (binomial(M, N), M) table.

    Rows follow `itertools.combinations` order of the occupied modes, which
    is descending lexicographic on occupation vectors like the full basis;
    the type is that of `basis_array`.
    """
    check_count("n", n, 0)
    check_count("m", m, 1)
    dim = check_size_cap(comb(m, n), f"collision-free patterns for n={n}, m={m}")
    return _occupation_rows(combinations(range(m), n), dim, n, m)


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
