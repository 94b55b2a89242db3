"""Matrix permanents.

`_glynn_batch` is the one Glynn kernel.  It evaluates Glynn's formula

    perm(A) = 2^-(n-1) sum_d (prod_i d_i) prod_j (sum_i d_i a_ij)

over the 2^(n-1) sign vectors d with d_0 = +1, for a stack of D matrices
at once.  The batch axis is the last, contiguous one: the stack is
(n, n, D), entry a[j, i, d] being entry (i, j) of matrix d, and every
array the kernel builds ends in D, so each numpy call is one long loop over
the batch.  The n - 1 free signs split into a low block of up to
`LOW_SIGNS` signs and the remaining high signs.  The low block is one
vectorized step: row 0 plus the low rows, under all 2^low sign patterns,
form the (n, 2^low, D) column sums, built by doubling (pattern s + 2^i is
pattern s with row i + 1 subtracted instead of added).  A short Python loop
walks the high signs; for each pattern it sums the high rows afresh and
shifts every column sum by them.  Every column sum is thus a fresh sum of
at most n terms, so rounding error cannot build up along the walk.  The
column sums are multiplied together, and the products are summed against
the patterns' parities by a halving tree: the upper half of each block of
patterns carries one more minus sign, so it is subtracted from the lower
half until one value per matrix is left.  Every lane takes the same steps
in the same order whatever D is, so a matrix's permanent has the same bits
alone, at any position of any batch, and in a short last batch (tested,
also with numpy's AVX-512 loops off).  A reduction such as `.sum(axis=0)`
would not keep that: numpy's order of summation changes with the batch
size.  The kernel makes no BLAS call, so its speed does not depend on the
BLAS thread settings.

Batch rule, which depends on n alone: `glynn_batch_size` fills `WORKSPACE`
with the (n, 2^low, D) column sums, which gives thousands of matrices per
batch at small n, 11 at n = 11, 5 at n = 12 and 2 at n = 13..16.  Where
fewer than four fit, one matrix goes at a time: a numpy call that
broadcasts over a batch axis of two loops 2^low times over two lanes, and
at n = 13..16 that costs 2.6 to 2.9 times as much per matrix as one
matrix, whose 2^low patterns form one contiguous loop.  At n = 12 five
lanes still beat one.

Drift bound: on the rank-one closed form perm(x y^T) = n! prod x prod y
with random complex x, y at n = 20 the relative gap stays below 1e-11
(tested; 2.7e-13 for the test's seed).

`permanents_of_rows` is the kernel's only caller.  It holds the package's
only loop over Glynn batches, for every matrix whose rows repeat those of
one column block by an occupation row, as boson-sampling outcomes do.  Each
batch gathers its own submatrix stack straight into the kernel's layout,
and the kernel takes fresh scratch arrays of at most `WORKSPACE` complex
elements each.  `check_glynn_cap` is the only comparison with `GLYNN_CAP`;
`permanents_of_rows` and callers that refuse early ask it.
`permanent_glynn` is the checked single-matrix entry point, one all-ones
occupation row through `permanents_of_rows`.  The factorial-time
cross-check that sums row products over all permutations is test code,
`permanent_naive` in `tests/oracles.py`.
"""

import numpy as np

from .errors import SizeCapError, ValidationError, as_array, check_count

#: Glynn evaluation refuses matrices larger than this.
GLYNN_CAP = 28

#: Signs evaluated in one vectorized step; 2^LOW_SIGNS sign vectors per matrix.
LOW_SIGNS = 12

#: Complex elements of the (n, 2^low, batch) column sums held at one time
#: (2 MiB); also sizes the submatrix stacks `permanents_of_rows` gathers.
WORKSPACE = 1 << 17


def check_glynn_cap(n):
    """Refuse N x N Glynn permanents above `GLYNN_CAP`; callers ask before building inputs."""
    if n > GLYNN_CAP:
        raise SizeCapError(f"permanents capped at N <= {GLYNN_CAP}, got N = {n}")


def glynn_batch_size(n):
    """Matrices of size n per kernel call: what `WORKSPACE` holds, or one if fewer than 4 fit."""
    low = min(max(n - 1, 0), LOW_SIGNS)
    lanes = WORKSPACE // (max(n, 1) << low)
    return lanes if lanes >= 4 else 1


def _glynn_batch(a):
    """Permanents of an (n, n, D) stack; a[j, i, d] is entry (i, j) of matrix d, n = 0 gives 1."""
    n, _, d = a.shape
    if n == 0:
        return np.ones(d, dtype=complex)
    low = min(n - 1, LOW_SIGNS)
    high = n - 1 - low
    # sums[j, s]: row 0 plus rows 1..low under low sign pattern s, in column j
    sums = np.empty((n, 1 << low, d), dtype=complex)
    sums[:, 0] = a[:, 0]
    for i in range(low):
        h = 1 << i
        row = a[:, i + 1, None]
        np.subtract(sums[:, :h], row, out=sums[:, h : 2 * h])
        sums[:, :h] += row
    base = np.empty((n, d), dtype=complex)
    factor = np.empty((1 << low, d), dtype=complex)
    prods = np.empty((1 << low, d), dtype=complex)
    total = np.zeros(d, dtype=complex)
    for k in range(1 << high):
        if high:
            # the high rows under high sign pattern k, summed afresh, shift every column sum
            base[:] = 0.0
            for i in range(high):
                if k >> i & 1:
                    base -= a[:, low + 1 + i]
                else:
                    base += a[:, low + 1 + i]
            np.add(sums[0], base[0], out=prods)
        else:
            prods[:] = sums[0]
        for j in range(1, n):
            prods *= np.add(sums[j], base[j], out=factor) if high else sums[j]
        # sum over patterns weighted by their parities, as a halving tree: the
        # upper half of every block flips one more sign, so it is subtracted;
        # each lane takes the same steps at any D
        h = 1 << low
        while h > 1:
            h >>= 1
            prods[:h] -= prods[h : 2 * h]
        total += (-1.0 if bin(k).count("1") & 1 else 1.0) * prods[0]
    return total / (1 << (n - 1))


def permanents_of_rows(columns, occupations):
    """Permanents of the N x N matrices that repeat row j of `columns` occupations[d, j] times.

    `columns` is (M, N), `occupations` (D, M) with non-negative rows summing
    to N; N = 0 gives 1 per row.  Batches of `glynn_batch_size(N)` matrices
    are evaluated one at a time, so the scratch memory does not grow with D.
    """
    columns = as_array(columns, complex, "columns")
    occupations = np.asarray(occupations)
    if columns.ndim != 2 or occupations.shape[1:] != columns.shape[:1]:
        raise ValidationError(f"need (M, N) and (D, M), got {columns.shape}, {occupations.shape}")
    m, n = columns.shape
    check_glynn_cap(n)
    if occupations.size and (occupations.min() < 0 or np.any(occupations.sum(axis=1) != n)):
        raise ValidationError(f"every occupation row needs non-negative entries summing to {n}")
    d = len(occupations)
    out = np.empty(d, dtype=complex)
    batch = glynn_batch_size(n)
    tiled_modes = np.tile(np.arange(m), min(batch, d))
    columns_t = np.ascontiguousarray(columns.T)
    for i in range(0, d, batch):
        rows = occupations[i : i + batch]
        b = len(rows)
        # each row holds N atoms, so its expanded mode indices fill one line of N
        row_modes = np.repeat(tiled_modes[: b * m], rows.ravel()).reshape(b, n)
        out[i : i + b] = _glynn_batch(np.take(columns_t, row_modes.T, axis=1))
    return out


def permanent_glynn(a):
    """Permanent of a complex square matrix via Glynn's formula.

    Cost doubles with every row; `check_glynn_cap` keeps runaway inputs out.
    """
    a = as_array(a, complex, "permanent_glynn's matrix")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"permanent_glynn needs a square matrix, got shape {a.shape}")
    n = a.shape[0]
    check_count("permanent_glynn's matrix size", n, 1)
    return complex(permanents_of_rows(a, np.ones((1, n), dtype=np.uint8))[0])
