import itertools
import math

import numpy as np
import pytest

from atomsampler import fock, permanent, sampling
from atomsampler.errors import DegenerateSampleError, SizeCapError, ValidationError
from atomsampler.fock import FockState, basis_array, collision_free_array
from atomsampler.interferometer import coupling_matrix, haar_random_unitary
from atomsampler.permanent import (
    _glynn_batch,
    glynn_batch_size,
    permanent_glynn,
    permanents_of_rows,
)
from atomsampler.sampling import (
    collision_free_mass,
    draw_samples,
    outcome_probability,
    output_distribution,
)
from oracles import NAIVE_CAP, basis_rank, enumerate_basis, permanent_naive

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


def random_complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def test_naive_examples():
    assert permanent_naive(np.array([[1.0, 2.0], [3.0, 4.0]])) == pytest.approx(10.0)
    for n in range(1, 6):
        assert permanent_naive(np.eye(n)) == pytest.approx(1.0)


def test_naive_triangular_single_permutation():
    # strictly zero lower triangle and unit diagonal: only the identity
    # permutation contributes
    t = np.triu(np.full((5, 5), 2.0), k=1) + np.eye(5)
    assert permanent_naive(t) == pytest.approx(1.0)
    assert permanent_glynn(t) == pytest.approx(1.0)


def test_glynn_examples():
    assert permanent_glynn(np.eye(3)) == pytest.approx(1.0)
    assert permanent_glynn(np.ones((2, 2))) == pytest.approx(2.0)


def test_glynn_matches_naive():
    rng = np.random.default_rng(42)
    for n in range(1, 9):
        for _ in range(10):
            a = random_complex(rng, n)
            g = permanent_glynn(a)
            nv = permanent_naive(a)
            assert abs(g - nv) <= 1e-10 * max(1.0, abs(nv))


def test_permanent_permutation_invariance():
    rng = np.random.default_rng(7)
    for n in (2, 4, 7):
        a = random_complex(rng, n)
        ref = permanent_glynn(a)
        for _ in range(5):
            p = rng.permutation(n)
            q = rng.permutation(n)
            assert permanent_glynn(a[p][:, q]) == pytest.approx(ref, rel=1e-10)


def test_permanent_row_linearity():
    rng = np.random.default_rng(8)
    a = random_complex(rng, 5)
    ref = permanent_glynn(a)
    scaled = a.copy()
    scaled[2] *= 3.5 - 1.25j
    assert permanent_glynn(scaled) == pytest.approx((3.5 - 1.25j) * ref, rel=1e-10)


def test_permanent_input_validation():
    with pytest.raises(ValidationError):
        permanent_glynn(np.ones((2, 3)))
    with pytest.raises(SizeCapError):
        permanent_glynn(np.eye(30))


def test_permanents_of_rows_input_validation():
    with pytest.raises(ValidationError):
        permanents_of_rows(np.ones((3, 2)), np.ones((4, 2), dtype=int))
    with pytest.raises(ValidationError):
        permanents_of_rows(np.ones(3), np.ones((4, 3), dtype=int))
    # every row must hold N atoms, and none may be negative
    with pytest.raises(ValidationError):
        permanents_of_rows(np.ones((3, 2)), [[1, 1, 0], [2, 1, 0]])
    with pytest.raises(ValidationError):
        permanents_of_rows(np.ones((3, 2)), [[1, 1, 0], [3, -1, 0]])
    # refused before any row is read
    with pytest.raises(SizeCapError):
        permanents_of_rows(np.ones((30, 29)), np.zeros((0, 30), dtype=np.uint8))


def test_permanents_of_rows_matches_naive():
    # three batches, the last one short, so the batch boundaries are crossed
    rng = np.random.default_rng(31)
    n, m = 6, 8
    table = basis_array(n, m)
    batch = glynn_batch_size(n)
    assert len(table) > 2 * batch and len(table) % batch
    columns = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    perms = permanents_of_rows(columns, table)
    for i in list(range(0, len(table), 97)) + [len(table) - 1]:
        matrix = columns[np.repeat(np.arange(m), table[i])]
        assert abs(perms[i] - permanent_naive(matrix)) <= 1e-12 * max(1.0, abs(perms[i]))
    assert perms[-1] == pytest.approx(permanent_glynn(matrix), rel=1e-15)


def test_permanents_of_rows_empty_cases():
    assert np.array_equal(permanents_of_rows(np.zeros((4, 0)), np.zeros((3, 4), int)), np.ones(3))
    assert permanents_of_rows(np.zeros((4, 4)), np.zeros((0, 4), np.uint8)).shape == (0,)


def _fresh_batches(stack, batch):
    """Permanents of a (D, n, n) `stack`, one kernel call per `batch` matrices."""
    kernel_stack = stack.transpose(2, 1, 0)
    return np.concatenate(
        [_glynn_batch(kernel_stack[..., i : i + batch]) for i in range(0, len(stack), batch)]
    )


# batches of four; every case below has at least three and a short last one
@pytest.mark.parametrize(
    "n,m,collision_free_only",
    [(1, 14, False), (1, 14, True), (2, 6, False), (2, 6, True),
     (5, 7, False), (5, 7, True), (13, 2, False), (13, 15, True), (14, 15, True)],
)
def test_reused_workspace_matches_fresh_single_batch_calls(monkeypatch, n, m, collision_free_only):
    # n = 13 fills the low signs, n = 14 walks one high sign
    low = min(n - 1, permanent.LOW_SIGNS)
    monkeypatch.setattr(permanent, "WORKSPACE", 4 * (n << low))
    batch = glynn_batch_size(n)
    assert batch == 4
    rng = np.random.default_rng(n)
    stack = rng.standard_normal((14, n, n)) + 1j * rng.standard_normal((14, n, n))
    u = haar_random_unitary(m, seed=n)
    inp = FockState((n,) + (0,) * (m - 1) if m < n else (1,) * n + (0,) * (m - n))
    table = collision_free_array(n, m) if collision_free_only else basis_array(n, m)
    states = [FockState(tuple(row)) for row in table.tolist()]
    assert len(states) >= 3 * batch and len(states) % batch
    cols = np.repeat(np.arange(m), inp.occupations)
    subs = np.array([u[np.ix_(np.repeat(np.arange(m), s.occupations), cols)] for s in states])
    norms = np.array(
        [math.prod(map(math.factorial, inp.occupations + s.occupations)) for s in states],
        dtype=float,
    )
    expected_row_perms = _fresh_batches(subs, batch)
    expected_probs = np.abs(expected_row_perms) ** 2 / norms
    expected_perms = _fresh_batches(stack, batch)

    # from here on every inexact np.empty starts as NaN, so a scratch value
    # read before the current batch wrote it shows up in the results; the
    # allocator may hand a batch the memory the previous batch freed
    empty = np.empty

    def nan_empty(shape, dtype=float, *args, **kwargs):
        out = empty(shape, dtype, *args, **kwargs)
        if np.issubdtype(out.dtype, np.inexact):
            out.fill(np.nan)
        return out

    monkeypatch.setattr(np, "empty", nan_empty)
    assert np.isnan(np.empty(2, dtype=complex)).all()
    columns = u[:, np.repeat(np.arange(m), inp.occupations)]
    assert np.array_equal(permanents_of_rows(columns, table), expected_row_perms)
    dist = output_distribution(u, inp, collision_free_only)
    assert np.array_equal(dist.probs, expected_probs)
    short = len(stack) - 3
    assert np.array_equal(_fresh_batches(stack[:short], batch), expected_perms[:-3])


def _bits(z):
    """The two 64-bit words of a complex number: equal bits, not merely equal values."""
    return tuple(np.array([z], dtype=complex).view(np.uint64))


@pytest.mark.parametrize("n", range(1, 17))
def test_a_permanents_bits_do_not_depend_on_its_batch(n):
    # n = 1..16 crosses every batch-size regime: thousands of lanes, a few,
    # one, and one walking one to three high signs; the first, middle and
    # last lanes of a full batch are probed, the last one in any SIMD tail
    rng = np.random.default_rng(100 + n)
    full = max(glynn_batch_size(n), 5)
    stack = rng.standard_normal((n, n, full)) + 1j * rng.standard_normal((n, n, full))
    together = _glynn_batch(stack)
    for lane in sorted({0, full // 2, full - 1}):
        alone = _glynn_batch(stack[..., lane : lane + 1])[0]
        assert _bits(together[lane]) == _bits(alone)
        for size in (3, 5):
            for offset in range(size):
                batch = rng.standard_normal((n, n, size)) + 1j * rng.standard_normal((n, n, size))
                batch[..., offset] = stack[..., lane]
                assert _bits(_glynn_batch(batch)[offset]) == _bits(alone)
        if n <= NAIVE_CAP:
            expected = permanent_naive(stack[..., lane].T)
            assert abs(alone - expected) <= 1e-12 * max(1.0, abs(alone))


@pytest.mark.parametrize("sizes", [(7, 7), (8, 8), (6, 9)])
def test_glynn_block_diagonal_beyond_the_low_signs(sizes):
    # perm(P (A + B) Q) = perm(A) perm(B) for a direct sum A + B; n = 14..16
    # walks one to three high signs, and the shuffles mix A's and B's rows
    # into both sign blocks
    rng = np.random.default_rng(sum(sizes))
    p, q = sizes
    a, b = random_complex(rng, p), random_complex(rng, q)
    block = np.zeros((p + q, p + q), dtype=complex)
    block[:p, :p] = a
    block[p:, p:] = b
    shuffled = block[rng.permutation(p + q)][:, rng.permutation(p + q)]
    expected = permanent_naive(a) * permanent_naive(b)
    assert abs(permanent_glynn(shuffled) - expected) <= 1e-10 * abs(expected)


def test_glynn_drift_bound_rank_one():
    # perm(x y^T) = n! prod x prod y; every term of the sign sum is large and
    # they cancel to the product, so rounding drift shows directly
    rng = np.random.default_rng(20)
    n = 20
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    expected = math.factorial(n) * np.prod(x) * np.prod(y)
    assert abs(permanent_glynn(np.outer(x, y)) - expected) <= 1e-11 * abs(expected)


def _index_expansion_probability(u, inp, out):
    """|perm|^2 / norms of the submatrix built by repeating each mode index explicitly."""
    rows = [j for j, c in enumerate(out.occupations) for _ in range(c)]
    cols = [i for i, c in enumerate(inp.occupations) for _ in range(c)]
    sub = np.array([[u[r, c] for c in cols] for r in rows])
    norm = math.prod(math.factorial(c) for c in inp.occupations + out.occupations)
    return abs(permanent_naive(sub)) ** 2 / norm


def test_outcome_probability_against_index_expansion():
    # rows follow the output occupations, columns the input ones: u is not
    # symmetric, so swapping the roles would change the permanent
    u = haar_random_unitary(5, seed=12)
    inp = FockState((2, 0, 1, 0, 0))
    for out in (FockState((0, 1, 0, 2, 0)), FockState((3, 0, 0, 0, 0)), FockState((1, 0, 1, 0, 1))):
        expected = _index_expansion_probability(u, inp, out)
        assert outcome_probability(u, inp, out) == pytest.approx(expected, rel=1e-12, abs=1e-15)


def test_outcome_probability_hadamard_examples():
    # the two submatrices of the beam splitter: H itself for |1,1> -> |1,1>,
    # and the all-1/sqrt(2) matrix for |1,1> -> |2,0>
    one_one = FockState((1, 1))
    for out in (one_one, FockState((2, 0))):
        expected = _index_expansion_probability(HADAMARD, one_one, out)
        assert outcome_probability(HADAMARD, one_one, out) == pytest.approx(expected, abs=1e-15)


def test_outcome_probability_rejects_mismatched_states():
    # particle numbers differ, at N = 2 and for the vacuum, which used to give 0.0
    for inp, out in [((1, 1), (1, 0)), ((0, 0), (1, 0)), ((1, 0), (0, 0))]:
        with pytest.raises(ValidationError, match="summing to"):
            outcome_probability(HADAMARD, FockState(inp), FockState(out))
    # state lengths that do not match the unitary
    with pytest.raises(ValidationError):
        outcome_probability(HADAMARD, FockState((1, 1)), FockState((1, 1, 0)))
    with pytest.raises(ValidationError):
        outcome_probability(HADAMARD, FockState((1, 1, 0)), FockState((1, 1)))


def test_outcome_probability_hom_dip():
    one_one = FockState((1, 1))
    assert outcome_probability(HADAMARD, one_one, one_one) < 1e-12
    assert outcome_probability(HADAMARD, one_one, FockState((2, 0))) == pytest.approx(0.5, abs=1e-12)
    t = coupling_matrix(np.pi / 2.0, 0.0)
    assert outcome_probability(t, one_one, one_one) < 1e-12


def test_outcome_probability_identity_point_mass():
    u = np.eye(4, dtype=complex)
    inp = FockState((1, 0, 2, 1))
    for out in enumerate_basis(4, 4):
        expected = 1.0 if out == inp else 0.0
        assert outcome_probability(u, inp, out) == pytest.approx(expected, abs=1e-12)


def test_outcome_probability_global_phase_invariance():
    u = haar_random_unitary(4, seed=3)
    inp = FockState((1, 1, 0, 0))
    out = FockState((0, 1, 1, 0))
    base = outcome_probability(u, inp, out)
    rotated = outcome_probability(np.exp(1.23j) * u, inp, out)
    assert rotated == pytest.approx(base, abs=1e-12)


def _tensor_outcome_probability(u, inp, out):
    """First-quantized oracle: symmetrize, apply u per particle slot, project."""
    n = inp.total
    m = inp.m

    def symmetric_tensor(state):
        modes = [j for j, c in enumerate(state.occupations) for _ in range(c)]
        coeff = math.sqrt(
            math.prod(math.factorial(c) for c in state.occupations) / math.factorial(n)
        )
        tensor = np.zeros((m,) * n, dtype=complex)
        for perm in set(itertools.permutations(modes)):
            tensor[perm] = coeff
        return tensor

    evolved = symmetric_tensor(inp)
    for _ in range(n):
        evolved = np.tensordot(u, evolved, axes=(1, n - 1))
    amplitude = np.vdot(symmetric_tensor(out), evolved)
    return abs(amplitude) ** 2


def test_outcome_probability_against_tensor_oracle():
    rng_seeds = [(2, 4, 21), (3, 5, 22), (3, 6, 23)]
    for n, m, seed in rng_seeds:
        u = haar_random_unitary(m, seed=seed)
        occ = [0] * m
        for j in range(n):
            occ[j] = 1
        inp = FockState(tuple(occ))
        for out in enumerate_basis(n, m):
            expected = _tensor_outcome_probability(u, inp, out)
            assert outcome_probability(u, inp, out) == pytest.approx(expected, abs=1e-10)


def test_output_distribution_splitter():
    dist = output_distribution(HADAMARD, FockState((1, 1)))
    probs = {s.occupations: p for s, p in dist.outcomes}
    assert probs[(2, 0)] == pytest.approx(0.5, abs=1e-12)
    assert probs[(1, 1)] == pytest.approx(0.0, abs=1e-12)
    assert probs[(0, 2)] == pytest.approx(0.5, abs=1e-12)
    assert dist.total_mass == pytest.approx(1.0, abs=1e-10)


def test_output_distribution_normalization_haar():
    u = haar_random_unitary(9, seed=5)
    dist = output_distribution(u, FockState((1, 1, 1, 0, 0, 0, 0, 0, 0)))
    assert dist.total_mass == pytest.approx(1.0, abs=1e-10)


def test_output_distribution_normalization_four_particles():
    u = haar_random_unitary(12, seed=6)
    inp = FockState((1, 0, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0))
    dist = output_distribution(u, inp)
    assert len(dist.outcomes) == 1365
    assert dist.total_mass == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("occupations", [(1, 0, 1, 0, 0, 0), (2, 0, 1, 0, 0), (1, 1, 1, 0, 0, 0)])
@pytest.mark.parametrize("collision_free_only", [False, True])
def test_output_distribution_matches_outcome_probability(occupations, collision_free_only):
    inp = FockState(occupations)
    u = haar_random_unitary(inp.m, seed=17)
    dist = output_distribution(u, inp, collision_free_only=collision_free_only)
    assert dist.states.shape == (len(dist.probs), inp.m)
    assert not dist.states.flags.writeable and not dist.probs.flags.writeable
    for row, p in zip(dist.states, dist.probs):
        # one shared path: the same bits, not merely close ones
        assert p == outcome_probability(u, inp, FockState(tuple(row)))
    assert dist.total_mass == pytest.approx(dist.probs.sum(), abs=0.0)


def test_output_distribution_vacuum():
    u = haar_random_unitary(4, seed=1)
    for collision_free_only in (False, True):
        dist = output_distribution(u, FockState((0, 0, 0, 0)), collision_free_only)
        assert dist.states.tolist() == [[0, 0, 0, 0]]
        assert dist.probs.tolist() == [1.0]
        assert dist.total_mass == 1.0
        assert draw_samples(dist, 3, seed=0).tolist() == [[0, 0, 0, 0]] * 3


def test_output_distribution_input_checks():
    with pytest.raises(ValidationError):
        output_distribution(haar_random_unitary(5, seed=1), FockState((1, 1, 0, 0)))
    # one outcome, but its permanent is beyond the Glynn cap
    with pytest.raises(SizeCapError):
        output_distribution(np.eye(1), FockState((171,)))


def test_output_distribution_checks_the_glynn_cap_before_the_table(monkeypatch):
    # the 8 347 680-row outcome table would pass the size cap; N = 29 does not
    def no_table(n, m):
        raise AssertionError("the outcome table was built before the N cap was checked")

    monkeypatch.setattr(sampling, "basis_array", no_table)
    with pytest.raises(SizeCapError, match="N <= 28"):
        output_distribution(np.eye(8), FockState((29,) + (0,) * 7))


def test_output_distribution_collision_free():
    u = haar_random_unitary(6, seed=2)
    dist = output_distribution(u, FockState((1, 1, 0, 0, 0, 0)), collision_free_only=True)
    assert len(dist.outcomes) == math.comb(6, 2)
    assert all(max(s.occupations) <= 1 for s, _ in dist.outcomes)
    assert 0.0 < dist.total_mass < 1.0


def test_draw_samples_point_mass():
    u = np.eye(3, dtype=complex)
    inp = FockState((0, 2, 1))
    dist = output_distribution(u, inp)
    samples = draw_samples(dist, 50, seed=1)
    assert samples.tolist() == [[0, 2, 1]] * 50


def test_draw_samples_determinism_and_frequency():
    dist = output_distribution(HADAMARD, FockState((1, 1)))
    first = draw_samples(dist, 10**5, seed=11)
    again = draw_samples(dist, 10**5, seed=11)
    assert first.shape == (10**5, 2) and not first.flags.writeable
    assert np.array_equal(first, again)
    freq = np.mean(first[:, 0] == 2)
    assert abs(freq - 0.5) < 0.005  # 3 sigma of a fair binomial at 1e5 shots


def test_draw_samples_goodness_of_fit():
    from conftest import merged_chisquare_pvalue

    u = haar_random_unitary(4, seed=9)
    dist = output_distribution(u, FockState((1, 1, 0, 0)))
    samples = draw_samples(dist, 20000, seed=4)
    # the full distribution lists outcomes in canonical order, so a row's rank is its index
    counts = np.bincount(basis_rank(samples), minlength=len(dist.probs))
    expected = dist.probs * len(samples)
    assert merged_chisquare_pvalue(counts, expected) > 0.01


def test_draw_samples_zero_mass():
    dist = output_distribution(HADAMARD, FockState((1, 1)))
    hollow = type(dist)(states=dist.states, probs=np.zeros_like(dist.probs))
    with pytest.raises(DegenerateSampleError):
        draw_samples(hollow, 10, seed=0)


def test_draw_samples_refuses_a_nan_mass():
    # `output_distribution` refuses a non-finite U, but a distribution can be built directly
    dist = output_distribution(haar_random_unitary(3, seed=4), FockState((1, 1, 0)))
    probs = dist.probs.copy()
    probs[0] = np.nan
    poisoned = type(dist)(states=dist.states, probs=probs)
    assert np.isnan(poisoned.total_mass)
    with pytest.raises(DegenerateSampleError, match="no probability mass: nan"):
        draw_samples(poisoned, 10, seed=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_sampling_refuses_a_non_finite_unitary(bad):
    u = haar_random_unitary(3, seed=4)
    u[0, 0] = bad
    inp = FockState((1, 1, 0))
    with pytest.raises(ValidationError, match="finite"):
        outcome_probability(u, inp, inp)
    with pytest.raises(ValidationError, match="finite"):
        output_distribution(u, inp)


def test_sampling_refuses_input_columns_that_are_not_orthonormal():
    doubled = 2.0 * np.eye(2)
    with pytest.raises(ValidationError, match="not orthonormal"):
        outcome_probability(doubled, FockState((1, 0)), FockState((1, 0)))
    with pytest.raises(ValidationError, match="not orthonormal"):
        output_distribution(doubled, FockState((1, 1)))
    # only the occupied input columns enter P(n), and the vacuum occupies none
    half_bad = np.diag([1.0, 2.0])
    assert output_distribution(half_bad, FockState((1, 0))).total_mass == 1.0
    assert output_distribution(doubled, FockState((0, 0))).total_mass == 1.0


def test_draw_samples_refuses_more_shots_than_the_cap(monkeypatch):
    dist = output_distribution(HADAMARD, FockState((1, 1)))
    monkeypatch.setattr(fock, "BASIS_CAP", 10)
    assert draw_samples(dist, 10, seed=0).shape == (10, 2)
    with pytest.raises(SizeCapError, match="11 shots"):
        draw_samples(dist, 11, seed=0)


def test_draw_samples_rejects_negative_shots():
    dist = output_distribution(HADAMARD, FockState((1, 1)))
    with pytest.raises(ValidationError):
        draw_samples(dist, -1, seed=0)
    assert draw_samples(dist, 0, seed=0).shape == (0, 2)


def test_collision_free_mass_values():
    for m in (1, 3, 10, 50):
        assert collision_free_mass(1, m) == pytest.approx(1.0)
    assert collision_free_mass(2, 4) == pytest.approx(0.6)
    assert collision_free_mass(5, 4) == 0.0


def test_collision_free_mass_asymptote():
    # finite-size value sits slightly above 1/e; the inverse-relative gap is
    # below 5% at N=20 and keeps shrinking
    p20 = collision_free_mass(20, 400)
    p30 = collision_free_mass(30, 900)
    target = 1.0 / math.e
    assert abs(p20 - target) <= 0.05 * p20
    assert abs(p30 - target) < abs(p20 - target)
