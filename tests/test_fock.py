import json
from itertools import combinations, combinations_with_replacement
from math import comb

import numpy as np
import pytest

from atomsampler.errors import SizeCapError, ValidationError
from atomsampler.fock import (
    FockState,
    basis_array,
    basis_rank,
    collision_free_array,
    enumerate_basis,
    is_collision_free,
    multiset_dimension,
    site_occupancy,
    state_rank,
    state_unrank,
)


def test_multiset_dimension_values():
    assert multiset_dimension(0, 5) == 1
    assert multiset_dimension(2, 4) == 10
    assert multiset_dimension(4, 16) == 3876


@pytest.mark.parametrize("n,m", [(0, 3), (1, 1), (3, 4), (4, 8), (5, 20)])
def test_basis_rank_numbers_the_basis(n, m):
    arr = basis_array(n, m)
    assert np.array_equal(basis_rank(arr), np.arange(len(arr)))
    assert np.array_equal(basis_rank(arr[::-1].reshape(-1, 1, m))[:, 0], np.arange(len(arr))[::-1])


def test_basis_rank_rejects_negative_occupations():
    with pytest.raises(ValidationError):
        basis_rank([[2, -1, 1]])


def test_state_rank_is_exact_beyond_int64():
    state = FockState((0,) * 40 + (60,))
    assert state_rank(state) == multiset_dimension(60, 41) - 1 > 2**63


def test_multiset_dimension_rejects_bad_args():
    with pytest.raises(ValidationError):
        multiset_dimension(-1, 4)
    with pytest.raises(ValidationError):
        multiset_dimension(2, 0)


def test_enumerate_basis_small_cases():
    assert [s.occupations for s in enumerate_basis(1, 2)] == [(1, 0), (0, 1)]
    assert [s.occupations for s in enumerate_basis(2, 2)] == [(2, 0), (1, 1), (0, 2)]
    basis = enumerate_basis(2, 4)
    assert len(basis) == 10
    assert basis[0].occupations == (2, 0, 0, 0)


def test_basis_is_descending_lexicographic():
    basis = [s.occupations for s in enumerate_basis(3, 4)]
    assert basis == sorted(basis, reverse=True)


def test_enumerate_basis_cap():
    with pytest.raises(SizeCapError, match="12650"):
        enumerate_basis(4, 22, cap=1000)


def test_rank_examples():
    assert state_rank(FockState((2, 0))) == 0
    assert state_rank(FockState((0, 2))) == 2


@pytest.mark.parametrize("n,m", [(1, 2), (2, 3), (3, 5), (4, 8), (6, 9), (4, 16), (6, 16)])
def test_rank_unrank_bijection(n, m):
    for idx, state in enumerate(enumerate_basis(n, m)):
        assert state_rank(state) == idx
        assert state_unrank(idx, n, m) == state


def test_unrank_range_check():
    with pytest.raises(ValidationError):
        state_unrank(10, 2, 2)


@pytest.mark.parametrize("n,m", [(1, 4), (2, 6), (3, 8), (4, 10), (5, 12), (5, 16)])
def test_collision_free_count_matches_binomial(n, m):
    count = sum(1 for s in enumerate_basis(n, m) if is_collision_free(s))
    assert count == comb(m, n)


def test_is_collision_free_examples():
    assert is_collision_free(FockState((1, 0, 1, 0)))
    assert not is_collision_free(FockState((2, 0, 0, 0)))
    assert is_collision_free(FockState((0, 1, 1, 0)))


def test_site_occupancy_examples():
    so = site_occupancy(FockState((1, 1, 0, 0)))
    assert so.site_counts == (2, 0) and so.k2 == 1 and so.k3 == 0
    so = site_occupancy(FockState((1, 0, 0, 1)))
    assert so.site_counts == (1, 1) and so.k2 == 0 and so.k3 == 0
    so = site_occupancy(FockState((2, 1, 0, 0)))
    assert so.site_counts == (3, 0) and so.k2 == 0 and so.k3 == 1 and so.max_occ == 3


def test_site_occupancy_rejects_odd_mode_count():
    with pytest.raises(ValidationError):
        site_occupancy(FockState((1, 0, 1)))


def test_site_counts_sum_to_n():
    for state in enumerate_basis(3, 8):
        assert sum(site_occupancy(state).site_counts) == 3


def test_fockstate_validation_and_json():
    with pytest.raises(ValidationError):
        FockState((1, -1))
    state = FockState((0, 2, 1))
    assert state.total == 3 and state.m == 3
    payload = json.dumps(state.to_json())
    assert FockState.from_json(json.loads(payload)) == state


@pytest.mark.parametrize("n,m", [(0, 3), (1, 1), (1, 5), (3, 4), (4, 7), (5, 6)])
def test_basis_arrays_match_itertools_reference(n, m):
    def occupations(modes):
        occ = [0] * m
        for j in modes:
            occ[j] += 1
        return occ

    full = basis_array(n, m)
    assert not full.flags.writeable
    assert full.tolist() == [occupations(c) for c in combinations_with_replacement(range(m), n)]
    singles = collision_free_array(n, m)
    assert singles.tolist() == [occupations(c) for c in combinations(range(m), n)]
    assert singles.shape == (comb(m, n), m)
