import json
import tracemalloc
from itertools import combinations, combinations_with_replacement
from math import comb

import numpy as np
import pytest

from atomsampler import fock
from atomsampler.errors import SizeCapError, ValidationError
from atomsampler.exactsim import (benchmark_vs_model, build_decay_diagonal, run_circuit,
                                  uniform_state)
from atomsampler.fock import (
    FockState,
    basis_array,
    collision_free_array,
    is_collision_free,
    multiset_dimension,
    rank_table,
)
from atomsampler.interferometer import CircuitPlan, haar_random_unitary, mesh_layers
from atomsampler.lossmodel import p_pairs_trios
from atomsampler.sampling import output_distribution
from oracles import basis_rank, enumerate_basis, site_occupancy, state_rank


def test_multiset_dimension_values():
    assert multiset_dimension(0, 5) == 1
    assert multiset_dimension(2, 4) == 10
    assert multiset_dimension(4, 16) == 3876


@pytest.mark.parametrize("n,m", [(0, 3), (1, 1), (3, 4), (4, 8), (5, 20)])
def test_basis_rank_numbers_the_basis(n, m):
    arr = basis_array(n, m)
    assert np.array_equal(basis_rank(arr), np.arange(len(arr)))
    assert np.array_equal(basis_rank(arr[::-1].reshape(-1, 1, m))[:, 0], np.arange(len(arr))[::-1])


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
    # C(49, 10) = 8217822536 states; the cap is checked before anything is built
    with pytest.raises(SizeCapError, match="8217822536"):
        enumerate_basis(10, 40)


# each asks for more than the patched cap of 1000 entries: 42 504
# amplitudes, basis rows, rates or outcomes, 15 504 x 20 table entries,
# 300 x 300 unitary entries, 501 x 2 survival ratios or the 8 970 pair block
# entries of 15 atoms on a 4-mode plan (816 amplitudes, under the cap); the
# rank tables (3 x (2**70 + 1) and 2 x (2**40 + 1) terms) and the meshes
# (about 5e19 slots) would grow as lists until the process ran out of memory
@pytest.mark.parametrize(
    "allocate",
    [
        lambda: uniform_state(5, 20),
        lambda: basis_array(5, 20),
        lambda: build_decay_diagonal(5, 20, 1.0, 1.0),
        lambda: output_distribution(np.eye(20), FockState((5,) + (0,) * 19)),
        lambda: collision_free_array(5, 20),
        lambda: haar_random_unitary(300, seed=0),
        lambda: benchmark_vs_model(1, 2, 1.0, 501, 0),
        lambda: rank_table(2**70, 3),
        lambda: basis_rank([[2**40, 0]]),
        lambda: mesh_layers(10**10),
        lambda: CircuitPlan(m=10**10, theta=[], phi=[], output_phases=[]),
        lambda: run_circuit(uniform_state(15, 4), 15, CircuitPlan(4, np.zeros(6), np.zeros(6),
                                                                  np.zeros(4)), np.zeros(816)),
    ],
    ids=["uniform_state", "basis_array", "build_decay_diagonal", "output_distribution",
         "collision_free_array", "haar_random_unitary", "benchmark_vs_model", "rank_table",
         "basis_rank", "mesh_layers", "CircuitPlan", "run_circuit"],
)
def test_size_cap_is_checked_before_allocating(monkeypatch, allocate):
    monkeypatch.setattr(fock, "BASIS_CAP", 1000)
    tracemalloc.start()
    try:
        with pytest.raises(SizeCapError, match="exceed the cap of 1000"):
            allocate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_rank_examples():
    assert state_rank(FockState((2, 0))) == 0
    assert state_rank(FockState((0, 2))) == 2


@pytest.mark.parametrize("n,m", [(1, 2), (2, 3), (3, 5), (4, 8), (6, 9), (4, 16), (6, 16)])
def test_rank_unrank_bijection(n, m):
    # a rank indexes the basis table, and the table row at that index ranks back to it
    table = basis_array(n, m)
    assert np.array_equal(basis_rank(table), np.arange(len(table)))
    for idx in (0, len(table) - 1):
        assert state_rank(FockState(table[idx])) == idx


# C(66, 33) < 2**63 <= C(67, 33): the last int64 table and the first two of Python ints
@pytest.mark.parametrize("n,m", [(0, 1), (1, 1), (3, 4), (5, 20), (33, 33), (34, 33), (33, 34)])
def test_rank_table_terms_are_exact_and_no_int64_rank_wraps(n, m):
    table = rank_table(n, m)
    assert table.shape == (m, n + 1)
    assert table.tolist() == [
        [comb(s + m - j - 2, m - j - 1) if s else 0 for s in range(n + 1)] for j in range(m)
    ]
    # a rank adds one term per mode, none above its row's largest
    largest = sum(max(row) for row in table.tolist())
    assert largest >= multiset_dimension(n, m) - 1
    assert (table.dtype == np.int64) == (comb(n + m, n) < 2**63)
    if table.dtype == np.int64:
        assert largest < 2**63


@pytest.mark.parametrize("n,m", [(0, 3), (1, 4), (2, 5), (3, 6), (4, 8), (5, 10)])
def test_collision_free_rows_keep_their_basis_order(n, m):
    # the singly occupied rows are the basis rows at strictly increasing ranks
    singles = collision_free_array(n, m)
    ranks = basis_rank(singles)
    assert np.all(np.diff(ranks) > 0)
    assert np.array_equal(basis_array(n, m)[ranks], singles)


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
    assert so == (2, 0) and so.count(2) == 1 and so.count(3) == 0
    so = site_occupancy(FockState((1, 0, 0, 1)))
    assert so == (1, 1) and so.count(2) == 0 and so.count(3) == 0
    so = site_occupancy(FockState((2, 1, 0, 0)))
    assert so == (3, 0) and so.count(2) == 0 and so.count(3) == 1 and max(so) == 3


def test_site_occupancy_rejects_odd_mode_count():
    with pytest.raises(ValidationError):
        site_occupancy(FockState((1, 0, 1)))


def test_every_site_rule_consumer_rejects_odd_mode_count_alike():
    messages = []
    for call in (
        lambda: site_occupancy(FockState((1, 0, 1))),
        lambda: p_pairs_trios(2, 3, 0, 0),
        lambda: build_decay_diagonal(2, 3, 1.0, 1.0),
    ):
        with pytest.raises(ValidationError) as info:
            call()
        messages.append(str(info.value))
    assert messages == ["mode count 3 is odd; sites need mode pairs"] * 3


def test_site_counts_sum_to_n():
    for state in enumerate_basis(3, 8):
        assert sum(site_occupancy(state)) == 3


def test_fockstate_validation_and_json():
    with pytest.raises(ValidationError):
        FockState((1, -1))
    state = FockState((0, 2, 1))
    assert state.total == 3 and state.m == 3
    # a JSON list of occupations revives an equal state
    assert FockState(json.loads(json.dumps(list(state)))) == state


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


@pytest.mark.parametrize("n,m", [(0, 3), (1, 5), (5, 20), (255, 1), (255, 2)])
def test_occupation_tables_are_read_only_uint8_up_to_255_atoms(n, m):
    for table in (basis_array(n, m), collision_free_array(n, m)):
        assert table.dtype == np.uint8
        assert not table.flags.writeable


def test_basis_array_beyond_255_atoms():
    arr = basis_array(300, 2)
    assert arr.dtype == np.uint16
    assert arr.tolist() == [[300 - k, k] for k in range(301)]
    assert np.array_equal(basis_rank(arr), np.arange(301))
    assert collision_free_array(300, 300).tolist() == [[1] * 300]


def test_occupation_tables_filled_across_chunks(monkeypatch):
    # at most ten entries per chunk: one or two rows at a time
    monkeypatch.setattr(fock, "FILL_CHUNK", 10)
    n, m = 3, 5
    full = fock._basis_array_cached.__wrapped__(n, m)
    assert full.tolist() == basis_array(n, m).tolist()
    singles = collision_free_array(n, m)
    assert singles.tolist() == [[int(j in c) for j in range(m)] for c in combinations(range(m), n)]
