import math
import tracemalloc
import warnings

import numpy as np
import pytest

from atomsampler import exactsim, fock
from atomsampler.errors import ValidationError
from atomsampler.exactsim import (
    _cmul,
    _pair_blocks,
    _pair_fibers,
    benchmark_vs_model,
    build_decay_diagonal,
    run_circuit,
    uniform_state,
)
from atomsampler.fock import FockState, basis_array
from atomsampler.interferometer import (
    CircuitPlan,
    clements_decompose,
    coupling_matrix,
    haar_random_unitary,
    mesh_layers,
)
from atomsampler.lossmodel import p_step_twobody
from atomsampler.parallel import spawn_seeds
from atomsampler.permanent import permanents_of_rows
from atomsampler.sampling import outcome_probability
from oracles import basis_state, enumerate_basis, permanent_naive, site_occupancy, state_rank


def _norm_squared(amps):
    return float(np.vdot(amps, amps).real)


def test_decay_diagonal_entries():
    rates = build_decay_diagonal(2, 4, tau_bg=3.0, tau_tb=5.0)
    rate = {s.occupations: rates[i] for i, s in enumerate(enumerate_basis(2, 4))}
    assert rate[(1, 0, 1, 0)] == pytest.approx(1.0 / 3.0)  # no pairs: N/(2 tau_bg)
    assert rate[(1, 1, 0, 0)] == pytest.approx(1.0 / 3.0 + 1.0 / (2.0 * 5.0))
    rates3 = build_decay_diagonal(3, 4, tau_bg=3.0, tau_tb=5.0)
    rate3 = {s.occupations: rates3[i] for i, s in enumerate(enumerate_basis(3, 4))}
    # a trio decays three times faster than a pair
    assert rate3[(2, 1, 0, 0)] - 3.0 / (2.0 * 3.0) == pytest.approx(3.0 / (2.0 * 5.0))
    assert np.all(rates >= 1.0 / 3.0 - 1e-15)
    with pytest.raises(ValidationError):
        build_decay_diagonal(2, 3, 1.0, 1.0)
    # inf switches a channel off; a lifetime that is not positive is refused
    assert np.array_equal(build_decay_diagonal(2, 4, math.inf, math.inf), np.zeros(10))
    for tau in (0.0, -1.0, math.nan, -math.inf):
        with pytest.raises(ValidationError, match="tau_bg must be positive"):
            build_decay_diagonal(2, 4, tau, 5.0)
        with pytest.raises(ValidationError, match="tau_tb must be positive"):
            build_decay_diagonal(2, 4, 3.0, tau)


def test_decay_diagonal_of_a_pair_rate_past_the_float_range():
    # 2 / (4 * 1e-320) overflows: a state with a pair decays at once, the others not at all
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rates = build_decay_diagonal(2, 4, math.inf, 1e-320)
    paired = [max(site_occupancy(s)) >= 2 for s in enumerate_basis(2, 4)]
    assert rates.tolist() == [math.inf if p else 0.0 for p in paired]


def test_infinite_or_huge_rates_remove_their_states():
    amps = uniform_state(2, 4)
    rates = build_decay_diagonal(2, 4, math.inf, 1e-320)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # a finite rate whose decay underflows removes its state, as an infinite one does
        huge = np.where(np.isinf(rates), 1e300, 0.0)
        for r in (rates, huge):
            _, p_j = run_circuit(amps, 2, _idle_plan(4), r)
            # four of the ten states hold no pair
            assert p_j.tolist() == pytest.approx([0.4, 1.0, 1.0, 1.0], rel=1e-12)


@pytest.mark.parametrize("n,m", [(3, 8), (4, 10), (5, 20)])
@pytest.mark.parametrize("tau_bg", [math.inf, 3.0])
def test_decay_diagonal_equals_whole_table_formula(n, m, tau_bg):
    # reference: the (dim, M/2) site-count formula on the widened table
    arr = basis_array(n, m).astype(np.int64)
    sites = arr.reshape(arr.shape[0], m // 2, 2).sum(axis=2)
    expected = n / (2.0 * tau_bg) + (sites * (sites - 1)).sum(axis=1) / (4.0 * 5.0)
    assert np.array_equal(build_decay_diagonal(n, m, tau_bg, 5.0), expected)


def _idle_plan(m):
    # every angle zero: each pair block is exactly the identity, so a step is its decay alone
    slots = sum(map(len, mesh_layers(m)))
    return CircuitPlan(m=m, theta=np.zeros(slots), phi=np.zeros(slots), output_phases=np.zeros(m))


def test_decay_laws():
    pair = basis_state(FockState((1, 1, 0, 0)))
    rates = build_decay_diagonal(2, 4, tau_bg=math.inf, tau_tb=0.7)
    final, p_j = run_circuit(pair, 2, _idle_plan(4), np.zeros_like(rates))
    assert np.array_equal(final, pair)
    assert np.array_equal(p_j, np.ones(4))
    for t in (0.1, 0.5, 2.0):
        _, p_j = run_circuit(pair, 2, _idle_plan(4), rates * t)
        assert p_j == pytest.approx(np.full(4, math.exp(-t / 0.7)), rel=1e-12)
    # zero-pair sector with two-body loss off: exp(-N t / tau_bg)
    free = basis_state(FockState((1, 0, 1, 0)))
    rates_bg = build_decay_diagonal(2, 4, tau_bg=1.3, tau_tb=math.inf)
    _, p_j = run_circuit(free, 2, _idle_plan(4), rates_bg * 0.4)
    assert p_j == pytest.approx(np.full(4, math.exp(-2 * 0.4 / 1.3)), rel=1e-12)


def test_pair_sector_decay_law():
    # k pairs: survival e^(-N t / tau_bg) e^(-k t / tau_tb) exactly
    state = basis_state(FockState((1, 1, 2, 0, 0, 0, 1, 0)))  # sites (2, 2, 0, 1)
    rates = build_decay_diagonal(5, 8, tau_bg=9.0, tau_tb=2.0)
    t = 0.37
    expected = math.exp(-5 * t / 9.0) * math.exp(-2 * t / 2.0)
    _, p_j = run_circuit(state, 5, _idle_plan(8), rates * t)
    assert p_j == pytest.approx(np.full(8, expected), rel=1e-12)


def _two_mode_plan(theta):
    return CircuitPlan(m=2, theta=[theta], phi=[0.0], output_phases=np.zeros(2))


def test_two_mode_identity_and_hom():
    state = basis_state(FockState((1, 1)))
    lossless = build_decay_diagonal(2, 2, math.inf, math.inf)
    assert np.array_equal(run_circuit(state, 2, _two_mode_plan(0.0), lossless)[0], state)
    out, p_j = run_circuit(state, 2, _two_mode_plan(np.pi / 2.0), lossless)
    probs = np.abs(out) ** 2
    assert probs[state_rank(FockState((2, 0)))] == pytest.approx(0.5, abs=1e-12)
    assert probs[state_rank(FockState((1, 1)))] == pytest.approx(0.0, abs=1e-12)
    assert probs[state_rank(FockState((0, 2)))] == pytest.approx(0.5, abs=1e-12)
    assert p_j == pytest.approx([1.0], abs=1e-12)


def test_norm_conservation_without_decay():
    for m, seed in ((4, 0), (8, 1), (12, 2)):
        plan = clements_decompose(haar_random_unitary(m, seed=seed))
        lossless = build_decay_diagonal(3, m, math.inf, math.inf)
        final, p_j = run_circuit(uniform_state(3, m), 3, plan, lossless)
        assert np.max(np.abs(p_j - 1.0)) < 1e-12
        assert abs(_norm_squared(final) - 1.0) < 1e-12


@pytest.mark.parametrize("n,m,seed", [(2, 4, 0), (3, 6, 1), (2, 6, 2)])
def test_lossless_circuit_matches_permanent_probabilities(n, m, seed):
    u = haar_random_unitary(m, seed=seed)
    plan = clements_decompose(u)
    occ = [0] * m
    for j in range(n):
        occ[2 * j] = 1
    inp = FockState(tuple(occ))
    lossless = build_decay_diagonal(n, m, math.inf, math.inf)
    final, p_j = run_circuit(basis_state(inp), n, plan, lossless)
    probs = np.abs(final) ** 2
    for out in enumerate_basis(n, m):
        expected = outcome_probability(u, inp, out)
        assert probs[state_rank(out)] == pytest.approx(expected, abs=1e-10)
    assert np.allclose(p_j, 1.0, atol=1e-12)


def test_run_circuit_first_step_background_bound():
    plan = clements_decompose(haar_random_unitary(4, seed=8))
    inp = basis_state(FockState((1, 0, 1, 0)))  # collision free
    t_step, tau_bg, tau_tb = 0.05, 4.0, 0.6
    _, p_j = run_circuit(inp, 2, plan, build_decay_diagonal(2, 4, tau_bg, tau_tb) * t_step)
    floor = math.exp(-2 * t_step / tau_bg)
    assert p_j[0] == pytest.approx(floor, rel=1e-12)  # no pairs before layer 1
    assert all(p <= 1.0 + 1e-12 for p in p_j)


def _step_matrix(n, m, layer, t2):
    # the layer's N-particle matrix from permanents: entry [out, in] is the permanent of the
    # M x M transfer matrix on out's rows and in's columns, over sqrt(out! in!)
    transfer, support = np.eye(m, dtype=complex), np.eye(m, dtype=int)
    for k, block in zip(layer, t2):
        transfer[k : k + 2, k : k + 2] = block
        support[k : k + 2, k : k + 2] = 1
    arr = basis_array(n, m)
    norms = np.sqrt([math.prod(map(math.factorial, row)) for row in arr.tolist()])
    # the permanent vanishes unless out and in hold as many atoms on each coupled pair
    # and on each uncoupled mode
    sums = arr @ support
    step = np.zeros((len(arr), len(arr)), dtype=complex)
    for i, row in enumerate(arr):
        out = np.flatnonzero((sums == sums[i]).all(axis=1))
        step[out, i] = permanents_of_rows(transfer[:, np.repeat(np.arange(m), row)], arr[out])
    return step / np.outer(norms, norms)


def _step_by_step(initial, n, plan, rates):
    # reference: decay by exp(-rates), then the layer's permanent matrix
    t2 = coupling_matrix(plan.theta, plan.phi)
    state, ratios, start = initial.astype(complex), [], 0
    for layer in mesh_layers(plan.m):
        before = _norm_squared(state)
        step = _step_matrix(n, plan.m, layer, t2[start : start + len(layer)])
        state = step @ (state * np.exp(-rates))
        ratios.append(_norm_squared(state) / before)
        start += len(layer)
    return state, np.asarray(ratios)


def _with_idle_couplings(plan, index, count):
    # the first `count` couplings of layer `index` become the identity on their pairs
    layers = mesh_layers(plan.m)
    start = sum(map(len, layers[:index]))
    idle = slice(start, start + min(count, len(layers[index])))
    theta, phi = plan.theta.copy(), plan.phi.copy()
    theta[idle] = phi[idle] = 0.0
    return CircuitPlan(m=plan.m, theta=theta, phi=phi, output_phases=plan.output_phases)


@pytest.mark.parametrize("n,m,seed", [(3, 8, 5), (4, 10, 6)])
@pytest.mark.parametrize("tau_bg", [math.inf, 7.0])
@pytest.mark.parametrize("idle", [0, 1, 99])  # 99: the whole layer is idle
def test_run_circuit_matches_the_permanent_step_reference(n, m, seed, tau_bg, idle):
    plan = _with_idle_couplings(clements_decompose(haar_random_unitary(m, seed=seed)), 2, idle)
    initial = uniform_state(n, m)
    rates = build_decay_diagonal(n, m, tau_bg, 1.7) * 0.3
    final, p_j = run_circuit(initial, n, plan, rates)
    expected, ratios = _step_by_step(initial, n, plan, rates)
    assert np.max(np.abs(p_j - ratios)) <= 1e-12
    assert np.max(np.abs(final - expected)) <= 1e-12
    # a second run on the same rates gives the same bits
    again, p_again = run_circuit(initial, n, plan, rates)
    assert np.array_equal(again, final) and np.array_equal(p_again, p_j)


def test_idle_slots_change_no_amplitude():
    # an idle slot (theta = phi = 0) keeps its pair blocks, each exactly the identity; at
    # n_pair = 49, 49 * (1 / 49) rounds to below 1, so a block must divide by n_pair
    blocks = _pair_blocks(coupling_matrix(0.0, 0.0), 64)
    assert [len(block) for block in blocks] == list(range(2, 66))
    for block in blocks:
        assert np.array_equal(block, np.eye(len(block)))
    n, m = 3, 6
    amps = uniform_state(n, m)
    amps *= np.exp(2j * np.pi * np.random.default_rng(3).random(amps.size))
    lossless = build_decay_diagonal(n, m, math.inf, math.inf)
    final, p_j = run_circuit(amps, n, _idle_plan(m), lossless)
    assert np.array_equal(final, amps)
    assert np.array_equal(p_j, np.ones(m))


def test_lossless_run_circuit_drift_bound():
    # stated bound: a lossless run keeps every p_j and the final norm within 1e-12 of 1;
    # a norm ratio that rounds past 1 (11 of these 20 did) is capped at 1
    plan = clements_decompose(haar_random_unitary(20, seed=5))
    lossless = build_decay_diagonal(5, 20, math.inf, math.inf)
    final, p_j = run_circuit(uniform_state(5, 20), 5, plan, lossless)
    assert len(p_j) == 20
    assert np.all(p_j <= 1.0) and np.max(1.0 - p_j) <= 1e-12
    assert abs(_norm_squared(final) - 1.0) <= 1e-12


def test_lossless_run_circuit_on_two_modes_keeps_its_norm_at_a_hundred_atoms():
    # stated bound: the pair blocks stay unitary at any n_pair, so a run of 100 atoms in one
    # pair keeps every p_j and the final norm within 1e-12 of 1 (the closed binomial sum
    # missed the norm by 5.6e-7 here, while the cap held p_j at 1)
    n = 100
    plan = clements_decompose(haar_random_unitary(2, seed=5))
    final, p_j = run_circuit(uniform_state(n, 2), n, plan, np.zeros(n + 1))
    assert len(p_j) == 1  # two modes: one layer of one coupling
    assert np.all(p_j <= 1.0) and np.max(1.0 - p_j) <= 1e-12
    assert abs(_norm_squared(final) - 1.0) <= 1e-12


def test_pair_blocks_stay_unitary_to_two_hundred_atoms():
    # stated bound: max |B^dagger B - I| <= 1e-13 for every block up to n_pair = 200; an exact
    # symmetric power has about n_pair times its coupling's own defect (up to 2.2e-16 here)
    plan = clements_decompose(haar_random_unitary(4, seed=3))
    # one coupling at a time: a coupling's 200 blocks hold 43 MB
    for t2 in coupling_matrix(plan.theta, plan.phi):
        blocks = _pair_blocks(t2, 200)
        assert len(blocks) == 200
        for block in blocks:
            assert np.max(np.abs(block.conj().T @ block - np.eye(len(block)))) <= 1e-13


def test_run_circuit_validates_dimensions():
    plan = clements_decompose(haar_random_unitary(4, seed=8))
    with pytest.raises(ValidationError, match="amplitudes"):
        run_circuit(uniform_state(2, 6), 2, plan, build_decay_diagonal(2, 6, 1.0, 1.0))
    with pytest.raises(ValidationError, match="amplitudes"):
        run_circuit(uniform_state(2, 4), 3, plan, build_decay_diagonal(3, 4, 1.0, 1.0))
    # a negative step time makes every rate negative
    with pytest.raises(ValidationError, match="non-negative"):
        run_circuit(uniform_state(2, 4), 2, plan, build_decay_diagonal(2, 4, 1.0, 1.0) * -0.5)
    # a larger basis would run on the wrong fibers, a smaller one index past its end
    plan6 = clements_decompose(haar_random_unitary(6, seed=8))
    for amps, n in ((uniform_state(2, 8), 2), (uniform_state(2, 4), 2), (uniform_state(2, 6), 3)):
        with pytest.raises(ValidationError, match="amplitudes"):
            run_circuit(amps, n, plan6, np.zeros(len(amps)))
    amps, rates = uniform_state(2, 4), build_decay_diagonal(2, 4, 1.0, 1.0)
    # a column of amplitudes with rates of its shape is not a state vector
    with pytest.raises(ValidationError, match="amplitudes of shape"):
        run_circuit(amps[:, None], 2, plan, rates[:, None])
    with pytest.raises(ValidationError, match="amplitudes of shape"):
        run_circuit(1.0, 1, clements_decompose(np.eye(1)), 0.0)
    for wrong in (build_decay_diagonal(2, 6, 1.0, 1.0), rates[:, None]):
        with pytest.raises(ValidationError, match="do not match rates"):
            run_circuit(amps, 2, plan, wrong)


def test_run_circuit_takes_lists_as_it_takes_arrays():
    plan = clements_decompose(haar_random_unitary(4, seed=8))
    amps, rates = uniform_state(2, 4), build_decay_diagonal(2, 4, 3.0, 1.0) * 0.5
    expected = run_circuit(amps, 2, plan, rates)
    for a, r in ((amps.tolist(), rates.tolist()), (amps.tolist(), rates), (amps, rates.tolist())):
        got = run_circuit(a, 2, plan, r)
        assert all(x.tobytes() == y.tobytes() for x, y in zip(got, expected))
    # one atom on a one-mode circuit: a list of one amplitude and one rate
    final, p_j = run_circuit([1.0], 1, clements_decompose(np.eye(1)), [0.0])
    assert final.tolist() == [1.0] and p_j.size == 0


@pytest.mark.parametrize("bad", [-1.0, math.nan])
def test_run_circuit_refuses_a_negative_or_nan_rate(bad):
    # a negative rate would grow the norm (p_j = e^2 at -1), a nan one give nan survivals
    plan = clements_decompose(haar_random_unitary(4, seed=8))
    amps, rates = uniform_state(2, 4), build_decay_diagonal(2, 4, math.inf, 1.0)
    rates[3] = bad
    with pytest.raises(ValidationError, match="rates must be non-negative"):
        run_circuit(amps, 2, plan, rates)
    # an infinite rate is a pair that decays at once
    rates[3] = math.inf
    assert np.all(run_circuit(amps, 2, plan, rates)[1] <= 1.0)
    # over a zero step it is a nan rate (inf * 0), refused as any nan rate is
    with np.errstate(invalid="ignore"), pytest.raises(ValidationError, match="non-negative"):
        run_circuit(amps, 2, plan, rates * 0.0)


def test_decaying_norm_is_monotone():
    plan = clements_decompose(haar_random_unitary(6, seed=4))
    rates = build_decay_diagonal(3, 6, tau_bg=50.0, tau_tb=3.0)
    _, p_j = run_circuit(uniform_state(3, 6), 3, plan, rates * 0.2)
    assert len(p_j) == 6
    assert np.all(p_j <= 1.0)


def test_benchmark_first_step_is_exact_uniform_average():
    result = benchmark_vs_model(3, 8, 1.0, realizations=5, seed=21)
    rates = build_decay_diagonal(3, 8, tau_bg=math.inf, tau_tb=1.0 * 8)
    expected_p1 = float(np.mean(np.exp(-2.0 * rates)))
    assert np.allclose(result.p_j[:, 0], expected_p1, atol=1e-12)


def test_benchmark_against_step_model():
    result = benchmark_vs_model(4, 16, 1.0, realizations=10, seed=2)
    assert result.p_j.shape == (10, 16)
    model = p_step_twobody(4, 16, 1.0, 1.0 * 16)
    assert result.model_p_step == model
    assert np.max(np.abs(result.mean_p_j - model)) < 0.015
    assert result.mean_p_total >= result.model_p_step_pow_m - 0.01
    assert result.mean_p_total == float(np.mean([np.prod(r) for r in result.p_j]))
    assert result.model_p_step_pow_m == model**16


def test_benchmark_result_compares_by_identity():
    first = benchmark_vs_model(2, 4, 1.0, realizations=2, seed=0)
    again = benchmark_vs_model(2, 4, 1.0, realizations=2, seed=0)
    assert np.array_equal(first.p_j, again.p_j)
    assert first == first and first != again
    assert len({first, again}) == 2  # hashable, though it holds an array


def test_single_run_consistent_with_benchmark_spread():
    from atomsampler.interferometer import clements_decompose, haar_random_unitary

    reference = benchmark_vs_model(4, 16, 1.0, realizations=10, seed=31)
    plan = clements_decompose(haar_random_unitary(16, seed=99))
    rates = build_decay_diagonal(4, 16, math.inf, 1.0 * 16)
    _, p_j = run_circuit(uniform_state(4, 16), 4, plan, rates)
    spread = reference.p_j.prod(axis=1).std()
    assert abs(np.prod(p_j) - reference.mean_p_total) <= 3.0 * spread


def test_benchmark_refuses_an_unmodelled_geometry_before_it_simulates(monkeypatch):
    def no_circuit(*args):
        raise AssertionError("a circuit ran before the model was evaluated")

    monkeypatch.setattr(exactsim, "run_circuit", no_circuit)
    with pytest.raises(ValidationError, match="puts four on a site"):
        benchmark_vs_model(200, 2, 1.0, 1, 0)


def test_benchmark_spawns_a_realizations_seed_as_it_starts(monkeypatch):
    # spawning all 1e5 children before the first circuit held 37 MB of seed sequences
    def first_unitary(*args):
        raise RuntimeError("first unitary")

    monkeypatch.setattr(exactsim, "haar_random_unitary", first_unitary)
    tracemalloc.start()
    try:
        with pytest.raises(RuntimeError, match="first unitary"):
            benchmark_vs_model(1, 2, 1.0, realizations=100_000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("seed", [0, 1, 12345, 2**63])
def test_each_realization_runs_the_circuit_of_its_eager_child(seed):
    # the children spawned one at a time are those of one spawn of all of them,
    # so a realization's survival depends neither on the realization count nor
    # on whether its seed was spawned early
    n, m, realizations = 2, 4, 3
    result = benchmark_vs_model(n, m, 1.0, realizations, seed)
    rates = build_decay_diagonal(n, m, math.inf, float(m))
    for row, child in zip(result.p_j, spawn_seeds(seed, realizations), strict=True):
        plan = clements_decompose(haar_random_unitary(m, child.spawn(1)[0]))
        assert np.array_equal(run_circuit(uniform_state(n, m), n, plan, rates)[1], row)
    assert np.array_equal(benchmark_vs_model(n, m, 1.0, 1, seed).p_j, result.p_j[:1])


def test_a_size_sweep_keeps_one_geometry_and_the_same_bits():
    for n, m in ((4, 16), (5, 20), (3, 8)):
        benchmark_vs_model(n, m, 1.0, realizations=1, seed=n)
    assert _pair_fibers.cache_info().currsize == 1
    assert fock._basis_array_cached.cache_info().currsize == 1
    after_sweep = benchmark_vs_model(5, 20, 1.0, realizations=2, seed=7).p_j
    _pair_fibers.cache_clear()
    fock._basis_array_cached.cache_clear()
    cold = benchmark_vs_model(5, 20, 1.0, realizations=2, seed=7).p_j
    assert after_sweep.tobytes() == cold.tobytes()


def test_benchmark_validates_realizations():
    with pytest.raises(ValidationError):
        benchmark_vs_model(2, 4, 1.0, realizations=0, seed=0)


@pytest.mark.parametrize("ratio", [-1.0, 0.0, math.nan, math.inf])
def test_benchmark_rejects_bad_lifetime_ratio(ratio):
    with pytest.raises(ValidationError, match="finite and positive"):
        benchmark_vs_model(2, 4, ratio, realizations=1, seed=0)


@pytest.mark.parametrize("n,m", [(1, 2), (3, 2), (2, 5), (4, 8), (5, 20)])
def test_pair_fibers_partition_the_paired_states(n, m):
    arr = basis_array(n, m)
    pairs = _pair_fibers(n, m)
    assert len(pairs) == m - 1
    for mode, groups in enumerate(pairs):
        others = np.delete(np.arange(m), [mode, mode + 1])
        assert len(groups) == n
        for n_pair, rows in enumerate(groups, start=1):
            # each group is its own read-only index, one row per p
            assert rows.dtype == np.intp and not rows.flags.writeable
            assert rows.ndim == 2 and rows.shape[0] == n_pair + 1
            states = arr[rows]  # (n_pair + 1, fibers, m)
            assert np.all(states[..., mode] == np.arange(n_pair + 1)[:, None])
            assert np.all(states[..., mode + 1] == n_pair - states[..., mode])
            assert np.all(states[..., others] == states[:1, :, others])
        # together the groups hold every paired state once
        paired = np.flatnonzero(arr[:, mode] + arr[:, mode + 1] >= 1)
        assert np.array_equal(np.sort(np.concatenate([rows.ravel() for rows in groups])), paired)


def test_pair_block_matches_permanents():
    rng = np.random.default_rng(12)
    stack = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
    singles = [_pair_blocks(t2, 6) for t2 in stack]
    for k, blocks in enumerate(_pair_blocks(stack, 6), start=1):
        for t2, single, block in zip(stack, singles, blocks):
            assert np.array_equal(single[k - 1], block)
            for p_out in range(k + 1):
                for p_in in range(k + 1):
                    rows = [0] * p_out + [1] * (k - p_out)
                    cols = [0] * p_in + [1] * (k - p_in)
                    norm = math.sqrt(
                        math.factorial(p_in) * math.factorial(k - p_in)
                        * math.factorial(p_out) * math.factorial(k - p_out)
                    )
                    expected = permanent_naive(t2[np.ix_(rows, cols)]) / norm
                    assert block[p_out, p_in] == pytest.approx(expected, rel=1e-12, abs=1e-12)


def _pair_block_all_terms(t2, n_pair):
    # reference: the closed binomial sum over every (p_out, p_in, i), a term with a negative
    # exponent zeroed by its coefficient, summed in increasing i
    p_out, p_in, i = np.ogrid[: n_pair + 1, : n_pair + 1, : n_pair + 1]
    exponents = np.broadcast_arrays(i, p_in - i, p_out - i, n_pair - p_in - p_out + i)
    valid = np.min(exponents, axis=0) >= 0
    e00, e10, e01, e11 = (np.where(valid, e, 0) for e in exponents)
    binom = np.array([[math.comb(a, b) for b in range(n_pair + 1)] for a in range(n_pair + 1)])
    coef = np.where(valid, binom[p_in, e00] * binom[n_pair - p_in, e01], 0).astype(float)
    weight = [math.factorial(p) * math.factorial(n_pair - p) for p in range(n_pair + 1)]
    scale = np.array([[math.sqrt(w_out / w_in) for w_in in weight] for w_out in weight])
    k = np.arange(n_pair + 1)
    t00, t10, t01, t11 = (t2[..., r, c, None] ** k for r, c in ((0, 0), (1, 0), (0, 1), (1, 1)))
    terms = coef * t00[..., e00]
    for power, exponent in ((t10, e10), (t01, e01), (t11, e11)):
        terms = _cmul(terms, power[..., exponent])
    return np.ascontiguousarray(scale * np.add.accumulate(terms, axis=-1)[..., -1])


@pytest.mark.parametrize("k", range(1, 9))
def test_pair_blocks_match_the_closed_binomial_sum(k):
    plan = clements_decompose(haar_random_unitary(20, seed=30 + k))
    for t2 in (
        coupling_matrix(plan.theta, plan.phi),  # every slot of the plan, stacked
        coupling_matrix(np.zeros(3), np.zeros(3)),
        coupling_matrix(0.0, 0.0),
    ):
        block, expected = _pair_blocks(t2, k)[-1], _pair_block_all_terms(t2, k)
        assert block.shape == expected.shape and block.flags.c_contiguous
        assert np.max(np.abs(block - expected)) <= 1e-14
