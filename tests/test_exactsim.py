import math

import numpy as np
import pytest

from atomsampler.errors import ValidationError
from atomsampler.exactsim import (
    _pair_block,
    _pair_fibers,
    apply_decay,
    apply_layer,
    apply_output_phases,
    basis_state,
    benchmark_vs_model,
    build_decay_diagonal,
    outcome_probabilities,
    run_circuit,
    uniform_state,
)
from atomsampler.fock import FockState, basis_array, enumerate_basis, state_rank
from atomsampler.interferometer import (
    LocalCoupling,
    clements_decompose,
    haar_random_unitary,
    reconstruct,
)
from atomsampler.lossmodel import p_step_twobody
from atomsampler.permanent import permanent_naive
from atomsampler.sampling import outcome_probability


def test_decay_diagonal_entries():
    diag = build_decay_diagonal(2, 4, tau_bg=3.0, tau_tb=5.0)
    rate = {s.occupations: diag.rates[i] for i, s in enumerate(enumerate_basis(2, 4))}
    assert rate[(1, 0, 1, 0)] == pytest.approx(1.0 / 3.0)  # no pairs: N/(2 tau_bg)
    assert rate[(1, 1, 0, 0)] == pytest.approx(1.0 / 3.0 + 1.0 / (2.0 * 5.0))
    diag3 = build_decay_diagonal(3, 4, tau_bg=3.0, tau_tb=5.0)
    rate3 = {s.occupations: diag3.rates[i] for i, s in enumerate(enumerate_basis(3, 4))}
    # a trio decays three times faster than a pair
    assert rate3[(2, 1, 0, 0)] - 3.0 / (2.0 * 3.0) == pytest.approx(3.0 / (2.0 * 5.0))
    assert np.all(diag.rates >= 1.0 / 3.0 - 1e-15)
    with pytest.raises(ValidationError):
        build_decay_diagonal(2, 3, 1.0, 1.0)


def test_apply_decay_laws():
    pair = basis_state(FockState((1, 1, 0, 0)))
    diag = build_decay_diagonal(2, 4, tau_bg=math.inf, tau_tb=0.7)
    assert np.array_equal(apply_decay(pair, diag, 0.0).amplitudes, pair.amplitudes)
    for t in (0.1, 0.5, 2.0):
        survived = apply_decay(pair, diag, t).norm_squared()
        assert survived == pytest.approx(math.exp(-t / 0.7), rel=1e-12)
    # zero-pair sector with two-body loss off: exp(-N t / tau_bg)
    free = basis_state(FockState((1, 0, 1, 0)))
    diag_bg = build_decay_diagonal(2, 4, tau_bg=1.3, tau_tb=math.inf)
    assert apply_decay(free, diag_bg, 0.4).norm_squared() == pytest.approx(
        math.exp(-2 * 0.4 / 1.3), rel=1e-12
    )


def test_pair_sector_decay_law():
    # k pairs: survival e^(-N t / tau_bg) e^(-k t / tau_tb) exactly
    state = basis_state(FockState((1, 1, 2, 0, 0, 0, 1, 0)))  # sites (2, 2, 0, 1)
    diag = build_decay_diagonal(5, 8, tau_bg=9.0, tau_tb=2.0)
    t = 0.37
    expected = math.exp(-5 * t / 9.0) * math.exp(-2 * t / 2.0)
    assert apply_decay(state, diag, t).norm_squared() == pytest.approx(expected, rel=1e-12)


def test_apply_layer_identity_and_hom():
    state = basis_state(FockState((1, 1)))
    idle = LocalCoupling(layer=0, pair=(0, 1), theta=0.0, phi=0.0)
    assert np.array_equal(apply_layer(state, [idle]).amplitudes, state.amplitudes)
    splitter = LocalCoupling(layer=0, pair=(0, 1), theta=np.pi / 2.0, phi=0.0)
    out = apply_layer(state, [splitter])
    probs = outcome_probabilities(out)
    assert probs[state_rank(FockState((2, 0)))] == pytest.approx(0.5, abs=1e-12)
    assert probs[state_rank(FockState((1, 1)))] == pytest.approx(0.0, abs=1e-12)
    assert probs[state_rank(FockState((0, 2)))] == pytest.approx(0.5, abs=1e-12)
    assert out.norm_squared() == pytest.approx(1.0, abs=1e-12)


def test_apply_layer_rejects_overlap():
    state = uniform_state(2, 4)
    layer = [
        LocalCoupling(layer=0, pair=(0, 1), theta=0.2, phi=0.1),
        LocalCoupling(layer=0, pair=(1, 2), theta=0.2, phi=0.1),
    ]
    with pytest.raises(ValidationError, match="overlap"):
        apply_layer(state, layer)


def test_norm_conservation_without_decay():
    for m, seed in ((4, 0), (8, 1), (12, 2)):
        plan = clements_decompose(haar_random_unitary(m, seed=seed))
        state = uniform_state(3, m)
        for layer in plan.layers:
            state = apply_layer(state, layer)
        assert abs(state.norm_squared() - 1.0) < 1e-12


@pytest.mark.parametrize("n,m,seed", [(2, 4, 0), (3, 6, 1), (2, 6, 2)])
def test_lossless_circuit_matches_permanent_probabilities(n, m, seed):
    u = haar_random_unitary(m, seed=seed)
    plan = clements_decompose(u)
    occ = [0] * m
    for j in range(n):
        occ[2 * j] = 1
    inp = FockState(tuple(occ))
    final, trace = run_circuit(basis_state(inp), plan, 1.0, math.inf, math.inf)
    probs = outcome_probabilities(final)
    for out in enumerate_basis(n, m):
        expected = outcome_probability(u, inp, out)
        assert probs[state_rank(out)] == pytest.approx(expected, abs=1e-10)
    assert np.allclose(trace.p_j, 1.0, atol=1e-12)


def test_output_phases_only_rotate_amplitudes():
    state = uniform_state(2, 4)
    phases = np.array([0.3, 1.1, -0.4, 2.0])
    rotated = apply_output_phases(state, phases)
    assert np.allclose(np.abs(rotated.amplitudes), np.abs(state.amplitudes))


def test_run_circuit_first_step_background_bound():
    plan = clements_decompose(haar_random_unitary(4, seed=8))
    inp = basis_state(FockState((1, 0, 1, 0)))  # collision free
    t_step, tau_bg, tau_tb = 0.05, 4.0, 0.6
    _, trace = run_circuit(inp, plan, t_step, tau_bg, tau_tb)
    floor = math.exp(-2 * t_step / tau_bg)
    assert trace.p_j[0] == pytest.approx(floor, rel=1e-12)  # no pairs before layer 1
    assert all(p <= 1.0 + 1e-12 for p in trace.p_j)
    assert trace.p_total == pytest.approx(np.prod(trace.p_j), rel=1e-10)


def test_run_circuit_validates_dimensions():
    plan = clements_decompose(haar_random_unitary(4, seed=8))
    with pytest.raises(ValidationError):
        run_circuit(uniform_state(2, 6), plan, 1.0, 1.0, 1.0)


def test_decaying_norm_is_monotone():
    plan = clements_decompose(haar_random_unitary(6, seed=4))
    state = uniform_state(3, 6)
    diag = build_decay_diagonal(3, 6, tau_bg=50.0, tau_tb=3.0)
    norms = [state.norm_squared()]
    for layer in plan.layers:
        state = apply_decay(state, diag, 0.2)
        state = apply_layer(state, layer)
        norms.append(state.norm_squared())
    assert all(a >= b for a, b in zip(norms, norms[1:]))


def test_benchmark_first_step_is_exact_uniform_average():
    result = benchmark_vs_model(3, 8, 1.0, realizations=5, seed=21)
    diag = build_decay_diagonal(3, 8, tau_bg=math.inf, tau_tb=result.tau_tb)
    expected_p1 = float(np.mean(np.exp(-2.0 * diag.rates * result.t_step)))
    assert np.allclose(result.p_j[:, 0], expected_p1, atol=1e-12)


def test_benchmark_against_step_model():
    result = benchmark_vs_model(4, 16, 1.0, realizations=10, seed=2)
    assert result.p_j.shape == (10, 16)
    model = p_step_twobody(4, 16, result.t_step, result.tau_tb, model="finite")
    assert result.model_p_step == model
    assert np.max(np.abs(result.mean_p_j - model)) < 0.015
    assert result.mean_p_total >= result.model_p_step_pow_m - 0.01


def test_single_run_consistent_with_benchmark_spread():
    from atomsampler.interferometer import clements_decompose, haar_random_unitary

    reference = benchmark_vs_model(4, 16, 1.0, realizations=10, seed=31)
    plan = clements_decompose(haar_random_unitary(16, seed=99))
    _, trace = run_circuit(
        uniform_state(4, 16), plan, reference.t_step, math.inf, reference.tau_tb
    )
    spread = reference.p_totals.std()
    assert abs(trace.p_total - reference.mean_p_total) <= 3.0 * spread


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
    for mode in range(m - 1):
        others = np.delete(np.arange(m), [mode, mode + 1])
        seen = []
        for n_pair, rows in _pair_fibers(n, m, mode):
            states = arr[rows]  # (fibers, n_pair + 1, m)
            assert np.all(states[..., mode] == np.arange(n_pair + 1))
            assert np.all(states[..., mode + 1] == n_pair - states[..., mode])
            assert np.all(states[..., others] == states[:, :1, others])
            seen.append(rows.ravel())
        paired = np.flatnonzero(arr[:, mode] + arr[:, mode + 1] >= 1)
        assert np.array_equal(np.sort(np.concatenate(seen)), paired)


def test_pair_block_matches_permanents():
    rng = np.random.default_rng(12)
    stack = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
    for k in range(1, 7):
        blocks = _pair_block(stack, k)
        for t2, block in zip(stack, blocks):
            assert np.array_equal(_pair_block(t2, k), block)
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
