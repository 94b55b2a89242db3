"""Exact N-particle state-vector simulation of the stepped lossy circuit.

The state lives in the canonical N-particle Fock basis over M modes.  One
circuit step applies the non-unitary decay factor exp(-H t_step) followed by
the coherent couplings of one mesh layer, where H is diagonal in the Fock
basis with per-state rate

    N / (2 tau_bg) + sum_s n_s (n_s - 1) / (4 tau_tb)

summed over lattice sites s (modes 2s and 2s+1).  Norm is only ever reduced
by decay, and the squared-norm ratio across step j is the per-step survival
probability p_j; the product of all p_j is the total survival.

Mesh layers act fiber by fiber: fixing the occupations of all modes outside
one coupled pair leaves an (n_pair + 1)-dimensional block on which the 2x2
coupling acts through its symmetric-power representation, so a layer never
touches amplitudes outside its pairs' fibers.  A fiber grows from its head,
the basis row with no atom in the pair's first mode: moving p atoms across
the pair gives its p-th row, whose combinadic rank differs from the head's
in one `fock.rank_table` term, so no sort or search is needed.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import lossmodel
from .errors import ValidationError
from .fock import basis_array, multiset_dimension, rank_table, state_rank
from .interferometer import clements_decompose, coupling_matrix, haar_random_unitary
from .parallel import spawn_seeds


@dataclass(frozen=True)
class SimState:
    """Amplitude vector over the canonical (n, m) Fock basis."""

    amplitudes: np.ndarray
    n: int
    m: int

    def norm_squared(self):
        return float(np.vdot(self.amplitudes, self.amplitudes).real)


@dataclass(frozen=True)
class DecayDiagonal:
    """Per-basis-state amplitude decay rates of the loss generator."""

    rates: np.ndarray
    n: int
    m: int


@dataclass(frozen=True)
class SurvivalTrace:
    """Per-step survival ratios p_j and their product."""

    p_j: np.ndarray
    p_total: float
    steps: int


@dataclass(frozen=True)
class BenchmarkResult:
    """Simulated per-step survival versus the closed-form step model."""

    n: int
    m: int
    tau_tb: float
    t_step: float
    realizations: int
    p_j: np.ndarray  # (realizations, steps)
    p_totals: np.ndarray
    model_p_step: float
    model_p_step_pow_m: float
    excluded_occupancy_mass: float

    @property
    def mean_p_j(self):
        return self.p_j.mean(axis=0)

    @property
    def mean_p_total(self):
        return float(self.p_totals.mean())


def uniform_state(n, m):
    """Normalized state with equal, positive, real amplitudes over the whole basis."""
    dim = multiset_dimension(n, m)
    return SimState(amplitudes=np.ones(dim, dtype=complex) / np.sqrt(dim), n=n, m=m)


def basis_state(state):
    """SimState with all amplitude on one Fock basis state."""
    amps = np.zeros(multiset_dimension(state.total, state.m), dtype=complex)
    amps[state_rank(state)] = 1.0
    return SimState(amplitudes=amps, n=state.total, m=state.m)


def build_decay_diagonal(n, m, tau_bg, tau_tb):
    """Loss rates for every basis state from its site occupancies."""
    if m % 2 != 0:
        raise ValidationError(f"mode count {m} is odd; the site pairing needs even M")
    arr = basis_array(n, m)
    sites = arr.reshape(arr.shape[0], m // 2, 2).sum(axis=2)
    pair_terms = (sites * (sites - 1)).sum(axis=1)
    rates = n / (2.0 * tau_bg) + pair_terms / (4.0 * tau_tb)
    return DecayDiagonal(rates=rates, n=n, m=m)


def apply_decay(state, diag, t):
    """Multiply amplitudes by exp(-rate t); never increases the norm."""
    if t < 0.0:
        raise ValidationError(f"time must be non-negative, got {t}")
    if (diag.n, diag.m) != (state.n, state.m):
        raise ValidationError("decay diagonal does not match the state dimensions")
    return SimState(
        amplitudes=state.amplitudes * np.exp(-diag.rates * t), n=state.n, m=state.m
    )


@lru_cache(maxsize=256)
def _pair_fibers(n, m, mode):
    """Basis indices grouped into fibers of the coupled pair (mode, mode+1).

    Returns a tuple of (n_pair, rows) for n_pair = 1..n, where rows[f, p] is
    the basis index of the f-th fiber's state with p atoms in `mode` and
    n_pair - p in the partner mode.  Row 0 of a fiber is its head.
    """
    arr = basis_array(n, m)
    heads = np.flatnonzero(arr[:, mode] == 0)
    after = n - arr[:, :mode].sum(axis=1)[heads]  # atoms after `mode` in each head
    term = rank_table(n, m)[mode]
    groups = []
    for n_pair in range(1, n + 1):
        fiber = arr[heads, mode + 1] == n_pair
        # moving p atoms into `mode` changes only that mode's rank term
        shift = term[after[fiber, None] - np.arange(n_pair + 1)] - term[after[fiber, None]]
        rows = heads[fiber, None] + shift
        rows.setflags(write=False)
        groups.append((n_pair, rows))
    return tuple(groups)


@lru_cache(maxsize=None)
def _block_terms(n_pair):
    """`_pair_block`'s coefficients and exponents on axes (p_out, p_in, i), and scales."""
    p_out, p_in, i = np.ogrid[: n_pair + 1, : n_pair + 1, : n_pair + 1]
    exponents = np.broadcast_arrays(i, p_in - i, p_out - i, n_pair - p_in - p_out + i)
    valid = np.min(exponents, axis=0) >= 0
    e00, e10, e01, e11 = (np.where(valid, e, 0) for e in exponents)
    binom = np.array([[math.comb(a, b) for b in range(n_pair + 1)] for a in range(n_pair + 1)])
    coef = np.where(valid, binom[p_in, e00] * binom[n_pair - p_in, e01], 0).astype(float)
    # scales from exact integers, rounded once
    weight = [math.factorial(p) * math.factorial(n_pair - p) for p in range(n_pair + 1)]
    scale = np.array([[math.sqrt(w_out / w_in) for w_in in weight] for w_out in weight])
    return coef, (e00, e10, e01, e11), scale


def _cmul(x, y):
    # rounds each real product, as scalar arithmetic does; vectorized complex
    # multiplication may fuse a multiply and an add and change the last bit
    return (x.real * y.real - x.imag * y.imag) + 1j * (x.real * y.imag + x.imag * y.real)


def _pair_block(t2, n_pair):
    """Symmetric-power representation of (..., 2, 2) couplings on n_pair bosons.

    Entry [p_out, p_in] is sqrt(p_out! q_out! / (p_in! q_in!)) times the sum,
    in increasing i, of binomial(p_in, i) binomial(q_in, p_out - i)
    t00^i t10^(p_in - i) t01^(p_out - i) t11^(q_in - p_out + i).
    """
    coef, (e00, e10, e01, e11), scale = _block_terms(n_pair)
    k = np.arange(n_pair + 1)
    t00, t10, t01, t11 = (t2[..., r, c, None] ** k for r, c in ((0, 0), (1, 0), (0, 1), (1, 1)))
    terms = coef * t00[..., e00]
    for power, exponent in ((t10, e10), (t01, e01), (t11, e11)):
        terms = _cmul(terms, power[..., exponent])
    # C order: matmul takes the same BLAS path for every block
    return np.ascontiguousarray(scale * np.add.accumulate(terms, axis=-1)[..., -1])


def apply_layer(state, couplings):
    """Apply one mesh layer of disjoint adjacent-pair couplings."""
    seen = set()
    for coupling in couplings:
        lo, hi = coupling.pair
        if hi != lo + 1 or hi >= state.m:
            raise ValidationError(f"coupling pair {coupling.pair} is invalid for m={state.m}")
        if lo in seen or hi in seen:
            raise ValidationError(f"overlapping couplings on mode pair {coupling.pair}")
        seen.update((lo, hi))
    active = [c for c in couplings if c.theta != 0.0 or c.phi != 0.0]
    t2 = np.reshape([coupling_matrix(c.theta, c.phi) for c in active], (-1, 2, 2))
    blocks = {n_pair: _pair_block(t2, n_pair) for n_pair in range(1, state.n + 1)}
    amps = state.amplitudes.copy()
    for index, coupling in enumerate(active):
        for n_pair, rows in _pair_fibers(state.n, state.m, coupling.pair[0]):
            amps[rows] = amps[rows] @ blocks[n_pair][index].T
    return SimState(amplitudes=amps, n=state.n, m=state.m)


def apply_output_phases(state, phases):
    """Apply per-mode output phases; diagonal, norm preserving."""
    arr = basis_array(state.n, state.m)
    total_phase = arr @ np.asarray(phases, dtype=float)
    return SimState(
        amplitudes=state.amplitudes * np.exp(1j * total_phase), n=state.n, m=state.m
    )


def outcome_probabilities(state):
    """|amplitude|^2 for every canonical basis state."""
    return np.abs(state.amplitudes) ** 2


def run_circuit(initial, plan, t_step, tau_bg, tau_tb, apply_phases=True):
    """Alternate decay and coherent layers; record per-step survival.

    Decay acts before each layer.  Output phases are applied after the last
    layer; they change no survival ratio.
    """
    if plan.m != initial.m:
        raise ValidationError(
            f"plan has {plan.m} modes but the state has {initial.m}"
        )
    diag = build_decay_diagonal(initial.n, initial.m, tau_bg, tau_tb)
    state = initial
    ratios = []
    for layer in plan.layers:
        before = state.norm_squared()
        state = apply_decay(state, diag, t_step)
        state = apply_layer(state, layer)
        ratios.append(state.norm_squared() / before)
    if apply_phases:
        state = apply_output_phases(state, plan.output_phases)
    p_j = np.asarray(ratios)
    trace = SurvivalTrace(p_j=p_j, p_total=float(np.prod(p_j)), steps=len(ratios))
    return state, trace


def _one_realization(n, m, t_step, tau_tb, seedseq):
    # the realization's first spawned child seeds its unitary
    u = haar_random_unitary(m, seedseq.spawn(1)[0])
    plan = clements_decompose(u)
    _, trace = run_circuit(uniform_state(n, m), plan, t_step, math.inf, tau_tb, apply_phases=False)
    return trace


def benchmark_vs_model(n, m, tau_tb_over_texec, realizations, seed):
    """Average stepped-circuit survival over random circuits vs the model.

    Each realization decomposes a fresh Haar unitary and runs the circuit
    from the uniform initial state with background loss switched off.  Times
    are measured in units of the step duration, so only the ratio of the
    pair lifetime to the execution time t_exec = M t_step matters; it must
    be a finite positive number.
    """
    if realizations < 1:
        raise ValidationError(f"need at least one realization, got {realizations}")
    if not (math.isfinite(tau_tb_over_texec) and tau_tb_over_texec > 0.0):
        raise ValidationError(f"tau_tb / t_exec must be finite and positive: {tau_tb_over_texec}")
    t_step = 1.0
    tau_tb = tau_tb_over_texec * m * t_step
    traces = [_one_realization(n, m, t_step, tau_tb, s) for s in spawn_seeds(seed, realizations)]
    p_j = np.vstack([t.p_j for t in traces])
    p_totals = np.asarray([t.p_total for t in traces])
    model_p_step = lossmodel.p_step_twobody(n, m, t_step, tau_tb, model="finite")
    return BenchmarkResult(
        n=n,
        m=m,
        tau_tb=tau_tb,
        t_step=t_step,
        realizations=realizations,
        p_j=p_j,
        p_totals=p_totals,
        model_p_step=model_p_step,
        model_p_step_pow_m=model_p_step**m,
        excluded_occupancy_mass=lossmodel.excluded_occupancy_mass(n, m),
    )
