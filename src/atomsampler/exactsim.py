"""Exact N-particle state-vector simulation of the stepped lossy circuit.

The state is a plain complex amplitude vector over the canonical N-particle
Fock basis on M modes; every public function takes and returns arrays, and
the atom number n travels beside them while M comes from the plan.  Time is
counted in circuit steps.  One step applies the non-unitary decay factor
exp(-H) followed by the coherent couplings of one mesh layer, where H is
diagonal in the Fock basis with per-state rate per step

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
in one `fock.rank_table` term, so no sort or search is needed.  One pass
over the basis builds the fibers of every pair, and only the last geometry
(n, m) is kept.  A pair's fibers with n_pair atoms are one (n_pair + 1, F)
index array, one row per atom count p in the first mode: a coupling
gathers each group, multiplies it from the left by its block, one zgemm
per n_pair, and scatters it back.  Couplings of one layer share no mode
but their fibers share basis rows, so they are applied one after another.

A coupling's pair blocks grow one atom at a time (Risbo's recursion for
Wigner D-matrices, J. Geodesy 70, 383 (1996)): each entry of the n_pair
block is a weighted sum of four entries of the n_pair - 1 block, each
weight the root of an exact integer product, so an idle slot
(theta = phi = 0) gets exactly the identity and no binomial sum cancels.
The blocks for n_pair = 1..n cost O(n^3) per coupling and stay unitary:
max |B^H B - I| grows about as n_pair times the coupling's own defect (up
to 2.2e-16 from `coupling_matrix`), and the stated bound is 1e-13 for
n_pair <= 200.

`run_circuit` is the one path through a circuit.  It evaluates the
coupling matrices of every slot of the plan in one call and their pair
blocks in one recursion, and hands each layer the blocks of its slots in
turn.  Those blocks, slots x sum over k = 1..n of (k + 1)^2 entries, are
asked of `fock.check_size_cap` before any is built.  It decays by the
per-step rates its caller passes, each >= 0 or inf, so
`benchmark_vs_model` builds them once for all its realizations.
A lossless run keeps every p_j and its norm within 1e-12 of 1.  A step's
survival is capped at 1, which a lossless step can round past.  Each step
calls the two step kernels, `apply_decay` and `apply_layer`, which check
nothing and have no other caller; they are module functions so that
`bench/spans.py` times each half of a step.  Norms are summed over the
amplitudes' float view without BLAS, so p_j has the same bits at any BLAS
thread count.  `run_circuit` returns the final amplitudes and the p_j
vector; the total survival is their product.  The plan's output phases
change no p_j and are not applied.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice

import numpy as np

from . import lossmodel
from .errors import (ValidationError, as_array, check_count, check_lifetime, check_positive,
                     check_rates)
from .fock import basis_array, check_size_cap, multiset_dimension, rank_table, site_count
from .interferometer import clements_decompose, coupling_matrix, haar_random_unitary, mesh_layers


@dataclass(frozen=True, eq=False)
class BenchmarkResult:
    """Simulated per-step survival versus the closed-form step model."""

    m: int
    p_j: np.ndarray  # (realizations, steps)
    model_p_step: float
    excluded_occupancy_mass: float

    @property
    def mean_p_j(self):
        return self.p_j.mean(axis=0)

    @property
    def mean_p_total(self):
        return float(self.p_j.prod(axis=1).mean())

    @property
    def model_p_step_pow_m(self):
        return self.model_p_step**self.m


def uniform_state(n, m):
    """Normalized amplitudes, equal, positive and real, over the whole (n, m) basis."""
    dim = check_size_cap(multiset_dimension(n, m), "amplitudes")
    return np.ones(dim, dtype=complex) / np.sqrt(dim)


def build_decay_diagonal(n, m, tau_bg, tau_tb):
    """Loss rates for every basis state from its site occupancies.

    Rates are per unit of the lifetimes' time, per step for lifetimes in
    steps.  Each lifetime must be positive; inf switches its loss channel
    off.  The pair term sum_s n_s (n_s - 1) is added up one site at a time
    in a basis-length integer vector, so the narrow occupation table is
    never widened as a whole and no (dim, M/2) temporary is built.
    """
    check_lifetime("tau_bg", tau_bg)
    check_lifetime("tau_tb", tau_tb)
    sites = site_count(m)
    arr = basis_array(n, m)
    pair_terms = np.zeros(len(arr), dtype=np.int64)
    site = np.empty_like(pair_terms)
    term = np.empty_like(pair_terms)
    for s in range(sites):
        np.add(arr[:, 2 * s], arr[:, 2 * s + 1], out=site, dtype=np.int64)
        np.subtract(site, 1, out=term)
        term *= site
        pair_terms += term
    # a lifetime so short that a pair's rate leaves the float range gives it an infinite rate
    with np.errstate(over="ignore"):
        return n / (2.0 * tau_bg) + pair_terms / (4.0 * tau_tb)


@lru_cache(maxsize=1)
def _pair_fibers(n, m):
    """Basis indices grouped into fibers: per pair (mode, mode+1), one group per n_pair.

    The groups of a pair are, for n_pair = 1..n, read-only intp
    (n_pair + 1, fibers) arrays `rows`, where rows[p, f] is the basis index
    of the f-th fiber's state with p atoms in `mode` and n_pair - p in the
    partner mode.  Row 0 holds the fibers' heads.
    """
    arr = basis_array(n, m)
    # atoms from `mode` on in every row, a running count as `mode` advances
    after = np.full(len(arr), n, dtype=np.intp)
    pairs = []
    for mode, term in enumerate(rank_table(n, m)[:-1]):
        heads = np.flatnonzero(arr[:, mode] == 0)
        paired, heads_after = arr[heads, mode + 1], after[heads]
        after -= arr[:, mode]
        groups = []
        for n_pair in range(1, n + 1):
            fiber = paired == n_pair
            # moving p atoms into `mode` changes only that mode's rank term;
            # intp, not int32: numpy would cast int32 indices on every gather (2x slower)
            atoms = heads_after[fiber]
            rows = heads[fiber] + term[atoms - np.arange(n_pair + 1)[:, None]] - term[atoms]
            rows.setflags(write=False)
            groups.append(rows)
        pairs.append(tuple(groups))
    return tuple(pairs)


def _cmul(x, y):
    # rounds each real product, as scalar arithmetic does; vectorized complex
    # multiplication may fuse a multiply and an add and change the last bit
    return (x.real * y.real - x.imag * y.imag) + 1j * (x.real * y.imag + x.imag * y.real)


def _pair_blocks(t2, n):
    """Symmetric-power representations of (..., 2, 2) couplings on n_pair = 1..n bosons.

    Entry [p_out, p_in] of block k is the permanent of t2 with row 0 taken
    p_out times, row 1 q_out = k - p_out times, column 0 p_in times and
    column 1 q_in = k - p_in times, over sqrt(p_out! q_out! p_in! q_in!).
    Block k grows from block k - 1 by one atom: its entry is 1/k times
    sqrt(p_out p_in) t00 B[p_out - 1, p_in - 1] + sqrt(q_out p_in) t10 B[p_out, p_in - 1]
    + sqrt(p_out q_in) t01 B[p_out - 1, p_in] + sqrt(q_out q_in) t11 B[p_out, p_in].
    """
    block = np.ones(t2.shape[:-2] + (1, 1), dtype=complex)
    blocks = []
    for k in range(1, n + 1):
        atoms = np.arange(1, k + 1)
        # per mode of t2: the block-k rows (or columns) that take an atom from it, and their counts
        sides = ((slice(1, None), atoms), (slice(None, -1), atoms[::-1]))
        # C order: every slot's block is C-contiguous, so matmul takes one BLAS path
        grown = np.zeros(t2.shape[:-2] + (k + 1, k + 1), dtype=complex)
        for r, c in ((0, 0), (1, 0), (0, 1), (1, 1)):
            (rows, out), (cols, into) = sides[r], sides[c]
            # weights from exact integers, rounded once
            weight = np.sqrt(np.outer(out, into))
            grown[..., rows, cols] += weight * _cmul(t2[..., r, c, None, None], block)
        # real and imaginary parts divided apart: complex division by k multiplies
        # by a rounded 1 / k, and 49 * (1 / 49) rounds below 1
        parts = grown.view(float)
        parts /= k
        blocks.append(grown)
        block = grown
    return blocks


def apply_decay(amps, factor):
    """One step's decay: multiply `amps`, in place, by exp(-rates)."""
    amps *= factor


def apply_layer(amps, n, m, modes, couplings):
    """One step's coherent layer: apply, in place and in order, the couplings
    on pairs (mode, mode + 1) to `amps`.

    couplings[i] holds the pair blocks, n_pair = 1..n, of the coupling on
    modes[i]; each block acts on its own group of fibers.
    """
    for mode, blocks in zip(modes, couplings):
        for rows, block in zip(_pair_fibers(n, m)[mode], blocks):
            # (k, k) @ (k, F): the wide operand is the gathered p-major group
            amps[rows] = block @ amps[rows]


def run_circuit(amps, n, plan, rates):
    """Alternate decay and coherent layers from `amps`; return (amps, p_j).

    Decay by exp(-rates) acts before each layer of `mesh_layers(plan.m)`;
    every rate is per step, >= 0 or inf (steps of duration t take rates * t).
    The plan's output phases, which change no survival ratio, are not applied.
    A step starting from zero norm has p_j = 0, and no p_j exceeds 1.
    """
    amps, rates = as_array(amps, complex, "amps").copy(), as_array(rates, float, "rates")
    dim = multiset_dimension(n, plan.m)
    if amps.shape != (dim,):
        raise ValidationError(
            f"amplitudes of shape {amps.shape}, but n={n} atoms on the plan's {plan.m} modes"
            f" span a vector of {dim} states"
        )
    if np.shape(amps) != np.shape(rates):
        raise ValidationError(
            f"amplitudes of shape {np.shape(amps)} do not match rates of shape {np.shape(rates)}"
        )
    check_rates(rates)
    # every slot's pair blocks are held at once: sum over k = 1..n of (k + 1)^2 entries each
    check_size_cap(plan.coupling_count * ((n + 1) * (n + 2) * (2 * n + 3) // 6 - 1),
                   f"pair block entries for n={n} on {plan.coupling_count} slots")
    factor = np.exp(-rates)
    t2 = coupling_matrix(plan.theta, plan.phi)
    # per slot, in layer order, its pair blocks for n_pair = 1..n; a layer takes the next ones
    couplings = zip(*_pair_blocks(t2, n))
    # squared norms summed without BLAS, whose threads would split the sum
    parts = amps.view(float)
    norm = float(np.einsum("i,i->", parts, parts))
    ratios = []
    for layer in mesh_layers(plan.m):
        apply_decay(amps, factor)
        apply_layer(amps, n, plan.m, layer, islice(couplings, len(layer)))
        # this step's ending norm is the next step's starting norm
        after = float(np.einsum("i,i->", parts, parts))
        # a lossless step can round its ratio past 1; no step gains norm
        ratios.append(min(after / norm, 1.0) if norm else 0.0)
        norm = after
    return amps, np.asarray(ratios)


def benchmark_vs_model(n, m, tau_tb_over_texec, realizations, seed):
    """Average stepped-circuit survival over random circuits vs the model.

    Each realization decomposes a fresh Haar unitary and runs the circuit
    from the uniform initial state with background loss switched off.  Times
    are counted in steps, so only the ratio of the pair lifetime to the
    execution time t_exec = M steps matters; it must be a finite positive
    number.
    """
    check_count("realizations", realizations, 1)
    check_positive("tau_tb / t_exec", tau_tb_over_texec)
    check_size_cap(multiset_dimension(n, m), "amplitudes")
    tau_tb = tau_tb_over_texec * m
    check_size_cap(realizations * m, f"survival ratios for {realizations} realizations of m={m}")
    site_count(m)
    # the model builds no basis: a geometry it refuses is refused before any table is built
    model_p_step = lossmodel.p_step_twobody(n, m, 1.0, tau_tb)
    excluded = lossmodel.excluded_occupancy_mass(n, m)
    initial = uniform_state(n, m)
    rates = build_decay_diagonal(n, m, math.inf, tau_tb)
    # each realization spawns its child of the root as it starts, the same child
    # that spawning all of them at once gives; that child's first child seeds its unitary
    root = np.random.SeedSequence(seed)
    plans = (clements_decompose(haar_random_unitary(m, root.spawn(1)[0].spawn(1)[0]))
             for _ in range(realizations))
    return BenchmarkResult(
        m=m,
        p_j=np.vstack([run_circuit(initial, n, plan, rates)[1] for plan in plans]),
        model_p_step=model_p_step,
        excluded_occupancy_mass=excluded,
    )
