"""Exact N-particle state-vector simulation of the stepped lossy circuit.

The state is a plain complex amplitude vector over the canonical N-particle
Fock basis on M modes; every public function takes and returns arrays, and
the atom number n travels beside them while M comes from the plan.  One
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
in one `fock.rank_table` term, so no sort or search is needed.  The fibers
of a pair are kept as one flat index in which each n_pair's fibers lie as
n_pair + 1 rows, one per atom count p in the first mode: a coupling gathers
its amplitudes once, multiplies each n_pair's contiguous (n_pair + 1, F)
slice from the left by its block, one zgemm per n_pair, and scatters them
back.  Couplings of one layer share no mode but their fibers share basis
rows, so they are applied one after another.

`run_circuit` is the one path through a circuit.  It evaluates the
coupling matrices of every slot of the plan in one call and their pair
blocks in one call per n_pair; a block sums only its nonzero terms, and an
idle slot (theta = phi = 0) keeps its block, which is exactly the identity.
It decays by the rates its caller passes, so `benchmark_vs_model` builds
them once for all its realizations.  Each step calls the two step kernels,
`apply_decay` and `apply_layer`, which check nothing and have no other
caller; they are module functions so that `bench/spans.py` times each half
of a step.  Norms are summed over the amplitudes' float view without BLAS,
so p_j has the same bits at any BLAS thread count.  `run_circuit` returns
the final amplitudes and the p_j vector; the total survival is their
product.  The plan's output phases change no p_j and are not applied.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import lossmodel
from .errors import ValidationError, check_count, check_lifetime, check_positive, check_time
from .fock import (basis_array, check_size_cap, multiset_dimension, rank_table, site_count,
                   state_rank)
from .interferometer import clements_decompose, coupling_matrix, haar_random_unitary, mesh_layers
from .parallel import spawn_seeds


@dataclass(frozen=True, eq=False)
class BenchmarkResult:
    """Simulated per-step survival versus the closed-form step model."""

    #: Step duration, the unit of every time (not a field).
    t_step = 1.0

    m: int
    tau_tb: float
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


def basis_state(state):
    """Amplitudes with all weight on one Fock basis state."""
    dim = check_size_cap(multiset_dimension(state.total, state.m), "amplitudes")
    amps = np.zeros(dim, dtype=complex)
    amps[state_rank(state)] = 1.0
    return amps


def build_decay_diagonal(n, m, tau_bg, tau_tb):
    """Loss rates for every basis state from its site occupancies.

    Each lifetime must be positive; inf switches its loss channel off.  The
    pair term sum_s n_s (n_s - 1) is added up one site at a time in a
    basis-length integer vector, so the narrow occupation table is never
    widened as a whole and no (dim, M/2) temporary is built.
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
    return n / (2.0 * tau_bg) + pair_terms / (4.0 * tau_tb)


@lru_cache(maxsize=256)
def _pair_fibers(n, m, mode):
    """Basis indices grouped into fibers of the coupled pair (mode, mode+1).

    Returns (flat, groups).  `flat` is one read-only index array holding
    every fiber; `groups` holds, for n_pair = 1..n in the order of `flat`,
    an (n_pair + 1, fibers) view `rows` into it, where rows[p, f] is the
    basis index of the f-th fiber's state with p atoms in `mode` and
    n_pair - p in the partner mode.  Row 0 holds the fibers' heads.
    """
    arr = basis_array(n, m)
    heads = np.flatnonzero(arr[:, mode] == 0)
    # atoms after `mode` in each head: n less those before it, a column at a time over the heads
    after = np.full(len(heads), n, dtype=np.intp)
    for column in range(mode):
        after -= arr[:, column][heads]
    paired = arr[:, mode + 1][heads]
    term = rank_table(n, m)[mode]
    pieces = []
    for n_pair in range(1, n + 1):
        fiber = paired == n_pair
        # moving p atoms into `mode` changes only that mode's rank term
        shift = term[after[fiber] - np.arange(n_pair + 1)[:, None]] - term[after[fiber]]
        pieces.append(heads[fiber] + shift)
    # intp, not int32: numpy would cast int32 indices on every gather (2x slower)
    flat = np.concatenate([piece.ravel() for piece in pieces] or [np.empty(0, dtype=np.intp)])
    flat.setflags(write=False)
    groups, start = [], 0
    for piece in pieces:
        groups.append(flat[start : start + piece.size].reshape(piece.shape))
        start += piece.size
    return flat, tuple(groups)


@lru_cache(maxsize=None)
def _block_terms(n_pair):
    """`_pair_block`'s valid terms: coefficients, exponents, sum rounds and scales.

    A term (p_out, p_in, i) is valid when none of its four exponents is
    negative; the valid i of an entry run from max(0, p_in + p_out - n_pair)
    to min(p_in, p_out).  Terms are ordered by their place d in that run:
    the first (n_pair + 1)^2 terms, d = 0, start every entry's sum in flat
    order, and rounds[d - 1] lists the flat entries p_out (n_pair + 1) + p_in
    that the next stretch of terms, at place d, is added to.
    """
    k = n_pair + 1
    p_out, p_in = np.divmod(np.arange(k * k), k)
    low = np.maximum(0, p_in + p_out - n_pair)
    count = np.minimum(p_in, p_out) - low + 1
    rounds = [np.flatnonzero(count > d) for d in range(count.max())]
    entry = np.concatenate(rounds)
    p_out, p_in = p_out[entry], p_in[entry]
    i = low[entry] + np.repeat(np.arange(len(rounds)), [len(r) for r in rounds])
    binom = np.array([[math.comb(a, b) for b in range(k)] for a in range(k)])
    coef = (binom[p_in, i] * binom[n_pair - p_in, p_out - i]).astype(float)
    # scales from exact integers, rounded once
    weight = [math.factorial(p) * math.factorial(n_pair - p) for p in range(k)]
    scale = np.array([[math.sqrt(w_out / w_in) for w_in in weight] for w_out in weight])
    return coef, (i, p_in - i, p_out - i, n_pair - p_in - p_out + i), rounds[1:], scale


def _cmul(x, y):
    # rounds each real product, as scalar arithmetic does; vectorized complex
    # multiplication may fuse a multiply and an add and change the last bit
    return (x.real * y.real - x.imag * y.imag) + 1j * (x.real * y.imag + x.imag * y.real)


def _pair_block(t2, n_pair):
    """Symmetric-power representation of (..., 2, 2) couplings on n_pair bosons.

    Entry [p_out, p_in] is sqrt(p_out! q_out! / (p_in! q_in!)) times the sum,
    in increasing i, of binomial(p_in, i) binomial(q_in, p_out - i)
    t00^i t10^(p_in - i) t01^(p_out - i) t11^(q_in - p_out + i), over the
    terms with no negative exponent.
    """
    coef, (e00, e10, e01, e11), rounds, scale = _block_terms(n_pair)
    k = np.arange(n_pair + 1)
    t00, t10, t01, t11 = (t2[..., r, c, None] ** k for r, c in ((0, 0), (1, 0), (0, 1), (1, 1)))
    terms = coef * t00[..., e00]
    for power, exponent in ((t10, e10), (t01, e01), (t11, e11)):
        terms = _cmul(terms, power[..., exponent])
    start = scale.size
    block = terms[..., :start]
    for entries in rounds:
        block[..., entries] += terms[..., start : start + len(entries)]
        start += len(entries)
    # C order: matmul takes the same BLAS path for every block
    return np.ascontiguousarray(scale * block.reshape(block.shape[:-1] + scale.shape))


def apply_decay(amps, factor):
    """One step's decay: multiply `amps`, in place, by exp(-rates t_step)."""
    amps *= factor


def apply_layer(amps, n, m, modes, blocks):
    """One step's coherent layer: apply, in place and in order, the couplings
    on pairs (mode, mode + 1) to `amps`.

    blocks[n_pair - 1][i] is the pair block of the coupling on modes[i].
    """
    for index, mode in enumerate(modes):
        flat, groups = _pair_fibers(n, m, mode)
        fibers = amps[flat]
        out = np.empty_like(fibers)
        start = 0
        for rows, block in zip(groups, blocks):
            part = slice(start, start + rows.size)
            # (k, k) @ (k, F): the wide operand is the contiguous p-major slice
            np.matmul(
                block[index],
                fibers[part].reshape(rows.shape),
                out=out[part].reshape(rows.shape),
            )
            start = part.stop
        amps[flat] = out


def run_circuit(amps, n, plan, rates, t_step):
    """Alternate decay and coherent layers from `amps`; return (amps, p_j).

    Decay by exp(-rates t_step) acts before each layer of
    `mesh_layers(plan.m)`.  The plan's output phases, which change no
    survival ratio, are not applied.  A step starting from zero norm has
    p_j = 0.
    """
    amps, rates = np.asarray(amps), np.asarray(rates, dtype=float)
    dim = multiset_dimension(n, plan.m)
    if len(amps) != dim:
        raise ValidationError(
            f"{len(amps)} amplitudes, but n={n} atoms on the plan's {plan.m} modes span {dim} states"
        )
    check_time(t_step)
    if np.shape(amps) != np.shape(rates):
        raise ValidationError(
            f"amplitudes of shape {np.shape(amps)} do not match rates of shape {np.shape(rates)}"
        )
    factor = np.exp(-rates * t_step)
    t2 = coupling_matrix(plan.theta, plan.phi)
    # per n_pair = 1..n, the pair blocks of every slot; a layer takes its slots' share
    stacks = [_pair_block(t2, n_pair) for n_pair in range(1, n + 1)]
    amps = amps.astype(complex)
    # squared norms summed without BLAS, whose threads would split the sum
    parts = amps.view(float)
    norm = float(np.einsum("i,i->", parts, parts))
    ratios, start = [], 0
    for layer in mesh_layers(plan.m):
        stop = start + len(layer)
        apply_decay(amps, factor)
        apply_layer(amps, n, plan.m, layer, [stack[start:stop] for stack in stacks])
        start = stop
        # this step's ending norm is the next step's starting norm
        after = float(np.einsum("i,i->", parts, parts))
        ratios.append(after / norm if norm else 0.0)
        norm = after
    return amps, np.asarray(ratios)


def benchmark_vs_model(n, m, tau_tb_over_texec, realizations, seed):
    """Average stepped-circuit survival over random circuits vs the model.

    Each realization decomposes a fresh Haar unitary and runs the circuit
    from the uniform initial state with background loss switched off.  Times
    are measured in units of the step duration, so only the ratio of the
    pair lifetime to the execution time t_exec = M t_step matters; it must
    be a finite positive number.
    """
    check_count("realizations", realizations, 1)
    check_positive("tau_tb / t_exec", tau_tb_over_texec)
    initial = uniform_state(n, m)  # checked against the cap before any unitary is drawn
    t_step = BenchmarkResult.t_step
    tau_tb = tau_tb_over_texec * m * t_step
    check_size_cap(realizations * m, f"survival ratios for {realizations} realizations of m={m}")
    rates = build_decay_diagonal(n, m, math.inf, tau_tb)
    # the realization's first spawned child seeds its unitary
    plans = (clements_decompose(haar_random_unitary(m, child.spawn(1)[0]))
             for child in spawn_seeds(seed, realizations))
    return BenchmarkResult(
        m=m,
        tau_tb=tau_tb,
        p_j=np.vstack([run_circuit(initial, n, plan, rates, t_step)[1] for plan in plans]),
        model_p_step=lossmodel.p_step_twobody(n, m, t_step, tau_tb),
        excluded_occupancy_mass=lossmodel.excluded_occupancy_mass(n, m),
    )
