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
in one `fock.rank_table` term, so no sort or search is needed.  One pass
over the basis builds the fibers of every pair, and only the last geometry
(n, m) is kept.  A pair's fibers with n_pair atoms are one (n_pair + 1, F)
index array, one row per atom count p in the first mode: a coupling
gathers each group, multiplies it from the left by its block, one zgemm
per n_pair, and scatters it back.  Couplings of one layer share no mode
but their fibers share basis rows, so they are applied one after another.

`run_circuit` is the one path through a circuit.  It evaluates the
coupling matrices of every slot of the plan in one call and their pair
blocks in one call per n_pair, and hands each layer the blocks of its
slots in turn; a block sums only its nonzero terms, and an idle slot
(theta = phi = 0) keeps its block, which is exactly the identity.  It
decays by the rates its caller passes, each >= 0 or inf, so
`benchmark_vs_model` builds them once for all its realizations.  A step's
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
from .errors import (ValidationError, check_count, check_lifetime, check_positive, check_rates,
                     check_time)
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


def run_circuit(amps, n, plan, rates, t_step):
    """Alternate decay and coherent layers from `amps`; return (amps, p_j).

    Decay by exp(-rates t_step) acts before each layer of
    `mesh_layers(plan.m)`; every rate is >= 0 or inf.  The plan's output
    phases, which change no survival ratio, are not applied.  A step
    starting from zero norm has p_j = 0, and no p_j exceeds 1.
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
    check_rates(rates)
    # a zero step keeps every amplitude, even at an infinite rate, where inf * 0 is nan;
    # a decay past the float range keeps none
    with np.errstate(over="ignore"):
        factor = np.exp(-rates * t_step) if t_step else np.ones(len(rates))
    t2 = coupling_matrix(plan.theta, plan.phi)
    # per slot, in layer order, its pair blocks for n_pair = 1..n; a layer takes the next ones
    couplings = zip(*(_pair_block(t2, n_pair) for n_pair in range(1, n + 1)))
    amps = amps.astype(complex)
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
    # the model draws no random number: a geometry it refuses is refused before any circuit runs
    model_p_step = lossmodel.p_step_twobody(n, m, t_step, tau_tb)
    excluded = lossmodel.excluded_occupancy_mass(n, m)
    # the realization's first spawned child seeds its unitary
    plans = (clements_decompose(haar_random_unitary(m, child.spawn(1)[0]))
             for child in spawn_seeds(seed, realizations))
    return BenchmarkResult(
        m=m,
        tau_tb=tau_tb,
        p_j=np.vstack([run_circuit(initial, n, plan, rates, t_step)[1] for plan in plans]),
        model_p_step=model_p_step,
        excluded_occupancy_mass=excluded,
    )
