"""End-to-end acceptance checks.

One test per criterion; each prints a PASS/FAIL line (run with `pytest -s`
to see them even on success).  Tolerances are fixed here, not configurable.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from atomsampler.errors import ValidationError
from atomsampler.exactsim import basis_state, benchmark_vs_model, build_decay_diagonal, run_circuit
from atomsampler.fock import FockState, enumerate_basis, multiset_dimension, site_occupancy, state_rank
from atomsampler.hom import HomOutcomes, bunching_from_p2, fit_bunching, hom_analytic, hom_monte_carlo, HomParams
from atomsampler.interferometer import (
    clements_decompose,
    composite_pulse,
    coupling_matrix,
    haar_random_unitary,
    reconstruct,
)
from atomsampler.lossmodel import (
    ClassicalScenario,
    PhotonicScenario,
    crossover,
    even_mode_count,
    p_pairs_trios,
    poisson_pair_limit,
    truncated_sector_mass,
)
from atomsampler.permanent import permanent_glynn, permanent_naive
from atomsampler.sampling import outcome_probability
from atomsampler.scenarios import load_bundle

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


def report(number, description, passed):
    print(f"ACCEPTANCE {number:02d} {'PASS' if passed else 'FAIL'}: {description}")
    assert passed, f"criterion {number} failed: {description}"


def test_criterion_01_hom_dip():
    one_one = FockState((1, 1))
    ok = True
    for splitter in (HADAMARD, coupling_matrix(np.pi / 2.0, 0.0)):
        ok &= outcome_probability(splitter, one_one, one_one) < 1e-12
        ok &= abs(outcome_probability(splitter, one_one, FockState((2, 0))) - 0.5) < 1e-12
        ok &= abs(outcome_probability(splitter, one_one, FockState((0, 2))) - 0.5) < 1e-12
    report(1, "two-atom dip is exact and bunched outcomes carry 0.5 each", ok)


def test_criterion_02_permanent_oracle():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for n in range(1, 9):
        for _ in range(100):
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            reference = permanent_naive(a)
            gap = abs(permanent_glynn(a) - reference) / max(1.0, abs(reference))
            worst = max(worst, gap)
    report(2, f"Glynn matches the factorial oracle (worst rel err {worst:.2e})", worst < 1e-10)


def test_criterion_03_mesh_round_trip():
    worst = 0.0
    structure_ok = True
    for m in (2, 4, 8, 12, 16):
        for trial in range(20):
            u = haar_random_unitary(m, seed=1000 * m + trial)
            plan = clements_decompose(u)
            structure_ok &= plan.coupling_count <= m * (m - 1) // 2
            structure_ok &= plan.depth <= m
            worst = max(worst, np.linalg.norm(reconstruct(plan) - u))
    report(
        3,
        f"mesh decomposition round-trips 100 Haar unitaries (worst Frobenius {worst:.2e})",
        structure_ok and worst < 1e-10,
    )


def test_criterion_04_composite_pulse():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(1000):
        theta = rng.uniform(0.0, np.pi)
        phi = rng.uniform(0.0, 2.0 * np.pi)
        gap = np.abs(
            composite_pulse(theta, phi).as_matrix() - coupling_matrix(theta, phi)
        ).max()
        worst = max(worst, gap)
    report(4, f"composite pulse reproduces couplings (worst {worst:.2e})", worst < 1e-12)


def test_criterion_05_pair_trio_exactness():
    ok = True
    for n, m in ((2, 2), (2, 4), (3, 8), (4, 8), (5, 12), (6, 12)):
        tallies = {}
        in_sector = 0
        for state in enumerate_basis(n, m):
            so = site_occupancy(state)
            if max(so) <= 3:
                key = (so.count(2), so.count(3))
                tallies[key] = tallies.get(key, 0) + 1
                in_sector += 1
        dim = multiset_dimension(n, m)
        for k3 in range(n // 3 + 1):
            for k2 in range((n - 3 * k3) // 2 + 1):
                expected = Fraction(tallies.get((k2, k3), 0), dim)
                ok &= p_pairs_trios(n, m, k2, k3) == expected
        ok &= truncated_sector_mass(n, m) == Fraction(in_sector, dim)
    report(5, "pair/trio probabilities match exhaustive enumeration exactly", ok)


def test_criterion_06_poisson_convergence():
    deviations = []
    for n in (3, 9, 27):
        m = even_mode_count(n, 1.0)
        deviations.append(
            max(
                abs(p_pairs_trios(n, m, k2, 0) - poisson_pair_limit(1.0, k2))
                for k2 in range(6)
            )
        )
    ok = deviations[0] > deviations[1] > deviations[2]
    report(
        6,
        "pair distribution approaches the Poisson law monotonically "
        f"(deviations {', '.join(f'{d:.3f}' for d in deviations)})",
        ok,
    )


def test_criterion_07_lossy_benchmark():
    # (a) per-step correspondence at tau = t_exec
    result = benchmark_vs_model(4, 16, 1.0, realizations=30, seed=11)
    per_step = np.abs(result.mean_p_j - result.model_p_step).max()
    ok_a = per_step < 0.01

    # (b) lower bound everywhere; per-step correspondence persists above t_exec
    ratios = sorted(set([1.0, 0.2, 0.05]) | set(np.geomspace(0.05, 20.0, 10).round(4)))
    ok_lower = True
    ok_correspondence = True
    for ratio in ratios:
        r = benchmark_vs_model(4, 16, float(ratio), realizations=30, seed=11)
        ok_lower &= r.mean_p_total >= r.model_p_step_pow_m - 0.01
        if ratio >= 1.0:
            ok_correspondence &= np.abs(r.mean_p_j - r.model_p_step).max() < 0.01
    report(
        7,
        f"stepped-loss model: per-step gap {per_step:.4f} at tau=t_exec, "
        "survival lower bound holds across the sweep",
        ok_a and ok_lower and ok_correspondence,
    )


def test_criterion_08_photonic_rate():
    experiment = PhotonicScenario(r0=76e6, eta_f=0.14, eta_c=0.987 ** (1.0 / 60.0))
    from atomsampler.lossmodel import r_photonic

    rate = r_photonic(experiment, 5, depth=60)
    ok = abs(rate - 295.0) / 295.0 < 0.10
    report(8, f"five-photon reference configuration gives {rate:.1f} Hz (target 295)", ok)


def test_criterion_09_quantum_advantage_crossover():
    sota = load_bundle("state-of-the-art")
    conservative = load_bundle("conservative")
    star = crossover(sota.loss, sota.classical)
    conservative_star = crossover(conservative.loss, conservative.classical)
    ok = star is not None and 33 <= star <= 41
    ok &= conservative_star is None or conservative_star > star
    report(
        9,
        f"crossover at N*={star} (state of the art) and "
        f"{'beyond range' if conservative_star is None else conservative_star} (conservative)",
        ok,
    )


def test_criterion_10_hom_pipeline():
    params = HomParams(survival_s=0.84, p_lic0=0.71, gamma=0.462, p_addr=0.95, p_rec=0.99)
    analytic = hom_analytic(params)
    mc = hom_monte_carlo(params, 10**6, seed=1)
    mc_gap = np.abs(mc.triple() - analytic.triple()).max()
    ok = mc_gap < 0.002

    synthetic = hom_monte_carlo(params, 10**6, seed=6)
    fit = fit_bunching(synthetic, survival_s=0.84, p_lic0=0.71, seed=8)
    ok &= abs(fit.p_bunch - 0.731) < 0.01

    inverted = bunching_from_p2(0.19, 0.84)
    ok &= abs(inverted - 0.731) < 0.001
    report(
        10,
        f"interference pipeline: MC gap {mc_gap:.4f}, fit {fit.p_bunch:.4f}, "
        f"inversion {inverted:.4f}",
        ok,
    )


def test_criterion_11_cross_module_oracle():
    worst = 0.0
    cases = [(2, 4), (3, 6), (2, 6), (3, 4), (1, 6)]
    circuits = 0
    for n, m in cases:
        for trial in range(4):
            u = haar_random_unitary(m, seed=100 * n + 10 * m + trial)
            plan = clements_decompose(u)
            occ = [0] * m
            for j in range(n):
                occ[j] = 1
            inp = FockState(tuple(occ))
            lossless = build_decay_diagonal(n, m, math.inf, math.inf)
            final, _ = run_circuit(basis_state(inp), n, plan, lossless)
            probs = np.abs(final) ** 2
            for out in enumerate_basis(n, m):
                gap = abs(probs[state_rank(out)] - outcome_probability(u, inp, out))
                worst = max(worst, gap)
            circuits += 1
    assert circuits == 20
    report(
        11,
        f"exact propagation matches permanent probabilities (worst {worst:.2e})",
        worst < 1e-10,
    )
