import math
from dataclasses import replace
from fractions import Fraction

import pytest

from atomsampler.errors import SizeCapError, ValidationError
from atomsampler.fock import enumerate_basis, multiset_dimension, site_occupancy
from atomsampler.lossmodel import (
    FINITE_MODEL_CAP,
    ClassicalScenario,
    LossScenario,
    PhotonicScenario,
    circuit_steps,
    crossover,
    even_mode_count,
    excluded_occupancy_mass,
    n_threshold,
    p_pairs_trios,
    p_step_background,
    p_step_twobody,
    p_step_twobody_closed,
    p_survival,
    poisson_pair_limit,
    r_classical,
    r_ideal,
    r_nisq,
    r_photonic,
    truncated_sector_mass,
)
from atomsampler.scenarios import load_bundle

SOTA = load_bundle("state-of-the-art")
CONSERVATIVE = load_bundle("conservative")
LOSSLESS = load_bundle("lossless")


def enumerated_sector_probability(n, m, k2, k3):
    """Oracle: count basis states with the requested site-occupancy pattern."""
    count = 0
    for state in enumerate_basis(n, m):
        so = site_occupancy(state)
        if max(so) <= 3 and so.count(2) == k2 and so.count(3) == k3:
            count += 1
    return Fraction(count, multiset_dimension(n, m))


@pytest.mark.parametrize("n,m", [(2, 2), (2, 4), (3, 8), (4, 8)])
def test_pairs_trios_exact_against_enumeration(n, m):
    for k3 in range(n // 3 + 1):
        for k2 in range((n - 3 * k3) // 2 + 1):
            assert p_pairs_trios(n, m, k2, k3) == enumerated_sector_probability(
                n, m, k2, k3
            )


def test_pairs_trios_examples():
    assert p_pairs_trios(2, 2, 1, 0) == pytest.approx(1.0)
    assert p_pairs_trios(2, 4, 1, 0) == pytest.approx(0.6)
    assert p_pairs_trios(2, 4, 0, 0) == pytest.approx(0.4)
    assert p_pairs_trios(4, 8, 5, 0) == 0.0  # unsatisfiable occupancy
    with pytest.raises(ValidationError):
        p_pairs_trios(2, 3, 0, 0)
    with pytest.raises(ValidationError):
        p_pairs_trios(2, 4, -1, 0)


def test_sector_mass_matches_enumeration():
    n, m = 5, 12
    total = sum(
        1 for s in enumerate_basis(n, m) if max(site_occupancy(s)) <= 3
    )
    expected = Fraction(total, multiset_dimension(n, m))
    assert truncated_sector_mass(n, m) == expected
    assert excluded_occupancy_mass(n, m) == pytest.approx(float(1 - expected), abs=1e-15)


def test_poisson_limit_values():
    assert poisson_pair_limit(1.0, 0) == pytest.approx(math.exp(-1.5), abs=1e-12)
    assert sum(poisson_pair_limit(1.0, k) for k in range(60)) == pytest.approx(1.0)
    with pytest.raises(ValidationError):
        poisson_pair_limit(0.0, 1)


def test_poisson_limit_past_the_float_factorial():
    # 171! exceeds the float range; the probability does not
    for k2 in (0, 5, 170, 171, 300):
        exact = Fraction(1.5) ** k2 * Fraction(math.exp(-1.5)) / math.factorial(k2)
        assert poisson_pair_limit(1.0, k2) == pytest.approx(float(exact), rel=1e-12)
    assert 0.0 < poisson_pair_limit(0.01, 200) < 1.0  # 150^200 exceeds the float range too


def test_pair_distribution_converges_to_poisson():
    deviations = []
    for n in (3, 9, 27):
        m = even_mode_count(n, 1.0)
        dev = max(
            abs(p_pairs_trios(n, m, k2, 0) - poisson_pair_limit(1.0, k2))
            for k2 in range(6)
        )
        deviations.append(dev)
    assert deviations[0] > deviations[1] > deviations[2]
    # frozen magnitude at N=27: the finite-size gap is ~0.037, not yet 0.02
    assert deviations[2] < 0.04


def test_p_step_twobody_boundaries():
    assert p_step_twobody(4, 16, 0.0, 1.0) == pytest.approx(1.0, abs=1e-12)
    # strong-loss limit of the closed form: the collisionless mass
    assert p_step_twobody_closed(1.0, 1e9, 1.0) == pytest.approx(math.exp(-1.5), rel=1e-9)
    # weak-loss limit decays as exp(-3 t / (2 tau))
    t = 1e-3
    approx = math.exp(-1.5 * t)
    assert abs(p_step_twobody_closed(1.0, t, 1.0) - approx) / approx < 1e-3


@pytest.mark.parametrize("c", [5e-324, 1e-310])
def test_closed_step_survival_of_a_subnormal_mode_ratio(c):
    # a decay as small as c: the exponent is -1.5, where 1.5 / c alone overflows
    assert p_step_twobody_closed(c, c, 1.0) == pytest.approx(math.exp(-1.5), rel=1e-12)


def test_p_step_twobody_monotone_and_bounded():
    values = [p_step_twobody(4, 16, t, 1.0) for t in (0.0, 0.1, 0.5, 1.0, 5.0, 50.0)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    floor = p_pairs_trios(4, 16, 0, 0)
    assert all(v >= floor for v in values)


def test_p_step_twobody_model_switch():
    for n in (10, 50):  # an unknown name is refused at any N
        for rate in (p_survival, r_nisq):
            with pytest.raises(ValidationError, match="unknown model"):
                rate(SOTA.loss, n, model="bogus")
    with pytest.raises(ValidationError, match="unknown model"):
        crossover(SOTA.loss, SOTA.classical, model="bogus")


def reference_sector(n, m):
    """(k2, k3, exact probability) of every nonzero sector, one `Fraction` per term."""
    return [
        (k2, k3, p)
        for k3 in range(n // 3 + 1)
        for k2 in range((n - 3 * k3) // 2 + 1)
        if (p := p_pairs_trios(n, m, k2, k3))
    ]


@pytest.mark.parametrize("preset", [SOTA, CONSERVATIVE], ids=["state-of-the-art", "conservative"])
def test_sector_sum_matches_the_per_term_fractions_bit_for_bit(preset):
    s = preset.loss
    for n in range(2, 61):
        m = even_mode_count(n, s.mode_ratio_c)
        terms = reference_sector(n, m)
        weights = [float(p) for _, _, p in terms]
        decayed = sum(
            w * math.exp(-(k2 + 3.0 * k3) * s.t_step / s.tau_tb)
            for (k2, k3, _), w in zip(terms, weights)
        )
        assert p_step_twobody(n, m, s.t_step, s.tau_tb) == decayed / sum(weights)
        mass = sum((p for _, _, p in terms), Fraction(0))
        assert truncated_sector_mass(n, m) == mass
        assert excluded_occupancy_mass(n, m) == float(1 - mass)


@pytest.mark.parametrize("preset", [SOTA, CONSERVATIVE], ids=["state-of-the-art", "conservative"])
def test_rate_curve_has_no_seam_near_forty_atoms(preset):
    # one survival model for every N: each step r(N)/r(N+1) is within 10 % of the next
    steps = [r_nisq(preset.loss, n) / r_nisq(preset.loss, n + 1) for n in range(36, 46)]
    for a, b in zip(steps, steps[1:]):
        assert abs(b / a - 1.0) < 0.1


def test_finite_sum_is_capped_and_the_closed_form_is_not():
    n = FINITE_MODEL_CAP + 1
    m = even_mode_count(n, 1.0)
    for call in (
        lambda: p_step_twobody(n, m, 1e-4, 1.0),
        lambda: excluded_occupancy_mass(n, m),
        lambda: p_survival(SOTA.loss, n, model="finite"),
    ):
        with pytest.raises(SizeCapError, match="--model closed"):
            call()
    assert 0.0 < p_survival(SOTA.loss, n, model="closed") < 1.0


def test_finite_and_closed_models_agree_at_large_n():
    for n in (100, 150):
        m = even_mode_count(n, 1.0)
        for t_over_tau in (0.01, 0.05, 0.1):
            finite = p_step_twobody(n, m, t_over_tau, 1.0)
            closed = p_step_twobody_closed(m / n**2, t_over_tau, 1.0)
            assert abs(finite - closed) / closed < 0.01


def test_p_step_background_values():
    assert p_step_background(5, 0.0, 1.0) == 1.0
    assert p_step_background(1, 1.0, 1.0) == pytest.approx(math.exp(-1.0))
    expected = math.exp(-37 * 33e-6 / 360.0)
    assert p_step_background(37, 33e-6, 360.0) == pytest.approx(expected, rel=1e-12)
    assert 37 * 33e-6 / 360.0 == pytest.approx(3.3917e-6, rel=1e-4)


@pytest.mark.parametrize("t", [math.nan, math.inf, -1.0])
def test_step_survivals_refuse_non_finite_or_negative_times(t):
    with pytest.raises(ValidationError, match="finite and non-negative"):
        p_step_twobody(4, 16, t, 1.0)
    with pytest.raises(ValidationError, match="finite and non-negative"):
        p_step_twobody_closed(1.0, t, 1.0)
    with pytest.raises(ValidationError, match="finite and non-negative"):
        p_step_background(5, t, 1.0)


@pytest.mark.parametrize("c", [0.0, -1.0, -math.inf, math.nan])
def test_closed_step_survival_refuses_a_mode_ratio_that_is_not_positive(c):
    with pytest.raises(ValidationError, match="mode ratio c must be finite and positive"):
        p_step_twobody_closed(c, 1.0, 1.0)


def test_p_survival_limits_and_identity():
    no_loss = LossScenario(
        t_step=33e-6, tau_bg=math.inf, tau_tb=math.inf, t_init=0.5, t_det=0.1,
        eta_init=0.99, eta_det=0.99,
    )
    assert p_survival(no_loss, 10, model="finite") == pytest.approx(1.0, abs=1e-15)

    s = SOTA.loss
    # background factor alone: exp(-N^3 t / tau_bg), about 0.9954 at N=37
    bg_only = LossScenario(
        t_step=s.t_step, tau_bg=s.tau_bg, tau_tb=math.inf, t_init=s.t_init,
        t_det=s.t_det, eta_init=s.eta_init, eta_det=s.eta_det,
    )
    expected = math.exp(-(37**3) * s.t_step / s.tau_bg)
    assert p_survival(bg_only, 37, model="finite") == pytest.approx(expected, rel=1e-10)
    assert expected == pytest.approx(0.9954, abs=5e-4)

    # closed-form algebraic identity
    for n in (50, 100, 213):
        direct = math.exp(
            -(n**3) * s.t_step / s.tau_bg
            + n**2 * 1.5 * math.expm1(-s.t_step / s.tau_tb)
        )
        assert abs(p_survival(s, n, model="closed") - direct) <= 1e-12 * direct


def test_n_threshold():
    assert n_threshold(LossScenario(1e-5, 360.0, 0.4, 0.5, 0.1, 0.99, 0.99)) == pytest.approx(1350.0)
    assert n_threshold(LossScenario(1e-5, 360.0, 0.04, 0.5, 0.1, 0.99, 0.99)) == pytest.approx(13500.0)
    assert n_threshold(LossScenario(1e-5, 720.0, 0.4, 0.5, 0.1, 0.99, 0.99)) == pytest.approx(2700.0)


def test_r_ideal_values():
    bare = LossScenario(
        t_step=1e-4, tau_bg=math.inf, tau_tb=math.inf, t_init=1e-30, t_det=1e-30,
        eta_init=1.0, eta_det=1.0,
    )
    assert r_ideal(bare, 1) == pytest.approx(1.0 / (math.e * 1e-4), rel=1e-9)
    direct = (1.0 / math.e) / (37**2 * 33e-6 + 0.5 + 0.1)
    assert r_ideal(SOTA.loss, 37) == pytest.approx(direct, rel=1e-12)
    assert direct == pytest.approx(0.570, abs=5e-4)
    rates = [r_ideal(SOTA.loss, n) for n in range(1, 60)]
    assert all(a > b for a, b in zip(rates, rates[1:]))


def test_r_nisq_values():
    assert r_nisq(LOSSLESS.loss, 12) == pytest.approx(r_ideal(LOSSLESS.loss, 12), rel=1e-15)
    value = r_nisq(SOTA.loss, 37)
    assert value == pytest.approx(0.23, abs=0.01)
    assert value <= r_ideal(SOTA.loss, 37)
    for n in (2, 10, 30, 80):
        assert 0.0 < r_nisq(SOTA.loss, n) <= r_ideal(SOTA.loss, n)
        assert 0.0 < r_nisq(CONSERVATIVE.loss, n) <= r_ideal(CONSERVATIVE.loss, n)


def test_r_nisq_cross_checked_against_exactsim():
    # reduced-size survival: simulate the conservative scenario at N=2, M=4
    # and compare the model's survival factor over the circuit depth
    import numpy as np

    from atomsampler import benchmark_vs_model

    s = CONSERVATIVE.loss
    ratio = s.tau_tb / (4 * s.t_step)  # tau in units of t_exec for N=2, M=4
    result = benchmark_vs_model(2, 4, ratio, realizations=20, seed=5)
    model_survival = p_step_twobody(2, 4, s.t_step, s.tau_tb) ** 4
    assert result.mean_p_total == pytest.approx(model_survival, abs=0.01)


def test_r_photonic_values():
    clean = PhotonicScenario(r0=76e6, eta_f=1.0, eta_c=1.0)
    assert r_photonic(clean, 7) == pytest.approx(76e6 / (math.e * 7), rel=1e-12)
    experiment = PhotonicScenario(r0=76e6, eta_f=0.14, eta_c=0.987 ** (1.0 / 60.0))
    rate = r_photonic(experiment, 5, depth=60)
    assert abs(rate - 295.0) / 295.0 < 0.10
    for n in range(1, 31):
        assert r_photonic(SOTA.photonic, n) > r_photonic(CONSERVATIVE.photonic, n)


def test_r_classical_values():
    tianhe = ClassicalScenario(a_tilde=3e-15)
    laptop = ClassicalScenario(a_tilde=3e-9)
    assert r_classical(tianhe, 37) == pytest.approx(
        2.0**-37 / (100 * 3e-15 * 37**2), rel=1e-12
    )
    assert r_classical(tianhe, 37) == pytest.approx(0.0177, abs=2e-4)
    assert r_classical(laptop, 20) == pytest.approx(7.95e-3, abs=5e-5)
    # halves per added particle, up to the 1/N^2 factor
    for n in (5, 17):
        ratio = r_classical(tianhe, n + 1) / r_classical(tianhe, n)
        assert ratio == pytest.approx(0.5 * n**2 / (n + 1) ** 2, rel=1e-12)


def test_crossover_values():
    star = crossover(SOTA.loss, SOTA.classical)
    assert star is not None and 33 <= star <= 41
    lossless_star = crossover(LOSSLESS.loss, LOSSLESS.classical)
    assert lossless_star is not None and lossless_star < star
    assert crossover(SOTA.loss, ClassicalScenario(a_tilde=1e-70)) is None
    conservative_star = crossover(CONSERVATIVE.loss, CONSERVATIVE.classical)
    assert conservative_star is None or conservative_star > star


def test_crossover_rejects_empty_range():
    star = crossover(SOTA.loss, SOTA.classical)
    assert crossover(SOTA.loss, SOTA.classical, n_range=(star, star)) == star
    with pytest.raises(ValidationError, match="empty"):
        crossover(SOTA.loss, SOTA.classical, n_range=(5, 2))


def test_scenario_validation():
    with pytest.raises(ValidationError):
        LossScenario(0.0, 360.0, 0.4, 0.5, 0.1, 0.99, 0.99)
    with pytest.raises(ValidationError):
        LossScenario(1e-5, 360.0, 0.4, 0.5, 0.1, 0.0, 0.99)
    with pytest.raises(ValidationError):
        PhotonicScenario(r0=-1.0, eta_f=0.5, eta_c=0.9)
    with pytest.raises(ValidationError):
        ClassicalScenario(a_tilde=0.0)


def test_classical_scenario_rejects_an_overflowing_rate():
    # 2^-1 / (100 a) overflows below a of about 2.8e-311; the rate is largest at N = 1
    with pytest.raises(ValidationError, match="overflows"):
        ClassicalScenario(a_tilde=5e-324)
    smallest_kept = ClassicalScenario(a_tilde=1e-310)
    assert all(math.isfinite(r_classical(smallest_kept, n)) for n in range(1, 61))


def test_even_mode_count():
    assert even_mode_count(4, 1.0) == 16
    assert even_mode_count(3, 1.0) == 8
    assert even_mode_count(5, 1.0) == 24
    assert even_mode_count(10, 0.5) == 50


HUGE = 10**400  # past the float range, as are its square and cube

#: Calls whose float arithmetic meets a count, its square or cube, or its factorial past the float range.
FLOAT_RANGE_CALLS = {
    "r_photonic": lambda: r_photonic(SOTA.photonic, HUGE),
    "r_classical": lambda: r_classical(SOTA.classical, HUGE),
    "r_ideal": lambda: r_ideal(SOTA.loss, HUGE),
    "circuit_steps": lambda: circuit_steps(SOTA.loss, HUGE),
    "circuit_steps(10**200)": lambda: circuit_steps(SOTA.loss, 10**200),
    "p_survival finite": lambda: p_survival(SOTA.loss, HUGE, "finite"),
    "p_survival closed": lambda: p_survival(SOTA.loss, HUGE, "closed"),
    "r_nisq finite": lambda: r_nisq(SOTA.loss, HUGE, "finite"),
    "r_nisq closed": lambda: r_nisq(SOTA.loss, HUGE, "closed"),
    "p_step_background": lambda: p_step_background(HUGE, 1.0, 1.0),
    "even_mode_count": lambda: even_mode_count(HUGE, 1.0),
    "crossover": lambda: crossover(SOTA.loss, SOTA.classical, (HUGE, HUGE)),
    "poisson_pair_limit(1.0, 171)": lambda: poisson_pair_limit(1.0, 171),
    "poisson_pair_limit(1.0, HUGE)": lambda: poisson_pair_limit(1.0, HUGE),
}


@pytest.mark.parametrize("call", list(FLOAT_RANGE_CALLS))
def test_counts_past_the_float_range_give_a_rate_or_validation_error(call):
    try:
        result = FLOAT_RANGE_CALLS[call]()
    except ValidationError:
        return
    assert isinstance(result, float) and 0.0 <= result < math.inf


#: Survivals whose float arithmetic met inf / inf or inf * 0 and came out nan:
#: a channel that is off, or t = 0, keeps every atom, and an overflowing
#: exponent loses them all.
NAN_SURVIVALS = {
    "p_step_background(2**340, 1e300, inf)": (lambda: p_step_background(2**340, 1e300, math.inf), 1.0),
    "p_step_twobody_closed(5e-324, 0, 1)": (lambda: p_step_twobody_closed(5e-324, 0.0, 1.0), 1.0),
    "p_step_twobody(4, 16, 1e308, inf)": (lambda: p_step_twobody(4, 16, 1e308, math.inf), 1.0),
    "p_survival(2**340, closed), tau_bg = inf": (
        lambda: p_survival(replace(SOTA.loss, tau_bg=math.inf, mode_ratio_c=100.0), 2**340, "closed"),
        0.0,
    ),
    "p_survival(10**200, closed), both lifetimes inf": (
        lambda: p_survival(replace(SOTA.loss, tau_bg=math.inf, tau_tb=math.inf), 10**200, "closed"),
        1.0,
    ),
}


@pytest.mark.parametrize("call", list(NAN_SURVIVALS))
def test_survivals_past_the_float_range_are_probabilities(call):
    survival, expected = NAN_SURVIVALS[call]
    assert survival() == expected
