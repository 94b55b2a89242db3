import itertools
import math

import numpy as np
import pytest

from atomsampler import hom
from atomsampler.errors import DegenerateSampleError, ValidationError
from atomsampler.hom import (
    HomOutcomes,
    HomParams,
    bunching_from_p2,
    fit_bunching,
    hom_analytic,
    hom_monte_carlo,
    purity_from_bunching,
)

EXPERIMENT = HomParams(survival_s=0.84, p_lic0=0.71, gamma=0.462, p_addr=0.95, p_rec=0.99)


def test_analytic_limit_cases():
    sealed = hom_analytic(HomParams(survival_s=1.0, p_lic0=1.0, gamma=1.0))
    assert (sealed.p0, sealed.p1, sealed.p2) == (1.0, 0.0, 0.0)
    coin = hom_analytic(HomParams(survival_s=1.0, p_lic0=0.0, gamma=0.0))
    assert coin.p2 == pytest.approx(0.5)


def test_analytic_experiment_values():
    out = hom_analytic(EXPERIMENT)
    assert EXPERIMENT.p_bunch == pytest.approx(0.731)
    assert out.p2 == pytest.approx(0.1898064, abs=1e-7)
    assert out.p1 == pytest.approx(0.418380144, abs=1e-7)
    assert out.p0 == pytest.approx(0.391813456, abs=1e-7)


def test_analytic_probabilities_sum_to_one():
    rng = np.random.default_rng(1)
    for _ in range(50):
        params = HomParams(
            survival_s=rng.uniform(0.0, 1.0),
            p_lic0=rng.uniform(0.0, 1.0),
            gamma=rng.uniform(0.0, 1.0),
        )
        out = hom_analytic(params)
        assert out.p0 + out.p1 + out.p2 == pytest.approx(1.0, abs=1e-12)


def test_the_package_builds_outcome_records_that_pass_their_check():
    # every record `hom_analytic` and `from_counts` build passes `HomOutcomes`' own check, edges too
    for s, p_lic0, gamma in itertools.product((0.0, 0.5, 0.84, 1.0), (0.0, 0.71, 1.0),
                                              (0.0, 0.462, 1.0)):
        hom_analytic(HomParams(s, p_lic0, gamma))
    for counts in ((0, 0, 1), (1, 2, 3), (10**18, 1, 0)):
        assert HomOutcomes.from_counts(*counts).counts == counts


def test_p2_strictly_decreasing_in_gamma():
    values = [
        hom_analytic(HomParams(survival_s=0.84, p_lic0=0.71, gamma=g)).p2
        for g in np.linspace(0.0, 1.0, 11)
    ]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_monte_carlo_matches_analytic():
    analytic = hom_analytic(EXPERIMENT)
    mc = hom_monte_carlo(EXPERIMENT, 400_000, seed=5)
    assert abs(mc.p0 - analytic.p0) < 0.005
    assert abs(mc.p1 - analytic.p1) < 0.005
    assert abs(mc.p2 - analytic.p2) < 0.005
    assert sum(mc.counts) == mc.trials_kept


def test_monte_carlo_edge_cases():
    dead = hom_monte_carlo(HomParams(0.0, 0.71, 0.5), 20_000, seed=1)
    assert dead.p0 == pytest.approx(1.0)
    perfect = hom_monte_carlo(HomParams(1.0, 0.71, 1.0), 20_000, seed=2)
    assert perfect.p2 == 0.0


def test_monte_carlo_is_determined_by_its_seed():
    first = hom_monte_carlo(EXPERIMENT, 300_000, seed=9)
    assert hom_monte_carlo(EXPERIMENT, 300_000, seed=9) == first
    assert hom_monte_carlo(EXPERIMENT, 300_000, seed=10) != first


def test_post_selection_invariance():
    plain = hom_monte_carlo(
        HomParams(0.84, 0.71, 0.462, p_addr=1.0, p_rec=1.0), 400_000, seed=13
    )
    filtered = hom_monte_carlo(EXPERIMENT, 400_000, seed=13)
    assert plain.trials_kept == 400_000
    assert filtered.trials_kept < plain.trials_kept
    for a, b in zip(plain.triple(), filtered.triple()):
        assert abs(a - b) < 0.006


def test_monte_carlo_degenerate():
    with pytest.raises(DegenerateSampleError):
        hom_monte_carlo(HomParams(0.84, 0.71, 0.5, p_addr=0.0), 1000, seed=0)
    with pytest.raises(ValidationError):
        hom_monte_carlo(EXPERIMENT, 0, seed=0)


def test_monte_carlo_takes_any_int64_trial_count_in_constant_memory():
    import tracemalloc

    tracemalloc.start()
    try:
        assert hom_monte_carlo(EXPERIMENT, 10**15, seed=0).trials_kept < 10**15
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert sum(hom_monte_carlo(EXPERIMENT, 2**63 - 1, seed=0).counts) < 2**63
    for trials in (2**63, 10**30):
        with pytest.raises(ValidationError, match="trials must fit int64, got a number out of range"):
            hom_monte_carlo(EXPERIMENT, trials, seed=0)


@pytest.mark.parametrize("s", [0.05, 0.3, 0.84, 1.0])
@pytest.mark.parametrize("p_lic0", [0.0, 0.29, 0.71, 1.0])
def test_fit_returns_the_bunching_of_exact_analytic_fractions(s, p_lic0):
    for p_bunch in (0.5, 0.6, 0.731, 0.9, 1.0):
        analytic = hom_analytic(HomParams(s, p_lic0, gamma=2.0 * p_bunch - 1.0))
        measured = HomOutcomes(1000, analytic.p0, analytic.p1, analytic.p2)
        assert abs(fit_bunching(measured, s, p_lic0, seed=0).p_bunch - p_bunch) <= 1e-12


def test_the_fit_clips_to_the_bunching_range_exactly():
    # the module docstring's fractions at P_bunch = 0.4: valid probabilities, but below what
    # two atoms can show
    s, p_lic0, p_bunch = 0.84, 0.71, 0.4
    below = (s * s * p_bunch * p_lic0 + (1 - s) ** 2, s * s * p_bunch * (1 - p_lic0) + 2 * s * (1 - s),
             s * s * (1 - p_bunch))
    assert min(below) >= 0.0 and sum(below) == pytest.approx(1.0, abs=1e-15)
    assert fit_bunching(HomOutcomes(1000, *below), 0.84, 0.71, seed=0).p_bunch == 0.5
    # every pair destroyed: the unclipped least-squares value is about 1.18
    above = fit_bunching(HomOutcomes.from_counts(1, 0, 0), 0.84, 0.71, seed=0)
    assert (above.p_bunch, above.sigma) == (1.0, 0.0)


@pytest.mark.parametrize(
    "counts", [(39, 42, 19), (40, 41, 19), (5, 90, 5), (1, 0, 0), (0, 1, 0), (0, 0, 1)], ids=str
)
def test_the_fit_has_the_least_squared_error_on_the_bunching_range(counts):
    measured = HomOutcomes.from_counts(*counts)

    def squared_error(p_bunch):
        model = hom_analytic(HomParams(0.84, 0.71, gamma=2.0 * p_bunch - 1.0))
        return float(((model.triple() - measured.triple()) ** 2).sum())

    fit = fit_bunching(measured, 0.84, 0.71, seed=0)
    assert 0.5 <= fit.p_bunch <= 1.0
    grid = np.linspace(0.5, 1.0, 2001)
    assert squared_error(fit.p_bunch) <= min(squared_error(p) for p in grid) + 1e-15


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize(
    "counts,survival_s,p_lic0",
    [((39, 42, 19), 0.84, 0.71), ((40, 55, 5), 1.0, 0.0), ((3, 2, 2), 0.5, 1.0)],
    ids=["reference", "lossless", "few-trials"],
)
def test_the_bootstrap_sigma_is_the_spread_of_single_resample_fits(counts, survival_s, p_lic0,
                                                                   seed):
    # the fit solves every resample as one array; each must be the fit of that resample alone
    measured = HomOutcomes.from_counts(*counts)
    fit = fit_bunching(measured, survival_s, p_lic0, seed)
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    draws = rng.multinomial(measured.trials_kept, measured.triple(), size=hom.BOOTSTRAP_RESAMPLES)
    singles = [fit_bunching(HomOutcomes.from_counts(*draw.tolist()), survival_s, p_lic0, seed).p_bunch
               for draw in draws]
    assert all(0.5 <= p <= 1.0 for p in singles)
    assert fit.sigma == float(np.std(singles))


def test_fit_recovers_exact_analytic_input():
    analytic = hom_analytic(EXPERIMENT)
    measured = HomOutcomes(trials_kept=10_000, p0=analytic.p0, p1=analytic.p1, p2=analytic.p2)
    fit = fit_bunching(measured, survival_s=0.84, p_lic0=0.71, seed=3)
    assert fit.p_bunch == pytest.approx(0.731, abs=0.005)
    assert fit.gamma == pytest.approx(2 * fit.p_bunch - 1.0)


@pytest.mark.parametrize("target", [0.5, 0.6, 0.75, 0.9, 1.0])
def test_fit_recovers_generated_data(monkeypatch, target):
    monkeypatch.setattr(hom, "BOOTSTRAP_RESAMPLES", 20)
    gamma = 2.0 * target - 1.0
    params = HomParams(survival_s=0.84, p_lic0=0.71, gamma=gamma)
    mc = hom_monte_carlo(params, 10**6, seed=17)
    fit = fit_bunching(mc, survival_s=0.84, p_lic0=0.71, seed=23)
    assert fit.p_bunch == pytest.approx(target, abs=0.01)


def test_fit_on_reference_counts():
    measured = HomOutcomes.from_counts(39, 42, 19)
    fit = fit_bunching(measured, survival_s=0.84, p_lic0=0.71, seed=7)
    assert fit.p_bunch == pytest.approx(0.73, abs=0.02)
    assert 0.03 <= fit.sigma <= 0.09
    assert fit.trials_kept == 100


def test_fit_distinguishable_reference(monkeypatch):
    monkeypatch.setattr(hom, "BOOTSTRAP_RESAMPLES", 20)
    p2 = 0.84**2 / 2.0
    measured = HomOutcomes(
        trials_kept=5000,
        p0=hom_analytic(HomParams(0.84, 0.71, 0.0)).p0,
        p1=hom_analytic(HomParams(0.84, 0.71, 0.0)).p1,
        p2=p2,
    )
    fit = fit_bunching(measured, survival_s=0.84, p_lic0=0.71, seed=5)
    assert fit.p_bunch == pytest.approx(0.5, abs=0.01)


def test_fit_rejects_empty_counts():
    with pytest.raises(ValidationError):
        HomOutcomes.from_counts(0, 0, 0)


def test_bunching_from_p2():
    assert bunching_from_p2(0.19, 0.84) == pytest.approx(0.7308, abs=1e-4)
    assert bunching_from_p2(0.84**2, 0.84) == pytest.approx(0.0, abs=1e-12)
    assert bunching_from_p2(0.0, 0.84) == pytest.approx(1.0)
    assert bunching_from_p2(0.5, 1.0) == 0.5
    # p2 outside [0, s^2], s outside (0, 1], and NaN in either
    for p2, s in ((0.8, 0.5), (0.1, 0.0), (-0.1, 0.8), (0.1, 1.5), (float("nan"), 0.8),
                  (0.1, float("nan"))):
        with pytest.raises(ValidationError):
            bunching_from_p2(p2, s)


def test_purity_relations():
    assert purity_from_bunching(0.7308) == pytest.approx(0.4616, abs=1e-4)
    assert purity_from_bunching(0.5) == 0.0
    assert purity_from_bunching(1.0) == 1.0
    for p_bunch in (0.4, 1.5, float("nan")):
        with pytest.raises(ValidationError):
            purity_from_bunching(p_bunch)


def test_params_validation():
    with pytest.raises(ValidationError):
        HomParams(survival_s=1.2, p_lic0=0.5, gamma=0.5)


def test_fit_refuses_counts_beyond_the_bootstrap_draw(monkeypatch):
    monkeypatch.setattr(hom, "BOOTSTRAP_RESAMPLES", 3)
    largest = HomOutcomes.from_counts(hom.MAX_MEASURED_TRIALS - 10, 5, 5)
    fit = fit_bunching(largest, survival_s=0.84, p_lic0=0.71, seed=0)
    assert fit.trials_kept == 2**63 - 1
    for n0 in (2**63 - 1, 10**20):
        with pytest.raises(ValidationError, match="more than"):
            fit_bunching(HomOutcomes.from_counts(n0, 5, 5), survival_s=0.84, p_lic0=0.71, seed=0)


PARAMS_CASES = {
    "experiment": EXPERIMENT,
    "no-post-selection": HomParams(0.84, 0.71, 0.462),
    "all-zero": HomParams(0.0, 0.0, 0.0, p_addr=0.0, p_rec=0.0),
    "all-one": HomParams(1.0, 1.0, 1.0),
    "mixed": HomParams(0.0, 1.0, 1.0, p_addr=1.0, p_rec=0.5),
}


@pytest.mark.parametrize("params", list(PARAMS_CASES.values()), ids=list(PARAMS_CASES))
def test_analytic_triple_is_the_expectation_of_the_per_trial_rule(params):
    """Sum the 16 (alive1, alive2, bunched, destroyed) cases of a kept trial by their weights."""
    expected = [0.0, 0.0, 0.0]
    fates = (params.survival_s, params.survival_s, params.p_bunch, params.p_lic0)
    for case in itertools.product((True, False), repeat=4):
        weight = math.prod(p if hit else 1.0 - p for hit, p in zip(case, fates))
        alive1, alive2, bunched, destroyed = case
        both = alive1 and alive2
        if (both and bunched and destroyed) or not (alive1 or alive2):
            expected[0] += weight
        elif (both and bunched) or alive1 != alive2:
            expected[1] += weight
        else:
            expected[2] += weight
    assert np.abs(hom_analytic(params).triple() - expected).max() <= 1e-15


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("params", list(PARAMS_CASES.values()), ids=list(PARAMS_CASES))
def test_monte_carlo_counts_lie_within_six_sigma_of_the_analytic_classes(params, seed):
    """Dropped, zero, one and two atoms: a class of probability 0 or 1 is met exactly."""
    trials = 10**6
    kept = params.p_addr * params.p_rec
    if kept == 0.0:
        with pytest.raises(DegenerateSampleError):
            hom_monte_carlo(params, trials, seed)
        return
    out = hom_monte_carlo(params, trials, seed)
    assert sum(out.counts) == out.trials_kept <= trials
    classes = [1.0 - kept] + [kept * p for p in hom_analytic(params).triple()]
    for count, p in zip([trials - out.trials_kept, *out.counts], classes):
        if p in (0.0, 1.0):
            assert count == trials * p
        else:
            assert abs(count - trials * p) <= 6.0 * math.sqrt(trials * p * (1.0 - p))
