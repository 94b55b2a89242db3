import numpy as np
import pytest

from atomsampler.errors import DegenerateSampleError, ValidationError
from atomsampler.hom import (
    HomOutcomes,
    HomParams,
    bunching_from_p2,
    expected_purity,
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


def test_monte_carlo_determinism_and_worker_invariance():
    first = hom_monte_carlo(EXPERIMENT, 300_000, seed=9, workers=1)
    second = hom_monte_carlo(EXPERIMENT, 300_000, seed=9, workers=4)
    assert first == second


def test_post_selection_invariance():
    plain = hom_monte_carlo(
        HomParams(0.84, 0.71, 0.462, p_addr=1.0, p_rec=1.0), 400_000, seed=13
    )
    filtered = hom_monte_carlo(EXPERIMENT, 400_000, seed=13)
    assert filtered.trials_kept < plain.trials_kept
    for a, b in zip(plain.triple(), filtered.triple()):
        assert abs(a - b) < 0.006


def test_monte_carlo_degenerate():
    with pytest.raises(DegenerateSampleError):
        hom_monte_carlo(HomParams(0.84, 0.71, 0.5, p_addr=0.0), 1000, seed=0)
    with pytest.raises(ValidationError):
        hom_monte_carlo(EXPERIMENT, 0, seed=0)


def test_miscount_mode_differs_when_reconstruction_fails():
    params = HomParams(0.84, 0.71, 0.462, p_addr=1.0, p_rec=0.8)
    discard = hom_monte_carlo(params, 200_000, seed=4)
    miscount = hom_monte_carlo(params, 200_000, seed=4, reconstruction_failure="miscount")
    assert miscount.trials_kept > discard.trials_kept
    assert miscount.p0 > discard.p0
    with pytest.raises(ValidationError):
        hom_monte_carlo(params, 1000, seed=0, reconstruction_failure="guess")


def test_fit_recovers_exact_analytic_input():
    analytic = hom_analytic(EXPERIMENT)
    measured = HomOutcomes(trials_kept=10_000, p0=analytic.p0, p1=analytic.p1, p2=analytic.p2)
    fit = fit_bunching(measured, survival_s=0.84, p_lic0=0.71, trials=10**6, seed=3)
    assert fit.p_bunch == pytest.approx(0.731, abs=0.005)
    assert fit.gamma == pytest.approx(2 * fit.p_bunch - 1.0)


@pytest.mark.parametrize("target", [0.5, 0.6, 0.75, 0.9, 1.0])
def test_fit_recovers_generated_data(target):
    gamma = 2.0 * target - 1.0
    params = HomParams(survival_s=0.84, p_lic0=0.71, gamma=gamma)
    mc = hom_monte_carlo(params, 10**6, seed=17)
    fit = fit_bunching(mc, survival_s=0.84, p_lic0=0.71, trials=10**6, seed=23, resamples=20)
    assert fit.p_bunch == pytest.approx(target, abs=0.01)


def test_fit_on_reference_counts():
    measured = HomOutcomes.from_counts(39, 42, 19)
    fit = fit_bunching(measured, survival_s=0.84, p_lic0=0.71, trials=10**6, seed=7)
    assert fit.p_bunch == pytest.approx(0.73, abs=0.02)
    assert 0.03 <= fit.sigma <= 0.09
    assert fit.trials_kept == 100


def test_fit_distinguishable_reference():
    p2 = 0.84**2 / 2.0
    measured = HomOutcomes(
        trials_kept=5000,
        p0=hom_analytic(HomParams(0.84, 0.71, 0.0)).p0,
        p1=hom_analytic(HomParams(0.84, 0.71, 0.0)).p1,
        p2=p2,
    )
    fit = fit_bunching(measured, survival_s=0.84, p_lic0=0.71, trials=10**6, seed=5, resamples=20)
    assert fit.p_bunch == pytest.approx(0.5, abs=0.01)


@pytest.mark.parametrize("trials", [0, -5])
def test_fit_rejects_too_few_trials(trials):
    measured = HomOutcomes.from_counts(39, 42, 19)
    with pytest.raises(ValidationError, match="trial"):
        fit_bunching(measured, survival_s=0.84, p_lic0=0.71, trials=trials)


def test_fit_rejects_empty_counts():
    with pytest.raises(ValidationError):
        HomOutcomes.from_counts(0, 0, 0)


def test_bunching_from_p2():
    assert bunching_from_p2(0.19, 0.84) == pytest.approx(0.7308, abs=1e-4)
    assert bunching_from_p2(0.84**2, 0.84) == pytest.approx(0.0, abs=1e-12)
    assert bunching_from_p2(0.0, 0.84) == pytest.approx(1.0)
    with pytest.raises(ValidationError):
        bunching_from_p2(0.8, 0.5)
    with pytest.raises(ValidationError):
        bunching_from_p2(0.1, 0.0)


def test_purity_relations():
    assert purity_from_bunching(0.7308) == pytest.approx(0.4616, abs=1e-4)
    assert purity_from_bunching(0.5) == 0.0
    assert expected_purity(0.69) == pytest.approx(0.4761, abs=1e-10)
    with pytest.raises(ValidationError):
        purity_from_bunching(0.4)
    with pytest.raises(ValidationError):
        expected_purity(1.2)


def test_params_validation():
    with pytest.raises(ValidationError):
        HomParams(survival_s=1.2, p_lic0=0.5, gamma=0.5)
