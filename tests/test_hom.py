import itertools
import math

import numpy as np
import pytest

from atomsampler import fock, hom
from atomsampler.errors import DegenerateSampleError, SizeCapError, ValidationError
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


def test_monte_carlo_determinism_and_worker_invariance():
    first = hom_monte_carlo(EXPERIMENT, 300_000, seed=9, workers=1)
    second = hom_monte_carlo(EXPERIMENT, 300_000, seed=9, workers=4)
    assert first == second


@pytest.mark.parametrize("workers", [0, -2])
def test_monte_carlo_rejects_fewer_than_one_worker(workers):
    with pytest.raises(ValidationError, match="workers must be an integer >= 1"):
        hom_monte_carlo(EXPERIMENT, 1_000, seed=0, workers=workers)


@pytest.mark.parametrize("workers", [0, 1.5])
def test_monte_carlo_refuses_the_worker_count_before_it_plans_blocks(workers):
    # more blocks than the cap allows: the worker count is refused first, with no seed split
    trials = (fock.BASIS_CAP + 1) * hom.MC_BLOCK
    with pytest.raises(ValidationError, match="workers must be an integer >= 1"):
        hom_monte_carlo(EXPERIMENT, trials, seed=0, workers=workers)


def test_post_selection_invariance():
    plain = hom_monte_carlo(
        HomParams(0.84, 0.71, 0.462, p_addr=1.0, p_rec=1.0), 400_000, seed=13
    )
    filtered = hom_monte_carlo(EXPERIMENT, 400_000, seed=13)
    assert filtered.trials_kept < plain.trials_kept
    for a, b in zip(plain.triple(), filtered.triple()):
        assert abs(a - b) < 0.006


def test_monte_carlo_refuses_more_blocks_than_the_cap(monkeypatch):
    monkeypatch.setattr(fock, "BASIS_CAP", 1)
    assert hom_monte_carlo(EXPERIMENT, hom.MC_BLOCK, seed=0).trials_kept > 0
    with pytest.raises(SizeCapError, match="2 Monte Carlo blocks"):
        hom_monte_carlo(EXPERIMENT, hom.MC_BLOCK + 1, seed=0)


def test_monte_carlo_degenerate():
    with pytest.raises(DegenerateSampleError):
        hom_monte_carlo(HomParams(0.84, 0.71, 0.5, p_addr=0.0), 1000, seed=0)
    with pytest.raises(ValidationError):
        hom_monte_carlo(EXPERIMENT, 0, seed=0)


def test_fit_recovers_exact_analytic_input():
    analytic = hom_analytic(EXPERIMENT)
    measured = HomOutcomes(trials_kept=10_000, p0=analytic.p0, p1=analytic.p1, p2=analytic.p2)
    fit = fit_bunching(measured, survival_s=0.84, p_lic0=0.71, trials=10**6, seed=3)
    assert fit.p_bunch == pytest.approx(0.731, abs=0.005)
    assert fit.gamma == pytest.approx(2 * fit.p_bunch - 1.0)


@pytest.mark.parametrize("target", [0.5, 0.6, 0.75, 0.9, 1.0])
def test_fit_recovers_generated_data(monkeypatch, target):
    monkeypatch.setattr(hom, "BOOTSTRAP_RESAMPLES", 20)
    gamma = 2.0 * target - 1.0
    params = HomParams(survival_s=0.84, p_lic0=0.71, gamma=gamma)
    mc = hom_monte_carlo(params, 10**6, seed=17)
    fit = fit_bunching(mc, survival_s=0.84, p_lic0=0.71, trials=10**6, seed=23)
    assert fit.p_bunch == pytest.approx(target, abs=0.01)


def test_fit_on_reference_counts():
    measured = HomOutcomes.from_counts(39, 42, 19)
    fit = fit_bunching(measured, survival_s=0.84, p_lic0=0.71, trials=10**6, seed=7)
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
    fit = fit_bunching(measured, survival_s=0.84, p_lic0=0.71, trials=10**6, seed=5)
    assert fit.p_bunch == pytest.approx(0.5, abs=0.01)


@pytest.mark.parametrize("trials", [0, -5])
def test_fit_rejects_too_few_trials(trials):
    measured = HomOutcomes.from_counts(39, 42, 19)
    with pytest.raises(ValidationError, match="trial"):
        fit_bunching(measured, survival_s=0.84, p_lic0=0.71, trials=trials, seed=0)


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
    fit = fit_bunching(largest, survival_s=0.84, p_lic0=0.71, trials=1000, seed=0)
    assert fit.trials_kept == 2**63 - 1
    for n0 in (2**63 - 1, 10**20):
        with pytest.raises(ValidationError, match="more than"):
            fit_bunching(HomOutcomes.from_counts(n0, 5, 5), survival_s=0.84, p_lic0=0.71,
                         trials=1000, seed=0)


THRESHOLD_PARAMS = {
    "experiment": EXPERIMENT,
    "no-post-selection": HomParams(0.84, 0.71, 0.462),
    "all-zero": HomParams(0.0, 0.0, 0.0, p_addr=0.0, p_rec=0.0),
    "all-one": HomParams(1.0, 1.0, 1.0),
    "mixed": HomParams(0.0, 1.0, 1.0, p_addr=1.0, p_rec=0.5),
}


@pytest.mark.parametrize("block", [1, 63, 64, 65, hom.MC_BLOCK])
@pytest.mark.parametrize("params", list(THRESHOLD_PARAMS.values()), ids=list(THRESHOLD_PARAMS))
def test_block_tally_matches_the_strided_column_formula(params, block):
    thresholds = (params.p_addr, params.p_rec, params.survival_s, params.survival_s,
                  params.p_bunch, params.p_lic0)
    u = np.random.default_rng(block).random((block, 6))
    rows = hom._threshold_rows(u, thresholds)
    assert rows.dtype == bool and rows.flags.c_contiguous
    for k, threshold in enumerate(thresholds):
        assert np.array_equal(rows[k], u[:, k] < threshold)

    # the tally before the threshold rows, one strided column per draw
    kept = (u[:, 0] < params.p_addr) & (u[:, 1] < params.p_rec)
    alive1 = u[:, 2] < params.survival_s
    alive2 = u[:, 3] < params.survival_s
    bunched = u[:, 4] < params.p_bunch
    destroyed = u[:, 5] < params.p_lic0
    both = kept & alive1 & alive2
    pair_bunched = both & bunched
    zero_out = (pair_bunched & destroyed) | (kept & ~(alive1 | alive2))
    one_out = (pair_bunched & ~destroyed) | (kept & (alive1 ^ alive2))
    two_out = both & ~bunched
    expected = [int(zero_out.sum()), int(one_out.sum()), int(two_out.sum())]
    assert hom._simulate_block(params, block, seed=block).tolist() == expected


@pytest.mark.parametrize("params", list(THRESHOLD_PARAMS.values()), ids=list(THRESHOLD_PARAMS))
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


def _all_draw_probabilities(survival_s, p_lic0, trials, seed, p_bunch):
    """Outcome probabilities from every sorted pair draw, as before the bracket cut."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    n_one = n_none = 0
    pair_draws, destroyed = [], []
    for start in range(0, trials, hom.MC_BLOCK):
        u = rng.random((min(hom.MC_BLOCK, trials - start), 4))
        alive1 = u[:, 0] < survival_s
        alive2 = u[:, 1] < survival_s
        both = alive1 & alive2
        n_one += int((alive1 ^ alive2).sum())
        n_none += int((~(alive1 | alive2)).sum())
        pair_draws.append(u[both, 2])
        destroyed.append(u[both, 3] < p_lic0)
    pair_draws = np.concatenate(pair_draws)
    sorted_destroyed = np.sort(pair_draws[np.concatenate(destroyed)])
    pair_draws.sort()
    bunched = int(np.searchsorted(pair_draws, p_bunch, side="right"))
    gone = int(np.searchsorted(sorted_destroyed, p_bunch, side="right"))
    counts = np.array([gone + n_none, bunched - gone + n_one, len(pair_draws) - bunched])
    return tuple((counts / trials).tolist())


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("survival_s,p_lic0,trials", [
    (0.84, 0.71, 100_001),
    (1.0, 0.0, 5000),
    (0.5, 1.0, 7),
])
def test_in_bracket_draws_give_the_all_draw_probabilities(survival_s, p_lic0, trials, seed):
    model = hom._McObjective(survival_s, p_lic0, trials, seed)
    assert model.sorted_high.min(initial=1.0) >= hom.P_BUNCH_MIN
    points = [hom.P_BUNCH_MIN, 1.0, 0.731]
    points += [float(model.sorted_high[k]) for k in (0, len(model.sorted_high) // 2, -1)
               if len(model.sorted_high)]
    points += [float(x) for x in model.sorted_high_gone[:1]]
    for p in points:
        got = model.probabilities(p)
        assert all(type(q) is float for q in got)
        assert got == _all_draw_probabilities(survival_s, p_lic0, trials, seed, p)


def test_fit_memory_stays_under_ten_bytes_per_trial():
    import tracemalloc

    trials = 10**6
    measured = HomOutcomes.from_counts(39, 42, 19)
    tracemalloc.start()
    try:
        fit_bunching(measured, survival_s=0.84, p_lic0=0.71, trials=trials, seed=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * trials
