"""Every parameter of the public API has a domain kind, and each numeric kind refuses what lies outside it.

`errors` owns the five numeric rules: counts, times, lifetimes, positive
numbers and probabilities ([0, 1], or (0, 1] where a rate or an inversion
divides by the value).  Each swept kind has a table of callers, one per
public parameter, and every value outside the kind's domain must raise
`ValidationError` with the owner's wording: never `TypeError`, a bare
`ValueError` or `ZeroDivisionError`, and never a return value.  Seeds,
arrays, objects, choices and the other kinds in `UNSWEPT_KINDS` are listed
but not swept.  An `ast` walk lists every parameter of every public
function, method and dataclass in the package, so a new parameter needs an
entry here, as a new default needs one in `tests/test_options.py`.

A second `ast` guard keeps the rules in their owners: outside `errors.py`
no function raises `ValidationError` from an `if` that compares a
parameter with a number or with another parameter, apart from the rules in
`ALLOWED_RULES`, which are not plain domains.  A third keeps the name
`OverflowError` in `errors.py`, whose `in_range` turns a number past the
float range into a `ValidationError`; every public function that converts
a caller's array or JSON payload does so through `errors.as_array`.
"""

import ast
import math
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import atomsampler
from atomsampler.errors import (
    ValidationError,
    check_count,
    check_lifetime,
    check_positive,
    check_positive_probability,
    check_probability,
    check_time,
)
from atomsampler.exactsim import (
    benchmark_vs_model,
    build_decay_diagonal,
    run_circuit,
    uniform_state,
)
from atomsampler.fock import (
    FockState,
    basis_array,
    basis_rank,
    collision_free_array,
    enumerate_basis,
    multiset_dimension,
    site_count,
    state_rank,
)
from atomsampler.hom import (
    HomOutcomes,
    HomParams,
    bunching_from_p2,
    fit_bunching,
    hom_monte_carlo,
    purity_from_bunching,
)
from atomsampler.interferometer import (
    CircuitPlan,
    clements_decompose,
    composite_pulse,
    coupling_matrix,
    haar_random_unitary,
    mesh_layers,
    phase_imprint,
    plan_from_json,
    plan_to_json,
    unitarity_defect,
    unitary_from_json,
)
from atomsampler.lossmodel import (
    ClassicalScenario,
    LossScenario,
    PhotonicScenario,
    circuit_steps,
    crossover,
    even_mode_count,
    excluded_occupancy_mass,
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
from atomsampler.parallel import parallel_map, spawn_seeds
from atomsampler.permanent import permanent_glynn, permanent_naive, permanents_of_rows
from atomsampler.sampling import (
    collision_free_mass,
    draw_samples,
    outcome_probability,
    output_distribution,
)
from atomsampler.scenarios import load_bundle

PACKAGE = Path(atomsampler.__file__).parent

SOTA = load_bundle("state-of-the-art")
EXPERIMENT = HomParams(survival_s=0.84, p_lic0=0.71, gamma=0.462, p_addr=0.95, p_rec=0.99)
MEASURED = HomOutcomes.from_counts(300, 500, 200)
PHOTONIC = PhotonicScenario(r0=1.0, eta_f=1.0, eta_c=0.5)
DIST = output_distribution(np.eye(2), FockState((1, 0)))
PLAN = clements_decompose(haar_random_unitary(4, 1))
VACUUM = uniform_state(0, 4)  # n = 0 on the plan's modes: one amplitude
VACUUM_RATES = build_decay_diagonal(0, 4, 1.0, 1.0)


def _loss(**fields):
    values = dict(t_step=1.0, tau_bg=1.0, tau_tb=1.0, t_init=1.0, t_det=1.0, eta_init=1.0,
                  eta_det=1.0, mode_ratio_c=1.0)
    return LossScenario(**{**values, **fields})


#: Every caller takes k = 0 as its smallest count: a count with minimum 1 is
#: passed as k + 1, an even mode count as 2 k + 2.
COUNT_CALLERS = {
    "errors.check_count.n": lambda k: check_count("n", k, 0),
    "exactsim.uniform_state.n": lambda k: uniform_state(k, 4),
    "exactsim.uniform_state.m": lambda k: uniform_state(1, k + 1),
    "exactsim.build_decay_diagonal.n": lambda k: build_decay_diagonal(k, 4, 1.0, 1.0),
    "exactsim.build_decay_diagonal.m": lambda k: build_decay_diagonal(1, 2 * k + 2, 1.0, 1.0),
    "exactsim.run_circuit.n": lambda k: run_circuit(VACUUM, k, PLAN, VACUUM_RATES),
    "exactsim.benchmark_vs_model.n": lambda k: benchmark_vs_model(k, 4, 1.0, 1, 0),
    "exactsim.benchmark_vs_model.m": lambda k: benchmark_vs_model(1, 2 * k + 2, 1.0, 1, 0),
    "exactsim.benchmark_vs_model.realizations": lambda k: benchmark_vs_model(1, 4, 1.0, k + 1, 0),
    "fock.multiset_dimension.n": lambda k: multiset_dimension(k, 4),
    "fock.multiset_dimension.m": lambda k: multiset_dimension(2, k + 1),
    "fock.enumerate_basis.n": lambda k: enumerate_basis(k, 3),
    "fock.enumerate_basis.m": lambda k: enumerate_basis(1, k + 1),
    "fock.basis_array.n": lambda k: basis_array(k, 3),
    "fock.basis_array.m": lambda k: basis_array(1, k + 1),
    "fock.collision_free_array.n": lambda k: collision_free_array(k, 3),
    "fock.collision_free_array.m": lambda k: collision_free_array(1, k + 1),
    "fock.site_count.m": lambda k: site_count(2 * k),
    "hom.HomOutcomes.trials_kept": lambda k: HomOutcomes(k, 1.0, 0.0, 0.0),
    "hom.HomOutcomes.from_counts.n0": lambda k: HomOutcomes.from_counts(k, 1, 1),
    "hom.HomOutcomes.from_counts.n1": lambda k: HomOutcomes.from_counts(1, k, 1),
    "hom.HomOutcomes.from_counts.n2": lambda k: HomOutcomes.from_counts(1, 1, k),
    "hom.hom_monte_carlo.trials": lambda k: hom_monte_carlo(EXPERIMENT, k + 1, 0),
    "interferometer.mesh_layers.m": lambda k: mesh_layers(k),
    "interferometer.haar_random_unitary.m": lambda k: haar_random_unitary(k + 1, 0),
    "lossmodel.even_mode_count.n": lambda k: even_mode_count(k, 1.0),
    "lossmodel.p_pairs_trios.n": lambda k: p_pairs_trios(k, 16, 0, 0),
    "lossmodel.p_pairs_trios.m": lambda k: p_pairs_trios(0, k + 2, 0, 0),
    "lossmodel.p_pairs_trios.k2": lambda k: p_pairs_trios(4, 16, k, 0),
    "lossmodel.p_pairs_trios.k3": lambda k: p_pairs_trios(4, 16, 0, k),
    "lossmodel.truncated_sector_mass.n": lambda k: truncated_sector_mass(k, 8),
    "lossmodel.truncated_sector_mass.m": lambda k: truncated_sector_mass(1, k + 2),
    "lossmodel.excluded_occupancy_mass.n": lambda k: excluded_occupancy_mass(k, 8),
    "lossmodel.excluded_occupancy_mass.m": lambda k: excluded_occupancy_mass(1, k + 2),
    "lossmodel.poisson_pair_limit.k2": lambda k: poisson_pair_limit(1.0, k),
    "lossmodel.p_step_twobody.n": lambda k: p_step_twobody(k, 4, 1.0, 1.0),
    "lossmodel.p_step_twobody.m": lambda k: p_step_twobody(1, k + 2, 1.0, 1.0),
    "lossmodel.p_step_background.n": lambda k: p_step_background(k, 1.0, 1.0),
    "lossmodel.circuit_steps.n": lambda k: circuit_steps(SOTA.loss, k + 1),
    "lossmodel.p_survival.n": lambda k: p_survival(SOTA.loss, k + 1, model="finite"),
    "lossmodel.r_ideal.n": lambda k: r_ideal(SOTA.loss, k + 1),
    "lossmodel.r_nisq.n": lambda k: r_nisq(SOTA.loss, k + 1),
    "lossmodel.r_photonic.n": lambda k: r_photonic(SOTA.photonic, k + 1),
    "lossmodel.r_photonic.depth": lambda k: r_photonic(PHOTONIC, 2, depth=k),
    "lossmodel.r_classical.n": lambda k: r_classical(SOTA.classical, k + 1),
    "lossmodel.crossover.n_range[0]": lambda k: crossover(SOTA.loss, SOTA.classical, (k + 1, 10)),
    "lossmodel.crossover.n_range[1]": lambda k: crossover(SOTA.loss, SOTA.classical, (1, k + 1)),
    "parallel.spawn_seeds.count": lambda k: spawn_seeds(0, k),
    "parallel.parallel_map.workers": lambda k: parallel_map(abs, [-1], k + 1),
    "sampling.draw_samples.shots": lambda k: draw_samples(DIST, k, 0),
    "sampling.collision_free_mass.n": lambda k: collision_free_mass(k, 4),
    "sampling.collision_free_mass.m": lambda k: collision_free_mass(1, k + 1),
}

TIME_CALLERS = {
    "errors.check_time.t": check_time,
    "lossmodel.p_step_twobody_closed.t": lambda t: p_step_twobody_closed(1.0, t, 1.0),
    "lossmodel.p_step_twobody.t": lambda t: p_step_twobody(4, 16, t, 1.0),
    "lossmodel.p_step_background.t": lambda t: p_step_background(5, t, 1.0),
}

LIFETIME_CALLERS = {
    "errors.check_lifetime.tau": lambda tau: check_lifetime("tau", tau),
    "exactsim.build_decay_diagonal.tau_bg": lambda tau: build_decay_diagonal(2, 4, tau, 1.0),
    "exactsim.build_decay_diagonal.tau_tb": lambda tau: build_decay_diagonal(2, 4, 1.0, tau),
    "lossmodel.LossScenario.tau_bg": lambda tau: _loss(tau_bg=tau),
    "lossmodel.LossScenario.tau_tb": lambda tau: _loss(tau_tb=tau),
    "lossmodel.p_step_twobody_closed.tau_tb": lambda tau: p_step_twobody_closed(1.0, 1.0, tau),
    "lossmodel.p_step_twobody.tau_tb": lambda tau: p_step_twobody(4, 16, 1.0, tau),
    "lossmodel.p_step_background.tau_bg": lambda tau: p_step_background(5, 1.0, tau),
}

POSITIVE_CALLERS = {
    "errors.check_positive.x": lambda x: check_positive("x", x),
    "exactsim.benchmark_vs_model.tau_tb_over_texec": lambda x: benchmark_vs_model(1, 4, x, 1, 0),
    "lossmodel.LossScenario.t_step": lambda x: _loss(t_step=x),
    "lossmodel.LossScenario.t_init": lambda x: _loss(t_init=x),
    "lossmodel.LossScenario.t_det": lambda x: _loss(t_det=x),
    "lossmodel.LossScenario.mode_ratio_c": lambda x: _loss(mode_ratio_c=x),
    "lossmodel.PhotonicScenario.r0": lambda x: PhotonicScenario(r0=x, eta_f=1.0, eta_c=1.0),
    "lossmodel.ClassicalScenario.a_tilde": lambda x: ClassicalScenario(a_tilde=x),
    "lossmodel.even_mode_count.c": lambda x: even_mode_count(3, x),
    "lossmodel.poisson_pair_limit.c": lambda x: poisson_pair_limit(x, 0),
    "lossmodel.p_step_twobody_closed.c": lambda x: p_step_twobody_closed(x, 1.0, 1.0),
}

#: Probabilities in [0, 1].
PROBABILITY_CALLERS = {
    "errors.check_probability.p": lambda p: check_probability("p", p),
    "hom.HomParams.survival_s": lambda p: HomParams(survival_s=p, p_lic0=0.5, gamma=0.5),
    "hom.HomParams.p_lic0": lambda p: HomParams(survival_s=0.5, p_lic0=p, gamma=0.5),
    "hom.HomParams.gamma": lambda p: HomParams(survival_s=0.5, p_lic0=0.5, gamma=p),
    "hom.HomParams.p_addr": lambda p: HomParams(0.5, 0.5, 0.5, p_addr=p),
    "hom.HomParams.p_rec": lambda p: HomParams(0.5, 0.5, 0.5, p_rec=p),
    "hom.HomOutcomes.p0": lambda p: HomOutcomes(1, p, 0.0, 0.0),
    "hom.HomOutcomes.p1": lambda p: HomOutcomes(1, 0.0, p, 0.0),
    "hom.HomOutcomes.p2": lambda p: HomOutcomes(1, 0.0, 0.0, p),
    "hom.fit_bunching.p_lic0": lambda p: fit_bunching(MEASURED, 0.84, p, 0),
}

#: Probabilities in (0, 1]: the efficiencies a rate multiplies by N times and
#: the survivals that `bunching_from_p2` and `fit_bunching` divide by.
POSITIVE_PROBABILITY_CALLERS = {
    "errors.check_positive_probability.p": lambda p: check_positive_probability("p", p),
    "hom.fit_bunching.survival_s": lambda p: fit_bunching(MEASURED, p, 0.71, 0),
    "hom.bunching_from_p2.s": lambda p: bunching_from_p2(0.0, p),
    "lossmodel.LossScenario.eta_init": lambda p: _loss(eta_init=p),
    "lossmodel.LossScenario.eta_det": lambda p: _loss(eta_det=p),
    "lossmodel.PhotonicScenario.eta_f": lambda p: PhotonicScenario(r0=1.0, eta_f=p, eta_c=1.0),
    "lossmodel.PhotonicScenario.eta_c": lambda p: PhotonicScenario(r0=1.0, eta_f=1.0, eta_c=p),
}

#: Probabilities with a narrower rule of their own (see `ALLOWED_RULES`),
#: swept with the values outside [0, 1].
OWN_RULE_CALLERS = {
    "hom.bunching_from_p2.p2": lambda p: bunching_from_p2(p, 1.0),
    "hom.purity_from_bunching.p_bunch": purity_from_bunching,
}

#: Callers whose result is a probability, a rate or a mass: a float or a
#: `Fraction` in [0, inf) at the edge of the domain.  Every other caller
#: returns an array, a record, an integer or None.
NUMBER_RESULTS = {
    "lossmodel.p_pairs_trios.n",
    "lossmodel.p_pairs_trios.m",
    "lossmodel.p_pairs_trios.k2",
    "lossmodel.p_pairs_trios.k3",
    "lossmodel.truncated_sector_mass.n",
    "lossmodel.truncated_sector_mass.m",
    "lossmodel.excluded_occupancy_mass.n",
    "lossmodel.excluded_occupancy_mass.m",
    "lossmodel.poisson_pair_limit.k2",
    "lossmodel.poisson_pair_limit.c",
    "lossmodel.p_step_twobody.n",
    "lossmodel.p_step_twobody.m",
    "lossmodel.p_step_twobody.t",
    "lossmodel.p_step_twobody.tau_tb",
    "lossmodel.p_step_twobody_closed.c",
    "lossmodel.p_step_twobody_closed.t",
    "lossmodel.p_step_twobody_closed.tau_tb",
    "lossmodel.p_step_background.n",
    "lossmodel.p_step_background.t",
    "lossmodel.p_step_background.tau_bg",
    "lossmodel.circuit_steps.n",
    "lossmodel.p_survival.n",
    "lossmodel.r_ideal.n",
    "lossmodel.r_nisq.n",
    "lossmodel.r_photonic.n",
    "lossmodel.r_photonic.depth",
    "lossmodel.r_classical.n",
    "sampling.collision_free_mass.n",
    "sampling.collision_free_mass.m",
    "hom.bunching_from_p2.s",
    "hom.bunching_from_p2.p2",
    "hom.purity_from_bunching.p_bunch",
}

INF, NAN = math.inf, math.nan

#: An int past the float range; a rule that feeds float arithmetic refuses it
#: as a ValidationError, not as an OverflowError.
BIG = 10**400

#: kind -> (callers, values outside the domain, a value at its edge, the owner's wording)
SWEEPS = {
    "count": (COUNT_CALLERS, [-1, -3, 2.5, 0.0, NAN, INF, -INF], 0, "must be an integer >="),
    "time": (TIME_CALLERS, [-1.0, NAN, INF, -INF, BIG], 0.0, "time must be finite and non-negative"),
    "lifetime": (LIFETIME_CALLERS, [-1.0, 0.0, NAN, -INF, BIG], INF, "must be positive, got"),
    "positive": (
        POSITIVE_CALLERS, [-1.0, 0.0, NAN, INF, -INF, BIG], 1.0, "must be finite and positive"),
    "probability": (
        PROBABILITY_CALLERS, [-1.0, 1.5, 2.5, NAN, INF, -INF], 1.0, r"must lie in \[0, 1\]"),
    "positive probability": (
        POSITIVE_PROBABILITY_CALLERS, [-1.0, 0.0, 1.5, 2.5, NAN, INF, -INF], 1.0,
        r"must lie in \(0, 1\]"),
    "own rule": (OWN_RULE_CALLERS, [-1.0, 1.5, 2.5, NAN, INF, -INF], 1.0, None),
}

#: Kinds that are named but not swept, and why.
UNSWEPT_KINDS = {
    "seed": "anything `numpy.random.SeedSequence` takes; the CLI checks --seed as a count",
    "array": "an array or matrix, whose shape and entries have rules of their own",
    "object": "a scenario, state, plan, record, namespace, path or callable, checked where built",
    "choice": "one of a few named values; any other is refused by name",
    "name": "the label an error message names",
    "bound": "the minimum a count is compared with",
    "angle": "any real angle, or an array of them",
    "size": "a size its caller has checked or read from an array shape, compared with a cap",
    "record": "a field of a result record, which stores what the package computed",
    "dtype": "the numpy type a caller's array converts to, fixed by the calling function",
}

UNSWEPT = {
    "cli.cmd_rates.args": "object",
    "cli.cmd_sample.args": "object",
    "cli.cmd_decompose.args": "object",
    "cli.cmd_exactsim.args": "object",
    "cli.cmd_hom_sim.args": "object",
    "cli.cmd_hom_fit.args": "object",
    "cli.main.argv": "object",
    "errors.as_array.a": "array",
    "errors.as_array.dtype": "dtype",
    "errors.as_array.name": "name",
    "errors.check_count.name": "name",
    "errors.check_count.minimum": "bound",
    "errors.check_lifetime.name": "name",
    "errors.check_positive.name": "name",
    "errors.check_rates.rates": "array",
    "errors.check_probability.name": "name",
    "errors.check_positive_probability.name": "name",
    "exactsim.BenchmarkResult.m": "record",
    "exactsim.BenchmarkResult.p_j": "record",
    "exactsim.BenchmarkResult.model_p_step": "record",
    "exactsim.BenchmarkResult.excluded_occupancy_mass": "record",
    "exactsim.basis_state.state": "object",
    "exactsim.apply_decay.amps": "array",
    "exactsim.apply_decay.factor": "array",
    "exactsim.apply_layer.amps": "array",
    "exactsim.apply_layer.n": "size",
    "exactsim.apply_layer.m": "size",
    "exactsim.apply_layer.modes": "object",
    "exactsim.apply_layer.couplings": "array",
    "exactsim.run_circuit.amps": "array",
    "exactsim.run_circuit.plan": "object",
    "exactsim.run_circuit.rates": "array",
    "exactsim.benchmark_vs_model.seed": "seed",
    "fock.check_size_cap.count": "size",
    "fock.check_size_cap.what": "name",
    "fock.FockState.occupations": "array",
    "fock.rank_table.n": "size",
    "fock.rank_table.m": "size",
    "fock.basis_rank.states": "array",
    "fock.state_rank.state": "object",
    "fock.site_occupancy.state": "object",
    "fock.is_collision_free.state": "object",
    "hom.HomOutcomes.counts": "record",
    "hom.BunchingFit.p_bunch": "record",
    "hom.BunchingFit.sigma": "record",
    "hom.BunchingFit.trials_kept": "record",
    "hom.hom_analytic.params": "object",
    "hom.hom_monte_carlo.params": "object",
    "hom.hom_monte_carlo.seed": "seed",
    "hom.fit_bunching.measured": "object",
    "hom.fit_bunching.seed": "seed",
    "interferometer.coupling_matrix.theta": "angle",
    "interferometer.coupling_matrix.phi": "angle",
    "interferometer.phase_imprint.angle": "angle",
    "interferometer.PulseSequence.phi_imprint": "angle",
    "interferometer.PulseSequence.theta_imprint": "angle",
    "interferometer.composite_pulse.theta": "angle",
    "interferometer.composite_pulse.phi": "angle",
    "interferometer.CircuitPlan.m": "record",
    "interferometer.CircuitPlan.theta": "record",
    "interferometer.CircuitPlan.phi": "record",
    "interferometer.CircuitPlan.output_phases": "record",
    "interferometer.unitarity_defect.u": "array",
    "interferometer.haar_random_unitary.seed": "seed",
    "interferometer.clements_decompose.u": "array",
    "interferometer.reconstruct.plan": "object",
    "interferometer.plan_to_json.plan": "object",
    "interferometer.plan_from_json.data": "object",
    "interferometer.unitary_to_json.u": "array",
    "interferometer.unitary_from_json.data": "object",
    "lossmodel.check_finite_cap.n": "size",
    "lossmodel.circuit_steps.scenario": "object",
    "lossmodel.p_survival.scenario": "object",
    "lossmodel.p_survival.model": "choice",
    "lossmodel.n_threshold.scenario": "object",
    "lossmodel.r_ideal.scenario": "object",
    "lossmodel.r_nisq.scenario": "object",
    "lossmodel.r_nisq.model": "choice",
    "lossmodel.r_photonic.photonic": "object",
    "lossmodel.r_classical.classical": "object",
    "lossmodel.crossover.scenario": "object",
    "lossmodel.crossover.classical": "object",
    "lossmodel.crossover.model": "choice",
    "parallel.spawn_seeds.seed": "seed",
    "parallel.parallel_map.fn": "object",
    "parallel.parallel_map.items": "object",
    "permanent.check_glynn_cap.n": "size",
    "permanent.glynn_batch_size.n": "size",
    "permanent.permanents_of_rows.columns": "array",
    "permanent.permanents_of_rows.occupations": "array",
    "permanent.permanent_glynn.a": "array",
    "permanent.permanent_naive.a": "array",
    "sampling.OutputDistribution.states": "record",
    "sampling.OutputDistribution.probs": "record",
    "sampling.outcome_probability.u": "array",
    "sampling.outcome_probability.input_state": "object",
    "sampling.outcome_probability.output_state": "object",
    "sampling.output_distribution.u": "array",
    "sampling.output_distribution.input_state": "object",
    "sampling.output_distribution.collision_free_only": "choice",
    "sampling.draw_samples.dist": "object",
    "sampling.draw_samples.seed": "seed",
    "scenarios.ScenarioBundle.loss": "object",
    "scenarios.ScenarioBundle.photonic": "object",
    "scenarios.ScenarioBundle.classical": "object",
    "scenarios.bundle_from_dict.data": "object",
    "scenarios.read_json.path": "object",
    "scenarios.load_bundle.source": "object",
    "scenarios.load_hom_params.source": "object",
    "scenarios.load_hom_counts.path": "object",
}

#: The calls that took an out-of-domain value in silence, or refused it
#: with the wrong exception, before `errors` owned every domain.
REPORTED = {
    "hom_monte_carlo(p, 2.5, 0)": lambda: hom_monte_carlo(EXPERIMENT, 2.5, 0),
    "fit_bunching(survival_s=1.5)": lambda: fit_bunching(MEASURED, 1.5, 0.71, 0),
    "fit_bunching(p_lic0=-1)": lambda: fit_bunching(MEASURED, 0.84, -1.0, 0),
    "benchmark_vs_model(2, 4, 1.0, 2.5, 0)": lambda: benchmark_vs_model(2, 4, 1.0, 2.5, 0),
    "haar_random_unitary(2.5, 0)": lambda: haar_random_unitary(2.5, 0),
    "uniform_state(2.5, 4)": lambda: uniform_state(2.5, 4),
    "draw_samples(d, nan, 0)": lambda: draw_samples(DIST, math.nan, 0),
    "crossover(n_range=(2.5, 10))": lambda: crossover(SOTA.loss, SOTA.classical, (2.5, 10)),
    "collision_free_mass(-1, 4)": lambda: collision_free_mass(-1, 4),
    "poisson_pair_limit(inf, 0)": lambda: poisson_pair_limit(math.inf, 0),
    "p_step_twobody_closed(inf, 1, 1)": lambda: p_step_twobody_closed(math.inf, 1.0, 1.0),
    "even_mode_count(-3, 1.0)": lambda: even_mode_count(-3, 1.0),
    "even_mode_count(3, -1.0)": lambda: even_mode_count(3, -1.0),
    "HomOutcomes(10, p0=2.0, p1=-1.0, p2=0.0)": lambda: HomOutcomes(10, 2.0, -1.0, 0.0),
    "HomOutcomes(10, p0=0.9, p1=0.9, p2=0.0)": lambda: HomOutcomes(10, 0.9, 0.9, 0.0),
    "p_step_twobody_closed(1, 1, 10**400)": lambda: p_step_twobody_closed(1.0, 1.0, BIG),
    "p_step_twobody_closed(10**400, 1, 1)": lambda: p_step_twobody_closed(BIG, 1.0, 1.0),
    "p_step_twobody(2, 4, 10**400, 1)": lambda: p_step_twobody(2, 4, BIG, 1.0),
    "replace(preset, t_step=10**400)": lambda: replace(SOTA.loss, t_step=BIG),
}


def _plan_payload(theta):
    payload = plan_to_json(PLAN)
    payload["layers"][0][0]["theta"] = theta
    return payload


ATOM = FockState((1,))

#: One call per public entry point that converts a caller's array, JSON
#: payload or angle, each with one entry past the float range (past int64 for
#: the occupations `basis_rank` counts in): an OverflowError before `in_range`.
PAST_THE_RANGE = {
    "unitary_from_json": lambda: unitary_from_json({"m": 1, "re": [[BIG]], "im": [[0]]}),
    "plan_from_json": lambda: plan_from_json(_plan_payload(BIG)),
    "CircuitPlan": lambda: CircuitPlan(m=2, theta=[BIG], phi=[0.0], output_phases=[0.0, 0.0]),
    "clements_decompose": lambda: clements_decompose([[BIG]]),
    "unitarity_defect": lambda: unitarity_defect([[BIG]]),
    "permanent_glynn": lambda: permanent_glynn([[BIG]]),
    "permanent_naive": lambda: permanent_naive([[BIG]]),
    "permanents_of_rows": lambda: permanents_of_rows([[BIG]], [[1]]),
    "output_distribution": lambda: output_distribution([[BIG]], ATOM),
    "outcome_probability": lambda: outcome_probability([[BIG]], ATOM, ATOM),
    "run_circuit.amps": lambda: run_circuit([BIG], 0, PLAN, VACUUM_RATES),
    "run_circuit.rates": lambda: run_circuit(VACUUM, 0, PLAN, [BIG]),
    "basis_rank": lambda: basis_rank([[2**63, 0]]),
    "state_rank": lambda: state_rank(FockState((2**63, 0))),
    "coupling_matrix": lambda: coupling_matrix(BIG, 0.0),
    "phase_imprint": lambda: phase_imprint(BIG),
    "composite_pulse.theta": lambda: composite_pulse(BIG, 0.0).as_matrix(),
    "composite_pulse.phi": lambda: composite_pulse(0.0, BIG).global_phase,
}


@pytest.mark.parametrize("call", list(PAST_THE_RANGE))
def test_an_entry_past_the_range_raises_validation_error(call):
    with pytest.raises(ValidationError, match="got a number out of range"):
        PAST_THE_RANGE[call]()


def _arguments(function, skip_first):
    args = function.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    return names[1:] if skip_first else names


def _is_dataclass(node):
    decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    return any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators)


def _parameters(tree, module):
    """`module.function.parameter` of every public function, method and dataclass field."""
    found = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            found += [f"{module}.{node.name}.{a}" for a in _arguments(node, False)]
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            prefix = f"{module}.{node.name}"
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and _is_dataclass(node):
                    found.append(f"{prefix}.{item.target.id}")
                elif isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    found += [f"{prefix}.{item.name}.{a}" for a in _arguments(item, True)]
    return found


def _modules():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(encoding="utf-8"))


def _kinds():
    """Parameter -> kind of every entry above; a parameter swept twice (both ends of a range) once."""
    kinds = {}
    for kind, (callers, *_) in SWEEPS.items():
        for key in callers:
            parameter = key.partition("[")[0]
            assert kinds.setdefault(parameter, kind) == kind, parameter
    for parameter, kind in UNSWEPT.items():
        assert kinds.setdefault(parameter, kind) == kind, parameter
    return kinds


def test_every_public_parameter_has_a_kind():
    found = sorted(p for module, tree in _modules() for p in _parameters(tree, module))
    assert found == sorted(_kinds())


def test_every_unswept_kind_states_its_reason():
    assert set(UNSWEPT.values()) == set(UNSWEPT_KINDS)


def test_the_parameter_walk_sees_functions_methods_and_fields():
    source = (
        "def f(a, b=1, *, c):\n    pass\n"
        "def _g(x):\n    pass\n"
        "@dataclass(frozen=True)\nclass A:\n    x: int\n"
        "    @classmethod\n    def make(cls, y):\n        pass\n"
        "    def _hidden(self, z):\n        pass\n"
        "class B:\n    w: int\n    def run(self, v):\n        pass\n"
        "LIMIT = 3\n"
    )
    assert _parameters(ast.parse(source), "mod") == [
        "mod.f.a", "mod.f.b", "mod.f.c", "mod.A.x", "mod.A.make.y", "mod.B.run.v",
    ]


OUTSIDE = [
    pytest.param(kind, key, value, id=f"{key}-{'10**400' if value == BIG else value}")
    for kind, (callers, values, _, _) in SWEEPS.items()
    for key in callers
    for value in values
]


@pytest.mark.parametrize("kind,key,value", OUTSIDE)
def test_values_outside_the_domain_raise_validation_error(kind, key, value):
    callers, _, _, wording = SWEEPS[kind]
    with pytest.raises(ValidationError, match=wording):
        callers[key](value)


EDGES = [pytest.param(kind, key, id=key) for kind, (callers, *_) in SWEEPS.items() for key in callers]


@pytest.mark.parametrize("kind,key", EDGES)
def test_the_edge_of_each_domain_is_taken(kind, key):
    callers, _, edge, _ = SWEEPS[kind]
    result = callers[key](edge)
    assert isinstance(result, (float, Fraction)) == (key in NUMBER_RESULTS)
    if key in NUMBER_RESULTS:
        assert 0.0 <= result < math.inf
    if kind == "lifetime" and ".p_step" in key:
        assert result == 1.0  # inf switches the channel off


def test_every_number_result_is_a_swept_caller():
    assert NUMBER_RESULTS <= {key for callers, *_ in SWEEPS.values() for key in callers}


def test_a_bool_is_not_a_count():
    for call in (lambda: check_count("n", True, 0), lambda: HomOutcomes.from_counts(40, True, 19)):
        with pytest.raises(ValidationError, match="must be an integer >="):
            call()


@pytest.mark.parametrize("call", list(REPORTED))
def test_each_reported_call_raises_validation_error(call):
    with pytest.raises(ValidationError):
        REPORTED[call]()


#: Functions that raise `ValidationError` from a comparison of a parameter,
#: each with the one rule it may state so, as `ast.unparse` writes its test:
#: a rule that is not one of the plain domains `errors` owns.
ALLOWED_RULES = {
    # n collision-free atoms need at least n modes
    "cli._default_input_state": "n > m",
    # P_bunch of two atoms lies in [1/2, 1]: distinguishable atoms bunch half the time
    "hom.purity_from_bunching": "not P_BUNCH_MIN <= p_bunch <= 1.0",
    # P2 lies in [0, s^2], a bound set by the other parameter
    "hom.bunching_from_p2": "not 0.0 <= p2 <= s * s",
    # an empty atom-number range, n_min > n_max, ties its two ends
    "lossmodel.crossover": "hi < lo",
    # an odd mode count: sites are mode pairs
    "fock.site_count": "m % 2 != 0",
}


def _is_number(node):
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return (isinstance(node, ast.Constant) and isinstance(node.value, (int, float))
            and not isinstance(node.value, bool))


def _reads_parameter(node, params):
    """True if `node` is a parameter, or arithmetic on one (an attribute or call is not)."""
    if isinstance(node, ast.Name):
        return node.id in params
    if isinstance(node, ast.BinOp):
        return _reads_parameter(node.left, params) or _reads_parameter(node.right, params)
    if isinstance(node, ast.UnaryOp):
        return _reads_parameter(node.operand, params)
    return False


def _compares_a_parameter(test, params):
    for node in ast.walk(test):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            read = [_reads_parameter(op, params) for op in operands]
            if any(read) and (sum(read) > 1 or any(map(_is_number, operands))):
                return True
    return False


def _raises_validation_error(body):
    for stmt in body:
        if isinstance(stmt, ast.Raise) and isinstance(stmt.exc, ast.Call):
            func = stmt.exc.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "ValidationError":
                return True
    return False


def _domain_rules(tree):
    """(line, function, test) of every `if` that raises `ValidationError` on a compared parameter."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                check(child, f"{prefix}{child.name}")
                visit(child, f"{prefix}{child.name}.")

    def check(function, name):
        params = set(_arguments(function, False))
        # names unpacked from a parameter, as in `lo, hi = n_range`, stand for it
        for stmt in function.body:
            if (isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Name)
                    and stmt.value.id in params):
                params |= {t.id for target in stmt.targets if isinstance(target, ast.Tuple)
                           for t in target.elts if isinstance(t, ast.Name)}
        for node in ast.walk(function):
            if (isinstance(node, ast.If) and _raises_validation_error(node.body)
                    and _compares_a_parameter(node.test, params)):
                found.append((node.lineno, name, ast.unparse(node.test)))

    visit(tree, "")
    return found


def test_domain_rules_live_in_errors():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "errors.py":
            for _, name, rule in _domain_rules(ast.parse(path.read_text(encoding="utf-8"))):
                found.setdefault(f"{path.stem}.{name}", []).append(rule)
    assert found == {name: [rule] for name, rule in ALLOWED_RULES.items()}


def test_the_guard_sees_every_inline_domain_rule():
    source = (
        "def f(n, m):\n"
        "    if n < 0:\n"
        "        raise ValidationError('n')\n"
        "    if not 0.0 <= m <= 1.0:\n"
        "        raise errors.ValidationError('m')\n"
        "def g(n_range):\n"
        "    lo, hi = n_range\n"
        "    if hi < lo:\n"
        "        raise ValidationError('empty')\n"
        "def h(m):\n"
        "    if m % 2 != 0:\n"
        "        raise ValidationError('odd')\n"
        "def fine(u, n, args):\n"
        "    k = len(u)\n"
        "    if k < 1:\n"
        "        raise ValidationError('local')\n"
        "    if n > 28:\n"
        "        raise SizeCapError('cap')\n"
        "    if u.shape[0] != 2 or len(u) > n:\n"
        "        raise ValidationError('shape')\n"
        "    if math.isfinite(n):\n"
        "        raise ValidationError('call')\n"
        "class A:\n"
        "    def __post_init__(self, x):\n"
        "        if x >= -1:\n"
        "            raise ValidationError('x')\n"
    )
    assert _domain_rules(ast.parse(source)) == [
        (2, "f", "n < 0"),
        (4, "f", "not 0.0 <= m <= 1.0"),
        (8, "g", "hi < lo"),
        (11, "h", "m % 2 != 0"),
        (25, "A.__post_init__", "x >= -1"),
    ]


def test_overflow_errors_are_handled_in_errors_alone():
    named = {module for module, tree in _modules() for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id == "OverflowError"}
    assert named == {"errors"}
