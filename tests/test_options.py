"""Every defaulted parameter and every dataclass field in the package, against explicit lists.

An option that no caller sets is code to keep working for nobody, so adding
a default means adding its entry here, in plain sight of the review.  A
record keeps what was measured or given and derives the rest where it is
read, so a field added to a dataclass needs its entry here too.
"""

import ast
from pathlib import Path

import atomsampler

ALLOWED_DEFAULTS = [
    "cli._add_common.scenario_default",
    "cli.main.argv",
    "hom.hom_monte_carlo.workers",
    "lossmodel.crossover.model",
    "lossmodel.crossover.n_range",
    "lossmodel.r_nisq.model",
    "lossmodel.r_photonic.depth",
    "sampling.output_distribution.collision_free_only",
]

DATACLASS_FIELDS = [
    "exactsim.BenchmarkResult.excluded_occupancy_mass",
    "exactsim.BenchmarkResult.m",
    "exactsim.BenchmarkResult.model_p_step",
    "exactsim.BenchmarkResult.p_j",
    "fock.FockState.occupations",
    "hom.BunchingFit.p_bunch",
    "hom.BunchingFit.sigma",
    "hom.BunchingFit.trials_kept",
    "hom.HomOutcomes.counts",
    "hom.HomOutcomes.p0",
    "hom.HomOutcomes.p1",
    "hom.HomOutcomes.p2",
    "hom.HomOutcomes.trials_kept",
    "hom.HomParams.gamma",
    "hom.HomParams.p_addr",
    "hom.HomParams.p_lic0",
    "hom.HomParams.p_rec",
    "hom.HomParams.survival_s",
    "interferometer.CircuitPlan.m",
    "interferometer.CircuitPlan.output_phases",
    "interferometer.CircuitPlan.phi",
    "interferometer.CircuitPlan.theta",
    "interferometer.PulseSequence.phi_imprint",
    "interferometer.PulseSequence.theta_imprint",
    "lossmodel.ClassicalScenario.a_tilde",
    "lossmodel.LossScenario.eta_det",
    "lossmodel.LossScenario.eta_init",
    "lossmodel.LossScenario.mode_ratio_c",
    "lossmodel.LossScenario.t_det",
    "lossmodel.LossScenario.t_init",
    "lossmodel.LossScenario.t_step",
    "lossmodel.LossScenario.tau_bg",
    "lossmodel.LossScenario.tau_tb",
    "lossmodel.PhotonicScenario.eta_c",
    "lossmodel.PhotonicScenario.eta_f",
    "lossmodel.PhotonicScenario.r0",
    "sampling.OutputDistribution.probs",
    "sampling.OutputDistribution.states",
    "scenarios.ScenarioBundle.classical",
    "scenarios.ScenarioBundle.loss",
    "scenarios.ScenarioBundle.photonic",
]


def _modules():
    package = Path(atomsampler.__file__).parent
    for path in sorted(package.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(encoding="utf-8"))


def _defaulted_parameters(tree, module):
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                defaulted = positional[len(positional) - len(args.defaults):]
                defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
                found.extend(f"{prefix}{child.name}.{a.arg}" for a in defaulted)
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, f"{module}.")
    return found


def _dataclass_fields(tree, module):
    """`module.Class.field` of every annotated name in a class decorated with `dataclass`."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators):
            found += [
                f"{module}.{node.name}.{item.target.id}"
                for item in node.body
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
            ]
    return found


def test_defaulted_parameters_match_the_allow_list():
    found = []
    for module, tree in _modules():
        found += _defaulted_parameters(tree, module)
    assert sorted(found) == ALLOWED_DEFAULTS


def test_dataclass_fields_match_the_pinned_list():
    found = []
    for module, tree in _modules():
        found += _dataclass_fields(tree, module)
    assert sorted(found) == DATACLASS_FIELDS


def test_the_field_guard_sees_every_decorator_form():
    source = (
        "@dataclass\nclass A:\n    x: int\n    y = 1\n"
        "@dataclass(frozen=True, eq=False)\nclass B:\n    z: float\n"
        "class C:\n    w: int\n"
    )
    assert _dataclass_fields(ast.parse(source), "mod") == ["mod.A.x", "mod.B.z"]
