"""Every defaulted parameter in the package, against an explicit allow-list.

An option that no caller sets is code to keep working for nobody, so adding
a default means adding its entry here, in plain sight of the review.
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


def test_defaulted_parameters_match_the_allow_list():
    package = Path(atomsampler.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        found += _defaulted_parameters(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert sorted(found) == ALLOWED_DEFAULTS
