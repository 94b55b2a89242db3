"""Every public name of the package has a caller, apart from a pinned list of test references.

A function, class or constant that only its own unit test calls is API kept
working for nobody.  A caller is any name, attribute or import alias in the
package (the `__init__` re-export aside), the demos or the benchmark.  The
few public names that only the tests reach are listed in `REFERENCES`, each
with the reason it stays, so a new public name needs a caller or an entry
here.
"""

import ast
from pathlib import Path

import atomsampler

PACKAGE = Path(atomsampler.__file__).parent
ROOT = Path(__file__).resolve().parents[1]

REFERENCES = [
    # the decay step that `run_circuit` matches bit for bit
    "exactsim.apply_decay",
    # the layer step that `run_circuit` matches bit for bit
    "exactsim.apply_layer",
    # the one-Fock-state input of the state-vector vs permanent oracle (criterion 11)
    "exactsim.basis_state",
    # the basis as `FockState`s, walked by the rank, occupancy and oracle tests
    "fock.enumerate_basis",
    # the per-state site rule that the pair/trio counts are checked against (criterion 05)
    "fock.site_occupancy",
    # the only reader that checks a `decompose` payload rebuilds its unitary
    "interferometer.plan_from_json",
    # the exact sector probability that the sector sum's float weights equal bit for bit (criterion 05)
    "lossmodel.p_pairs_trios",
    # the large-N step survival that the finite-size sum approaches, checked at N = 100 and 150
    "lossmodel.p_step_twobody_closed",
    # the large-N law of the pair counts (criterion 06)
    "lossmodel.poisson_pair_limit",
    # the single-matrix Glynn entry point checked against that oracle (criterion 02)
    "permanent.permanent_glynn",
    # the factorial oracle of the Glynn kernel (criterion 02)
    "permanent.permanent_naive",
]


def _public_names(tree):
    """Public module-level defs, classes and assigned names of one module."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [name for name in names if not name.startswith("_")]


def _mentions(tree):
    """Every name, attribute and imported name a caller's source reads."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rpartition(".")[2])
    return found


def _uncalled(modules, callers):
    """`module.name` of every public name of `modules` that no tree in `callers` mentions."""
    mentioned = set().union(*map(_mentions, callers))
    return sorted(
        f"{module}.{name}"
        for module, tree in modules.items()
        for name in _public_names(tree)
        if name not in mentioned
    )


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def test_every_public_name_has_a_caller_or_is_a_pinned_reference():
    sources = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    modules = {p.stem: _parse(p) for p in sources if not p.stem.startswith("_")}
    scripts = sorted(ROOT.glob("demos/**/*.py")) + sorted(ROOT.glob("bench/**/*.py"))
    assert _uncalled(modules, [_parse(p) for p in sources + scripts]) == REFERENCES


def test_the_guard_sees_every_form_of_caller():
    module = ast.parse(
        "LIMIT = 3\n"
        "_PRIVATE = 4\n"
        "def called(): pass\n"
        "def imported(): pass\n"
        "def read(): pass\n"
        "def lonely(): pass\n"
        "class Orphan: pass\n"
        "def _helper(): pass\n"
    )
    caller = ast.parse(
        "from pkg.mod import imported\n"
        "import pkg.mod as mod\n"
        "called()\n"
        "mod.read\n"
    )
    assert _uncalled({"mod": module}, [caller]) == ["mod.LIMIT", "mod.Orphan", "mod.lonely"]
