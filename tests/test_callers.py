"""Every public name of the package has a caller, apart from a pinned list of test references.

A function, class or constant that only its own unit test calls is API kept
working for nobody.  A caller is any name, attribute or import alias in code
that runs: the package's module-level code, `cli.main` (the console entry
point), the demos, the benchmark, and in turn every module-level definition
of the package that such code names.  A name mentioned only by a test
reference, or by a definition nothing reaches, has no caller.  The
`__init__` re-export is no caller either.  The few public names that only
the tests reach are listed in `REFERENCES`, each with the reason it stays,
so a new public name needs a caller or an entry here.
"""

import ast
from pathlib import Path

import atomsampler

PACKAGE = Path(atomsampler.__file__).parent
ROOT = Path(__file__).resolve().parents[1]

REFERENCES = [
    # the one-Fock-state input of the state-vector vs permanent oracle (criterion 11) and of the
    # decay laws, which run `run_circuit` on a plan whose pair blocks are all the identity
    "exactsim.basis_state",
    # the rank of an occupation table, checked against the canonical basis order; `state_rank`
    # ranks one state with it, for `basis_state` and the tests that look up one amplitude
    "fock.basis_rank",
    # the basis as `FockState`s, walked by the rank, occupancy and oracle tests
    "fock.enumerate_basis",
    # the per-state site rule that the pair/trio counts are checked against (criterion 05)
    "fock.site_occupancy",
    "fock.state_rank",
    # the only reader that checks a `decompose` payload rebuilds its unitary
    "interferometer.plan_from_json",
    # the exact sector probability that the sector sum's float weights equal bit for bit (criterion 05)
    "lossmodel.p_pairs_trios",
    # the large-N step survival that the finite-size sum approaches, checked at N = 100 and 150
    "lossmodel.p_step_twobody_closed",
    # the large-N law of the pair counts (criterion 06)
    "lossmodel.poisson_pair_limit",
    # no command starts a thread pool; bench/spans.py traces the pool by name, and its per-layer
    # metrics read None without it, so it stays until the benchmark drops them
    "parallel.parallel_map",
    # the size limit of the factorial oracle below
    "permanent.NAIVE_CAP",
    # the single-matrix Glynn entry point checked against that oracle (criterion 02)
    "permanent.permanent_glynn",
    # the factorial oracle of the Glynn kernel (criterion 02)
    "permanent.permanent_naive",
]

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _public_names(tree):
    """Public module-level defs, classes and assigned names of one module."""
    names = []
    for node in tree.body:
        if isinstance(node, DEFINITIONS):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [name for name in names if not name.startswith("_")]


def _mentions(tree):
    """Every name, attribute and imported name a caller's source reads; a store reads none."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rpartition(".")[2])
    return found


def _uncalled(modules, roots):
    """`module.name` of every public name of `modules` that no reached code mentions.

    Reached code is the module-level code of `modules` (an import binds a
    name but runs nothing of it), the `roots`, and every module-level
    definition of `modules` whose name reached code mentions.
    """
    definitions, todo = {}, list(roots)
    for tree in modules.values():
        for node in tree.body:
            if isinstance(node, DEFINITIONS):
                definitions.setdefault(node.name, []).append(node)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                todo.append(node)
    mentioned = set()
    while todo:
        new = _mentions(todo.pop()) - mentioned
        mentioned |= new
        todo += [node for name in new for node in definitions.get(name, ())]
    return sorted(
        f"{module}.{name}"
        for module, tree in modules.items()
        for name in _public_names(tree)
        if name not in mentioned
    )


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def test_every_public_name_has_a_caller_or_is_a_pinned_reference():
    modules = {p.stem: _parse(p) for p in sorted(PACKAGE.glob("[!_]*.py"))}
    main = next(node for node in modules["cli"].body if getattr(node, "name", None) == "main")
    scripts = sorted(ROOT.glob("demos/**/*.py")) + sorted(ROOT.glob("bench/**/*.py"))
    assert _uncalled(modules, [main, *map(_parse, scripts)]) == REFERENCES


def test_the_guard_sees_every_form_of_caller():
    module = ast.parse(
        "LIMIT = 3\n"
        "_PRIVATE = 4\n"
        "_TABLE = _build()\n"
        "def _build(): return tabled()\n"
        "def tabled(): pass\n"
        "def called(): return _step()\n"
        "def _step(): return chained()\n"
        "def chained(): pass\n"
        "def imported(): pass\n"
        "def read(): pass\n"
        "def lonely(): pass\n"
        "def reference(): return only_from_a_reference()\n"
        "def only_from_a_reference(): pass\n"
        "def only_imported(): pass\n"
        "class Orphan: pass\n"
        "def _helper(): pass\n"
    )
    caller = ast.parse(
        "from pkg.mod import imported\n"
        "import pkg.mod as mod\n"
        "called()\n"
        "mod.read\n"
    )
    # a module of the package that imports a name runs nothing of it
    importer = ast.parse("from pkg.mod import only_imported\n")
    assert _uncalled({"mod": module, "importer": importer}, [caller]) == [
        "mod.LIMIT", "mod.Orphan", "mod.lonely", "mod.only_from_a_reference", "mod.only_imported",
        "mod.reference",
    ]
