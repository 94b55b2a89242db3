"""No module of the package reaches into another module's private names, or into the tests.

An underscore name is a module's own business; a second module that imports
it, or reads it through the module object, has to change with every change
inside the first.  The test oracles in `tests/oracles.py` are held to the
same rule, so they check the package through its public names only.  No
package module imports from the tests, and no oracle's name is defined in
the package too: an oracle moved back into `src/` would be a second
implementation of its quantity.
"""

import ast
from pathlib import Path

import atomsampler

PACKAGE = Path(atomsampler.__file__).parent
MODULES = {path.stem for path in PACKAGE.glob("*.py")}
TESTS = Path(__file__).resolve().parent
ORACLES = TESTS / "oracles.py"
#: What a package module would import to reach test code.
TEST_MODULES = {"tests"} | {path.stem for path in TESTS.glob("*.py")}


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def _private_uses(tree):
    """(line, name) of every underscore name taken from another package module."""
    found = []
    module_names = set()
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    for node in imports:
        if node.level or (node.module or "").split(".")[0] == "atomsampler":
            for alias in node.names:
                if node.module in (None, "atomsampler") and alias.name in MODULES:
                    module_names.add(alias.asname or alias.name)
                elif alias.name.startswith("_"):
                    found.append((node.lineno, alias.name))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in module_names
            and node.attr.startswith("_")
        ):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return found


def _imported_modules(tree):
    """Top-level name of every module an absolute import names."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.partition(".")[0])
    return found


def _defined_names(tree):
    """Names that a module's top-level functions, classes and assignments define."""
    found = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found |= {t.id for t in targets if isinstance(t, ast.Name)}
    return found


def test_no_module_imports_another_modules_private_names():
    found = {
        path.name: uses
        for path in [*sorted(PACKAGE.glob("*.py")), ORACLES]
        if (uses := _private_uses(_parse(path)))
    }
    assert found == {}


def test_no_package_module_imports_from_the_tests():
    found = {
        path.name: sorted(reached)
        for path in sorted(PACKAGE.glob("*.py"))
        if (reached := _imported_modules(_parse(path)) & TEST_MODULES)
    }
    assert found == {}


def test_no_oracle_is_defined_in_the_package():
    package = set().union(*(_defined_names(_parse(path)) for path in PACKAGE.glob("*.py")))
    assert _defined_names(_parse(ORACLES)) & package == set()


def test_the_guard_sees_both_forms():
    source = (
        "from .permanent import _parity, glynn_batch_size\n"
        "from atomsampler.fock import _occupation_rows\n"
        "from . import fock\n"
        "fock._basis_array_cached(1, 2)\n"
        "from atomsampler import exactsim\n"
        "exactsim._pair_fibers(1, 2)\n"
    )
    assert _private_uses(ast.parse(source)) == [
        (1, "_parity"), (2, "_occupation_rows"), (4, "fock._basis_array_cached"),
        (6, "exactsim._pair_fibers"),
    ]


def test_the_test_guards_see_imports_and_definitions():
    source = (
        "import tests.oracles\n"
        "from oracles import state_rank\n"
        "from . import fock\n"
        "from .fock import basis_array\n"
        "LIMIT = 3\n"
        "LIMIT_DOC: str = 'cap'\n"
        "def rank(state):\n    inner = 1\n"
        "class Oracle:\n    pass\n"
    )
    tree = ast.parse(source)
    assert _imported_modules(tree) == {"tests", "oracles"}
    assert _defined_names(tree) == {"LIMIT", "LIMIT_DOC", "rank", "Oracle"}
