"""No module of the package reaches into another module's private names.

An underscore name is a module's own business; a second module that imports
it, or reads it through the module object, has to change with every change
inside the first.
"""

import ast
from pathlib import Path

import atomsampler

PACKAGE = Path(atomsampler.__file__).parent
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def _private_uses(tree):
    """(line, name) of every underscore name taken from another package module."""
    found = []
    module_names = set()
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    for node in imports:
        if node.level or (node.module or "").split(".")[0] == "atomsampler":
            for alias in node.names:
                if node.module is None and alias.name in MODULES:
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


def test_no_module_imports_another_modules_private_names():
    found = {
        path.name: uses
        for path in sorted(PACKAGE.glob("*.py"))
        if (uses := _private_uses(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert found == {}


def test_the_guard_sees_both_forms():
    source = (
        "from .permanent import _parity, glynn_batch_size\n"
        "from atomsampler.fock import _occupation_rows\n"
        "from . import fock\n"
        "fock._basis_array_cached(1, 2)\n"
    )
    assert _private_uses(ast.parse(source)) == [
        (1, "_parity"), (2, "_occupation_rows"), (4, "fock._basis_array_cached")
    ]
