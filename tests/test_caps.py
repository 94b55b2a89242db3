"""Each size cap is compared in one function, its owner, and read nowhere else.

A second comparison with a cap is a second place to keep in step with the
first; a cap passed around as an argument is a comparison in disguise.  So
in the package `GLYNN_CAP` is read only inside `check_glynn_cap`,
`BASIS_CAP` only inside `check_size_cap` and `FINITE_MODEL_CAP` only inside
`check_finite_cap`.  Docstrings may name them.
"""

import ast
from pathlib import Path

import atomsampler

PACKAGE = Path(atomsampler.__file__).parent

#: Cap -> the only function that may read it.
OWNERS = {
    "GLYNN_CAP": "check_glynn_cap",
    "BASIS_CAP": "check_size_cap",
    "FINITE_MODEL_CAP": "check_finite_cap",
}


def _stray_reads(tree):
    """(line, cap, enclosing function or None) of every read of a cap outside its owner."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                visit(child, getattr(child, "name", "<lambda>"))
                continue
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                name = child.id
            elif isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
                name = child.attr
            else:
                name = None
            if name in OWNERS and function != OWNERS[name]:
                found.append((child.lineno, name, function))
            visit(child, function)

    visit(tree, None)
    return found


def test_each_cap_is_read_only_by_its_owner():
    found = {
        path.name: reads
        for path in sorted(PACKAGE.glob("*.py"))
        if (reads := _stray_reads(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert found == {}


def test_the_guard_sees_every_stray_read():
    source = (
        "GLYNN_CAP = 28\n"
        "def check_glynn_cap(n):\n"
        '    """Refuse n above `GLYNN_CAP`."""\n'
        "    if n > GLYNN_CAP:\n"
        '        raise ValueError(f"{GLYNN_CAP}")\n'
        "def permanent(a):\n"
        "    return _checked(a, GLYNN_CAP)\n"
        "def check_size_cap(count):\n"
        "    return count > GLYNN_CAP or count > fock.BASIS_CAP\n"
        "LIMIT = fock.BASIS_CAP\n"
        "pick = lambda n: n > GLYNN_CAP\n"
    )
    assert _stray_reads(ast.parse(source)) == [
        (7, "GLYNN_CAP", "permanent"),
        (9, "GLYNN_CAP", "check_size_cap"),
        (10, "BASIS_CAP", None),
        (11, "GLYNN_CAP", "<lambda>"),
    ]
