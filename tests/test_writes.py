"""Exactly one function of the package creates, renames or removes a file.

A run's outputs appear all or none only while every write goes through the
one writer in `cli`; a second function that opens a file for writing,
renames or deletes one would write around it.  The guard looks for the `os`
calls that rename or remove, `open`/`os.fdopen` with a mode that writes, and
the `Path` methods that write or unlink.
"""

import ast
from pathlib import Path

import atomsampler

PACKAGE = Path(atomsampler.__file__).parent
OS_CALLS = {"replace", "rename", "renames", "remove", "unlink", "rmdir", "removedirs"}
OPENERS = {"open", "fdopen"}
PATH_WRITES = {"write_text", "write_bytes", "unlink", "touch", "rmdir"}


def _opens_for_writing(call):
    mode = call.args[1] if len(call.args) > 1 else None
    mode = next((k.value for k in call.keywords if k.arg == "mode"), mode)
    if mode is None:
        return False
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return any(flag in mode.value for flag in "wxa+")
    return True  # a mode computed at run time may write


def _writes(call):
    func = call.func
    if isinstance(func, ast.Name):
        return func.id in OPENERS and _opens_for_writing(call)
    if not isinstance(func, ast.Attribute):
        return False
    if isinstance(func.value, ast.Name) and func.value.id in ("os", "io"):
        if func.attr in OPENERS:
            return _opens_for_writing(call)
        return func.value.id == "os" and func.attr in OS_CALLS
    return func.attr in PATH_WRITES


def _writers(tree, module):
    """(line, enclosing function) of every call that writes, renames or removes a file."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.Call) and _writes(child):
                found.append((child.lineno, scope))
            visit(child, scope)

    visit(tree, module)
    return found


def test_one_function_writes_every_file():
    scopes = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes.update(scope for _, scope in _writers(tree, path.stem))
    assert scopes == {"cli._write_files"}


def test_the_guard_sees_both_forms():
    source = (
        "import os\n"
        "def put(path, text):\n"
        "    with open(path, 'x', encoding='utf-8') as fh:\n"
        "        fh.write(text)\n"
        "    os.replace(path, path + '.done')\n"
        "class Store:\n"
        "    def drop(self, path):\n"
        "        os.unlink(path)\n"
        "        open(path, mode='w').close()\n"
        "        path.write_text('')\n"
        "def read(path):\n"
        "    with open(path, encoding='utf-8') as fh:\n"
        "        return fh.read().replace('a', 'b'), open(path, 'rb'), os.path.exists(path)\n"
    )
    assert _writers(ast.parse(source), "m") == [
        (3, "m.put"), (5, "m.put"), (8, "m.Store.drop"), (9, "m.Store.drop"), (10, "m.Store.drop")
    ]
