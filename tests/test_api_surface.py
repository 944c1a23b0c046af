"""Guard: the package exports no public name that only the tests use.

Every public module-level function, class and constant defined in
``src/fastforecast`` must be referenced somewhere in ``src/fastforecast`` or
``perfbench`` other than its own definition: as a name, an attribute or an
import.  perfbench wraps the entry points it traces by looking them up with
``getattr`` from strings such as ``"Model.forward_batch"``, so each dotted
part of a string constant in ``perfbench`` counts as a reference too.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "fastforecast").glob("*.py"))
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))

def public_definitions(path):
    """(name, first line, last line) of each public top-level definition."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                yield name, node.lineno, node.end_lineno


def references(path):
    """(name, line) of every name, attribute and imported name in a file, plus
    the dotted parts of string constants in perfbench."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.name.rsplit(".", 1)[-1], node.lineno
        elif (path in PERFBENCH and isinstance(node, ast.Constant)
              and isinstance(node.value, str)):
            for part in node.value.split("."):
                yield part, node.lineno


def unreferenced():
    refs = {path: list(references(path)) for path in SRC + PERFBENCH}
    found = []
    for path in SRC:
        for name, first, last in public_definitions(path):
            used = any(ref == name and not (where == path and first <= line <= last)
                       for where, pairs in refs.items() for ref, line in pairs)
            if not used:
                found.append(f"{path.stem}.{name}")
    return found


def test_every_public_name_is_used_outside_the_tests():
    unused = unreferenced()
    assert not unused, f"public names only the tests use: {unused}"
