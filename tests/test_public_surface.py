"""The package holds what a command or an acceptance criterion reads.

Every public module-level function or class of `src/cmvscatter/`, and every
public method, must be referenced outside its own definition by another
part of the package (not counting the re-exports of `__init__.py`), by
`tests/test_acceptance.py`, or by the names the benchmark tracer patches
(`perfbench/tracer.TRACED`).  A definition that only its own tests reach
belongs in `tests/` as a reference helper, or nowhere.

References are matched by identifier: a bare name or an attribute name.
"""

import ast
import importlib.util
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cmvscatter"

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
tracer = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracer)


def _identifiers(tree):
    """Counter of every bare name and attribute name read in `tree`."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
    return found


def _public_definitions(module):
    """(qualified name, node) of each public module-level function or class
    and each public method of a module-level class."""
    defs = (ast.FunctionDef, ast.ClassDef)
    for node in module.body:
        if not isinstance(node, defs) or node.name.startswith("_"):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def _unreferenced():
    modules = {path.stem: ast.parse(path.read_text())
               for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"}
    readers = Counter()
    for tree in modules.values():
        readers += _identifiers(tree)
    readers += _identifiers(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()))
    for _, attribute, _ in tracer.TRACED:
        readers.update(attribute.split("."))
    missing = []
    for stem, tree in modules.items():
        for qualname, node in _public_definitions(tree):
            name = node.name
            if readers[name] - _identifiers(node)[name] <= 0:
                missing.append(f"{stem}.{qualname}")
    return missing


def test_every_public_definition_has_a_reader():
    missing = _unreferenced()
    assert not missing, (
        "public definitions that no other package code, acceptance criterion or "
        f"traced name reads: {missing}")
